"""Per-layer tracing of pfinhier from outside the package.

`Tracer.install()` replaces each traced public function with a timing
wrapper: Hierarchy methods are patched on the class, module functions are
patched under every name a pfinhier module binds them to (for example
`contribution` lives in `rules` but is looked up through `minimal_sets`,
`teams`, `trees` and the package namespace too). `uninstall()` puts the
originals back.

Every wrapped call updates its layer's call count, inclusive time, self
time (inclusive time minus the time of wrapped calls made inside it) and
nesting depth. Calls at the `hierarchy`, `minimal_sets`, `trees`, `teams`
and `cli` boundaries also record a span (name, start, end, parent span,
query id) in compact arrays; the `rules`, `rationals` and `ordinals`
functions run far more often and keep only the counters.

Memo counters are derived from call arguments and return values alone, so
they keep working however `Hierarchy` stores its caches.
"""

from __future__ import annotations

import gzip
import sys
import weakref
from array import array
from time import perf_counter

# (layer name, where it lives, attribute, keeps spans)
TARGETS = [
    ("hierarchy.classify", "pfinhier.hierarchy:Hierarchy", "classify", True),
    ("hierarchy.bracket", "pfinhier.hierarchy:Hierarchy", "bracket", True),
    ("hierarchy.next_below", "pfinhier.hierarchy:Hierarchy", "next_below", True),
    ("hierarchy.predecessor", "pfinhier.hierarchy:Hierarchy", "predecessor", True),
    ("hierarchy.segment_of", "pfinhier.hierarchy:Hierarchy", "segment_of", True),
    ("hierarchy.limit_sequence", "pfinhier.hierarchy:Hierarchy", "limit_sequence", True),
    ("minimal_sets.xd_minimal", "pfinhier.minimal_sets", "xd_minimal", True),
    ("minimal_sets.find_smallest", "pfinhier.minimal_sets", "find_smallest", True),
    ("rules.contribution", "pfinhier.rules", "contribution", False),
    ("rules.apply_rule", "pfinhier.rules", "apply_rule", False),
    ("rules.is_valid_application", "pfinhier.rules", "is_valid_application", False),
    ("trees.p_of_tree", "pfinhier.trees", "p_of_tree", True),
    ("trees.rational_labeling", "pfinhier.trees", "rational_labeling", True),
    ("trees.integer_labeling", "pfinhier.trees", "integer_labeling", True),
    ("trees.validate_labeling", "pfinhier.trees", "validate_labeling", True),
    ("teams.make_context", "pfinhier.teams", "make_context", True),
    ("teams.g_prime", "pfinhier.teams", "g_prime", True),
    ("teams.simulate_team", "pfinhier.teams", "simulate_team", True),
    ("teams.team_size", "pfinhier.teams", "team_size", True),
    ("rationals.parse_rational", "pfinhier.rationals", "parse_rational", False),
    ("ordinals.alpha_at", "pfinhier.ordinals", "alpha_at", False),
    ("ordinals.parse_ordinal", "pfinhier.ordinals", "parse_ordinal", False),
    ("cli.main", "pfinhier.cli", "main", True),
    ("cli.load_cache", "pfinhier.cli", "_load_cache", True),
    ("cli.save_cache", "pfinhier.cli", "_save_cache", True),
]

# layers whose first argument is a Hierarchy and second the queried value;
# their repeat share is measured per Hierarchy instance
REPEAT_TRACKED = ("hierarchy.classify", "hierarchy.bracket", "teams.make_context")

XD = "minimal_sets.xd_minimal"
XD_COUNTERS = ("distinct_keys", "distinct_results", "empty_results")


def _resolve(where: str):
    module_name, _, cls = where.partition(":")
    module = sys.modules[module_name]
    return module, (getattr(module, cls) if cls else None)


class Tracer:
    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        n = len(self.names)
        self.calls = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        self.active = [0] * n
        self.max_depth = [0] * n
        self.query = -1
        # span columns; parent is a span index or -1
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_query = array("l")
        # frames: [time spent in wrapped children, innermost enclosing span]
        self._stack = [[0.0, -1]]
        self._patches = []
        self._seen = {name: weakref.WeakKeyDictionary() for name in REPEAT_TRACKED}
        self.repeats = {name: 0 for name in REPEAT_TRACKED}
        self._xd_keys = weakref.WeakKeyDictionary()
        self._xd_results = weakref.WeakKeyDictionary()
        self.xd = dict.fromkeys(XD_COUNTERS, 0)
        self.absent: list[str] = []

    # ---- installation ----

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "pfinhier" or name.startswith("pfinhier."))]
        for idx, (name, where, attr, spans) in enumerate(TARGETS):
            if where.partition(":")[0] not in sys.modules:
                continue  # module not loaded: the layer cannot run in this process
            try:
                module, cls = _resolve(where)
            except AttributeError:
                self.absent.append(name)
                continue
            owner = cls if cls is not None else module
            original = owner.__dict__.get(attr)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(idx, original, spans)
            if cls is not None:
                self._patch(cls, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- the wrapper ----

    def _wrap(self, idx: int, fn, spans: bool):
        name = self.names[idx]
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        active, max_depth = self.active, self.max_depth
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_query = self.span_parent, self.span_query
        before = self._note_repeat if name in REPEAT_TRACKED else None
        after = self._note_xd if name == XD else None
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(name, args)
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if spans:
                frame[1] = len(s_start)
                s_name.append(idx)
                s_parent.append(parent[1])
                s_query.append(tracer.query)
                s_start.append(0.0)
                s_end.append(0.0)
            stack.append(frame)
            depth = active[idx] = active[idx] + 1
            if depth > max_depth[idx]:
                max_depth[idx] = depth
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[idx] -= 1
                stack.pop()
                elapsed = t1 - t0
                parent[0] += elapsed
                calls[idx] += 1
                total_s[idx] += elapsed
                self_s[idx] += elapsed - frame[0]
                if spans:
                    s_start[frame[1]] = t0
                    s_end[frame[1]] = t1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_repeat(self, name, args) -> None:
        if len(args) < 2:
            return
        seen = self._seen[name].setdefault(args[0], set())
        if args[1] in seen:
            self.repeats[name] += 1
        else:
            seen.add(args[1])

    def _note_xd(self, args, result) -> None:
        hier, x, d, floor = args
        keys = self._xd_keys.setdefault(hier, set())
        key = (x, d, floor)
        if key in keys:
            return
        keys.add(key)
        self.xd["distinct_keys"] += 1
        if not result.tuples:
            self.xd["empty_results"] += 1
        results = self._xd_results.setdefault(hier, set())
        value = (x, floor, result.tuples)
        if value not in results:
            results.add(value)
            self.xd["distinct_results"] += 1

    # ---- results ----

    def snapshot(self) -> dict:
        """Counters so far, keyed by layer name; JSON-serializable."""
        layers = {}
        for i, name in enumerate(self.names):
            layers[name] = {
                "calls": self.calls[i],
                "total_s": self.total_s[i],
                "self_s": self.self_s[i],
                "max_depth": self.max_depth[i],
            }
        for name, count in self.repeats.items():
            layers[name]["repeats"] = count
        layers[XD].update(self.xd)
        return {"layers": layers, "absent": list(self.absent), "spans": len(self.span_start)}

    def spans(self) -> list[tuple]:
        """(query, span, parent, name, start, end) rows in call order."""
        return [
            (self.span_query[i], i, self.span_parent[i], self.names[self.span_name[i]],
             self.span_start[i], self.span_end[i])
            for i in range(len(self.span_start))
        ]


def merge(into: dict, other: dict) -> dict:
    """Add the counters of one snapshot to another (for CLI children)."""
    if not into:
        return {"layers": {k: dict(v) for k, v in other["layers"].items()},
                "absent": list(other["absent"]), "spans": other["spans"]}
    for name, stats in other["layers"].items():
        mine = into["layers"][name]
        for key, value in stats.items():
            mine[key] = max(mine[key], value) if key == "max_depth" else mine[key] + value
    into["spans"] += other["spans"]
    return into


def write_spans(path: str, rows) -> None:
    """Spans as gzip'd tab-separated text, times in ns from the first span.

    rows are (process, query, span, parent, name, start, end); process 0
    is the worker, n > 0 the CLI child that ran query n - 1.
    """
    rows = list(rows)
    origin = min((r[5] for r in rows), default=0.0)
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
        fh.write("process\tquery\tspan\tparent\tname\tstart_ns\tend_ns\n")
        for proc, query, span, parent, name, start, end in rows:
            fh.write(f"{proc}\t{query}\t{span}\t{parent}\t{name}\t"
                     f"{round((start - origin) * 1e9)}\t{round((end - origin) * 1e9)}\n")
