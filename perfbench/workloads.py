"""The three benchmark workloads: inputs, query execution and answer checks.

Inputs come from a frozen catalogue (`expected.json`, written by
`freeze.py` from the code the benchmark was defined on) that also holds
the expected answer to every query a seed can generate. A seed only picks
and orders catalogue entries, so any seed can be checked exactly.

Queries are plain tuples `(kind, *args)`; `run_query` executes one
against the kernel, and `answer` turns its raw result into the canonical
string stored in the catalogue. Canonicalization and checks run after the
timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("ladder_cold", "session_warm", "cli_session")
DEFAULT_SEED = 1

# ladder_cold: ROADMAP headline ladder; 401/1000 does not finish at the seed
LADDER = ("4/9", "3/7", "5/12", "7/17", "41/100")

# session_warm; classify and bracket make up well over half of all
# queries, so query_p50_ms is a memo-hit classify or bracket on every seed
WALK_STEPS = 40
DEEP_MAX_DEN = 24      # points of [5/12, 4/9): classify and bracket on each, every seed
UPPER_MAX_DEN = 32     # points of [4/9, 1]: seeded order-query arguments
ORDER_FRESH = 160
ORDER_REPEATS = 70
TREE_POOL = 120
TREES_PER_PASS = 30
STAR_SIZES = ((23, 24, 25), (47, 48, 49), (95, 96, 97))

# cli_session
CLI_MAX_DEN = 20
CLI_FRESH = {
    "classify": 4, "pred": 3, "bracket": 4, "limit-seq": 2, "decide": 2,
    "enum": 2, "xdmin": 2, "tree-p": 1, "tree-label": 2, "validate-label": 1,
    "ord-eval": 2, "alpha": 2, "team-size": 1, "simulate": 2,
}
CLI_MID_COST = (("classify", "5/12"), ("team-size", "10/23"))
CLI_REPEATS = 16
CLI_REPEAT_VERBS = ("classify", "pred", "bracket")
DIGEST_OVER = 300


def fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:32]


def short(text: str) -> str:
    """Answers longer than DIGEST_OVER characters are stored as a digest."""
    return text if len(text) <= DIGEST_OVER else digest(text)


def grid(lo: Fraction, hi: Fraction, max_den: int, include_hi: bool) -> list[Fraction]:
    pts = {Fraction(p, q) for q in range(1, max_den + 1) for p in range(1, q + 1)}
    return sorted(x for x in pts if lo <= x and (x <= hi if include_hi else x < hi))


def deep_points() -> list[Fraction]:
    return grid(Fraction(5, 12), Fraction(4, 9), DEEP_MAX_DEN, include_hi=False)


def upper_points(max_den: int = UPPER_MAX_DEN) -> list[Fraction]:
    return grid(Fraction(4, 9), Fraction(1), max_den, include_hi=True)


def load_catalogue() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def star_text(size: int) -> str:
    return "(" + "()" * size + ")"


# ---- input generation ----


def build(workload: str, seed: int, cat: dict) -> list[tuple]:
    """The fixed query list of one pass, generated from seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "ladder_cold":
        return [("ladder", x) for x in LADDER]
    if workload == "session_warm":
        return _session_queries(rng, cat)
    if workload == "cli_session":
        return [("cli", tuple(argv)) for argv in _cli_invocations(rng, cat["cli"])]
    raise ValueError(f"unknown workload {workload!r}")


def _session_queries(rng: random.Random, cat: dict) -> list[tuple]:
    walk = cat["walk"]
    queries = [("next_below", walk[i]) for i in range(WALK_STEPS)]

    upper = [fmt(x) for x in upper_points()]
    args = rng.sample(upper, ORDER_FRESH)
    for _ in range(ORDER_REPEATS):
        i = rng.randrange(len(args))
        args.insert(rng.randint(i + 1, len(args)), args[i])
    order = []
    for x in args:
        cls = cat["points"][x]["classify"]
        ops = {"classify": 2, "bracket": 2, "decide": 1}
        ops.update({"pred": 1} if cls == "SUCC" else {"limit5": 1} if cls == "LIM" else {})
        op = rng.choices(list(ops), weights=list(ops.values()))[0]
        order.append(("decide", x, rng.choice(upper)) if op == "decide" else (op, x))
    for x in map(fmt, deep_points()):
        for op in ("classify", "bracket"):
            order.insert(rng.randint(0, len(order)), (op, x))
    queries += order

    trees = rng.sample(range(len(cat["trees"])), TREES_PER_PASS)
    queries += [("tree", i) for i in trees]
    queries += [("star", str(rng.choice(sizes))) for sizes in STAR_SIZES]
    return queries


def _cli_invocations(rng: random.Random, cli: dict) -> list[list[str]]:
    pools = cli["pools"]
    successors = {args[0] for args in pools["pred"]}
    fresh = [list(q) for q in CLI_MID_COST]
    fresh += [[verb, *rng.choice(pools[verb])]
              for verb, count in CLI_FRESH.items() for _ in range(count)]
    rng.shuffle(fresh)
    mid = next(q for q in fresh if q == list(CLI_MID_COST[0]))
    sources = [q for q in fresh if q[0] in CLI_REPEAT_VERBS and q[1] != mid[1]]
    repeats = [(mid, list(mid))]
    for _ in range(CLI_REPEATS - 1):
        src = rng.choice(sources)
        verbs = ["classify", "bracket"] + (["pred"] if src[1] in successors else [])
        repeats.append((src, [rng.choice(verbs), src[1]]))
    queries = list(fresh)
    for src, q in repeats:
        at = next(i for i, item in enumerate(queries) if item is src)
        queries.insert(rng.randint(at + 1, len(queries)), q)
    half = len(queries) // 2
    flags = [True] * half + [False] * (len(queries) - half)
    rng.shuffle(flags)
    return [(["--json"] if js else []) + q for q, js in zip(queries, flags)]


# ---- execution ----


def prepare(queries: list[tuple], cat: dict) -> list[tuple]:
    """Kernel inputs for each query: exact rationals and parsed trees."""
    from pfinhier import parse_tree

    out = []
    for q in queries:
        kind = q[0]
        if kind == "tree":
            out.append((kind, parse_tree(cat["trees"][q[1]]["tree"])))
        elif kind == "star":
            out.append((kind, parse_tree(star_text(int(q[1])))))
        elif kind == "cli":
            out.append(q)
        else:
            out.append((kind, *(Fraction(a) for a in q[1:])))
    return out


def tree_chain(hier, tree):
    """Everything a user does with one conjecture tree or machine trace."""
    # imported per call, so that names the tracer has wrapped are picked up
    from pfinhier import (MachineTrace, integer_labeling, make_context, p_of_tree,
                          rational_labeling, simulate_team, team_size, validate_labeling)

    p = p_of_tree(tree)
    lab = rational_labeling(tree)
    m, n, ilab = integer_labeling(tree)
    valid = validate_labeling(tree, lab)
    valid_int = validate_labeling(tree, ilab)
    ctx = make_context(hier, p)
    alloc = simulate_team(ctx, MachineTrace(tree=tree, labeling=lab))
    k = team_size(hier, p) if hier.is_member(p) else None
    return tree, p, lab, (m, n, ilab), valid, valid_int, ctx, alloc, k


def run_kernel_query(hier_factory, hier, q):
    kind, *args = q
    if kind == "ladder":
        return hier_factory().classify(args[0])
    if kind == "next_below":
        return hier.next_below(args[0])
    if kind == "classify":
        return hier.classify(args[0])
    if kind == "bracket":
        return hier.bracket(args[0])
    if kind == "pred":
        return hier.predecessor(args[0])
    if kind == "limit5":
        return hier.limit_sequence(args[0]).take(5)
    if kind == "decide":
        return hier.decide_equivalence(args[0], args[1])
    if kind in ("tree", "star"):
        return tree_chain(hier, args[0])
    raise ValueError(f"unknown query kind {kind!r}")


# ---- answers ----


def _context_text(ctx) -> str:
    pred = fmt(ctx.p0_upper_pred) if ctx.p0_upper_pred is not None else "-"
    rows = " ".join(fmt(q) for q in ctx.P_prime)
    funding = " ".join(f"{fmt(c)}:{fmt(v)}:{fmt(r)}" for c, v, r in ctx.funding)
    return f"{fmt(ctx.p0)} {fmt(ctx.p0_upper)} {pred} [{rows}] [{funding}]"


def _allocation_text(alloc) -> str:
    from pfinhier import format_labeling
    from pfinhier.trees import format_path

    branches = " ".join(f"{format_path(p)}={s}" for p, s in sorted(alloc.successes.items()))
    return f"{alloc.k} {alloc.target} " + digest(format_labeling(alloc.assignment) + branches)


def tree_answer(raw) -> dict:
    from pfinhier import format_labeling

    _, p, lab, (m, n, ilab), valid, valid_int, ctx, alloc, k = raw
    return {
        "p": fmt(p),
        "rational_labeling": digest(format_labeling(lab)),
        "integer_labeling": f"{m} {n} " + digest(format_labeling(ilab)),
        "validate": f"{valid[0]} {valid[1]}",
        "validate_integer": f"{valid_int[0]} {valid_int[1]}",
        "make_context": short(_context_text(ctx)),
        "simulate": _allocation_text(alloc),
        "team_size": None if k is None else str(k),
    }


def answer(q: tuple, raw):
    """Canonical, JSON-comparable form of a query's raw result."""
    kind = q[0]
    if kind in ("ladder", "classify"):
        return raw.value
    if kind in ("next_below", "pred"):
        return fmt(raw)
    if kind == "bracket":
        return f"{fmt(raw[0])} {fmt(raw[1])}"
    if kind == "limit5":
        return " ".join(fmt(t) for t in raw)
    if kind == "decide":
        return "EQUIVALENT" if raw else "NOT EQUIVALENT"
    if kind in ("tree", "star"):
        return tree_answer(raw)
    if kind == "cli":
        code, stdout = raw
        return [code, short(stdout)]
    raise ValueError(f"unknown query kind {kind!r}")


def expected(q: tuple, cat: dict):
    kind = q[0]
    if kind == "ladder":
        return cat["ladder"][q[1]]
    if kind == "next_below":
        return cat["walk"][cat["walk"].index(q[1]) + 1]
    if kind == "decide":
        same = cat["points"][q[1]]["bracket"].split()[1] == cat["points"][q[2]]["bracket"].split()[1]
        return "EQUIVALENT" if same else "NOT EQUIVALENT"
    if kind in ("classify", "bracket", "pred", "limit5"):
        return cat["points"][q[1]][kind]
    if kind == "tree":
        return cat["trees"][q[1]]["answer"]
    if kind == "star":
        return cat["stars"][q[1]]
    if kind == "cli":
        return cat["cli"]["answers"][" ".join(q[1])]
    raise ValueError(f"unknown query kind {kind!r}")


# ---- independent checks, outside the timed region ----


def _oracles():
    import importlib.util
    import sys

    path = os.path.join(os.path.dirname(HERE), "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


WALK_ORACLE_CAP = 60
BASE_ORACLE_N = 64


def extra_checks(queries: list[tuple], raws: list) -> dict[int, str]:
    """Oracle, re-validation and round-trip checks; {query index: problem}."""
    from pfinhier import Classification, format_ordinal, parse_ordinal, validate_labeling

    problems: dict[int, str] = {}
    oracles = None
    walk = [(i, raw) for i, (q, raw) in enumerate(zip(queries, raws))
            if q[0] == "next_below" and not isinstance(raw, BaseException)]
    if walk:
        oracles = _oracles()
        hits = sorted(oracles.window_hits(Fraction(4, 9), Fraction(1, 2), n_cap=WALK_ORACLE_CAP),
                      reverse=True)
        for i, raw in walk:
            step = queries[i][1]
            want = hits[hits.index(step) + 1] if step in hits else hits[0]
            if raw != want:
                problems[i] = f"window_hits oracle expects {fmt(want)}"
    base = None
    for i, (q, raw) in enumerate(zip(queries, raws)):
        if isinstance(raw, BaseException):
            continue
        kind = q[0]
        if kind in ("classify", "bracket") and q[1] > Fraction(1, 2):
            if base is None:
                oracles = oracles or _oracles()
                base = oracles.base_members(BASE_ORACLE_N)
            x = q[1]
            if kind == "classify" and (raw is not Classification.NOT_MEMBER) != (x in base):
                problems[i] = "base_members oracle disagrees on membership"
            if kind == "bracket":
                lo, hi = raw
                between = [b for b in base if lo < b < hi]
                if lo not in base or hi not in base or not lo <= x <= hi or between:
                    problems[i] = "base_members oracle disagrees on the bracket"
        elif kind in ("tree", "star"):
            tree, alloc = raw[0], raw[7]
            ok, msg = validate_labeling(tree, alloc.assignment)
            if not ok or any(s < alloc.target for s in alloc.successes.values()):
                problems[i] = f"allocation does not re-validate: {msg}"
        elif kind == "cli" and raw[0] == 0:
            argv = [a for a in q[1] if a != "--json"]
            if argv[0] in ("alpha", "ord-eval"):
                text = raw[1].strip()
                if "--json" in q[1]:
                    text = json.loads(text)["result"]
                try:
                    round_trip = format_ordinal(parse_ordinal(text))
                except Exception as exc:  # any failure to parse is a wrong answer
                    round_trip = repr(exc)
                if round_trip != text:
                    problems[i] = f"ordinal {text!r} does not round-trip ({round_trip!r})"
    return problems
