"""Command-line surface over the hierarchy kernel.

One verb per query family; results go to stdout, diagnostics to stderr.
Exit codes: 0 success, 1 domain error (e.g. predecessor of a limit
element), 2 argument or parse error, 3 query below the constructed
floor. Internal consistency failures are allowed to escape with a
traceback; they indicate a bug, not a usage error.

Counts are bounded: limit-seq --take and the count of enum must lie in
[1, MAX_COUNT] (10,000), so a mistyped count is refused with exit 2
instead of running for minutes.

Output is byte-deterministic for identical invocations. With --json a
single object {verb, input, result, witnesses} is printed instead of
the plain text form.

Each run is one process answering one question, so start-up counts.
This module loads only the hierarchy kernel (rationals, rules,
hierarchy, minimal_sets); the tree, team and ordinal handlers import
their own modules when they run, and json is imported only for --json.
Every verb still builds Hierarchy(floor_level=--floor), so --floor is
validated the same way whatever the verb.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import DomainError, FloorError, InputError
from .hierarchy import Classification, Hierarchy
from .minimal_sets import prune_dominated
from .rationals import format_rational, parse_rational
from .rules import apply_rule


# the most terms limit-seq --take or enum may ask for
MAX_COUNT = 10_000


def _check_count(what: str, n: int) -> None:
    if not 1 <= n <= MAX_COUNT:
        raise InputError(f"{what} must lie in [1, {MAX_COUNT}]: {n}")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _emit(args, result, witnesses, plain_lines):
    if args.json:
        import json

        arg_view = {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("json", "floor", "func", "verb") and v is not None
        }
        obj = {
            "verb": args.verb,
            "input": arg_view,
            "result": result,
            "witnesses": witnesses,
        }
        print(json.dumps(obj, sort_keys=True))
    else:
        for line in plain_lines:
            print(line)


def _fmt_tuple(T) -> str:
    parts = " ".join(format_rational(p) for p in T)
    return f"{parts} -> {format_rational(apply_rule(T))}"


# ---- verb handlers ----


def _cmd_classify(hier, args):
    x = parse_rational(args.x)
    cls = hier.classify(x)
    witnesses = {}
    if cls is Classification.SUCCESSOR:
        witnesses["predecessor"] = format_rational(hier.predecessor(x))
    elif cls is Classification.LIMIT:
        seq = hier.limit_sequence(x)
        witnesses["approach"] = [format_rational(t) for t in seq.take(3)]
    _emit(args, cls.value, witnesses, [cls.value])
    return 0


def _cmd_pred(hier, args):
    x = parse_rational(args.x)
    p = hier.predecessor(x)
    _emit(args, format_rational(p), {}, [format_rational(p)])
    return 0


def _cmd_limit_seq(hier, args):
    x = parse_rational(args.x)
    _check_count("--take", args.take)
    seq = hier.limit_sequence(x)
    terms = [format_rational(t) for t in seq.take(args.take)]
    _emit(args, terms, {}, terms)
    return 0


def _cmd_bracket(hier, args):
    x = parse_rational(args.x)
    f1, f2 = hier.bracket(x)
    pair = [format_rational(f1), format_rational(f2)]
    _emit(args, pair, {}, [" ".join(pair)])
    return 0


def _cmd_decide(hier, args):
    p1 = parse_rational(args.p1)
    p2 = parse_rational(args.p2)
    same = hier.decide_equivalence(p1, p2)
    text = "EQUIVALENT" if same else "NOT EQUIVALENT"
    _emit(args, text, {"equivalent": same}, [text])
    return 0


def _cmd_enum(hier, args):
    a = parse_rational(args.a)
    b = parse_rational(args.b)
    _check_count("count", args.n)
    members = hier.enumerate_interval(a, b, args.n)
    lines = [format_rational(m) for m in members]
    _emit(args, lines, {}, lines)
    return 0


def _cmd_xdmin(hier, args):
    x = parse_rational(args.x)
    d = parse_rational(args.d)
    P = hier.xd_minimal(x, d)
    tuples = prune_dominated(P.tuples) if args.prune else P.tuples
    lines = [_fmt_tuple(T) for T in tuples]
    witnesses = {
        "delta": format_rational(P.delta),
        "p0_prime": format_rational(P.p0_prime),
        "count": len(tuples),
    }
    _emit(args, lines, witnesses, lines)
    return 0


def _cmd_tree_p(hier, args):
    from .trees import p_of_tree, parse_tree

    tree = parse_tree(_read_file(args.file))
    p = p_of_tree(tree)
    _emit(args, format_rational(p), {}, [format_rational(p)])
    return 0


def _cmd_tree_label(hier, args):
    from .trees import format_labeling, integer_labeling, parse_tree, rational_labeling

    tree = parse_tree(_read_file(args.file))
    if args.integer:
        m, n, lab = integer_labeling(tree)
        text = format_labeling(lab)
        witnesses = {"m": int(m), "n": int(n)}
    else:
        lab = rational_labeling(tree)
        text = format_labeling(lab)
        witnesses = {"p": format_rational(lab.p)}
    lines = text.splitlines()
    _emit(args, lines, witnesses, lines)
    return 0


def _cmd_validate_label(hier, args):
    from .trees import parse_labeling, parse_tree, validate_labeling

    tree = parse_tree(_read_file(args.file))
    lab = parse_labeling(_read_file(args.labelfile))
    ok, report = validate_labeling(tree, lab)
    text = "VALID" if ok else f"INVALID: {report}"
    _emit(args, text, {"valid": ok, "detail": report}, [text])
    return 0 if ok else 1


def _cmd_ord_eval(hier, args):
    from .ordinals import format_ordinal, parse_ordinal

    o = parse_ordinal(args.expr)
    _emit(args, format_ordinal(o), {}, [format_ordinal(o)])
    return 0


def _cmd_alpha(hier, args):
    from .ordinals import alpha_at, format_ordinal

    x = parse_rational(args.x)
    o = alpha_at(x)
    _emit(args, format_ordinal(o), {}, [format_ordinal(o)])
    return 0


def _cmd_team_size(hier, args):
    from .teams import team_size

    p = parse_rational(args.p)
    k = team_size(hier, p)
    _emit(args, k, {}, [str(k)])
    return 0


def _cmd_simulate(hier, args):
    from .teams import make_context, parse_trace, simulate_team
    from .trees import format_labeling, format_path

    trace = parse_trace(_read_file(args.tracefile))
    x = parse_rational(args.x)
    ctx = make_context(hier, x)
    alloc = simulate_team(ctx, trace)
    lines = [f"k = {alloc.k}", f"target = {alloc.target}"]
    lines.extend(format_labeling(alloc.assignment).splitlines())
    for path in sorted(alloc.successes):
        lines.append(f"branch {format_path(path)}: {alloc.successes[path]}")
    witnesses = {"k": alloc.k, "target": alloc.target}
    _emit(args, lines, witnesses, lines)
    return 0


# ---- argument wiring ----


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pfinhier",
        description="Exact queries over the PFIN success-probability hierarchy.",
    )
    top.add_argument("--version", action="version", version=f"pfinhier {__version__}")
    top.add_argument(
        "--floor",
        type=int,
        default=4,
        metavar="N",
        help="construct levels down to 1/(N+1) (default 4)",
    )
    top.add_argument(
        "--json",
        action="store_true",
        help="print one JSON object instead of plain text",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="membership class of a probability")
    p.add_argument("x")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("pred", help="predecessor of a successor member")
    p.add_argument("x")
    p.set_defaults(func=_cmd_pred)

    p = sub.add_parser("limit-seq", help="descending member sequence at a limit")
    p.add_argument("x")
    p.add_argument("--take", type=int, default=5, metavar="N")
    p.set_defaults(func=_cmd_limit_seq)

    p = sub.add_parser("bracket", help="nearest members on both sides")
    p.add_argument("x")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("decide", help="decide learning-power equivalence")
    p.add_argument("p1")
    p.add_argument("p2")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("enum", help="enumerate members of [a, b] ascending")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("xdmin", help="minimal set of allowed tuples")
    p.add_argument("x")
    p.add_argument("d")
    p.add_argument("--prune", action="store_true", help="drop dominated tuples")
    p.set_defaults(func=_cmd_xdmin)

    p = sub.add_parser("tree-p", help="optimal probability of a conjecture tree")
    p.add_argument("file")
    p.set_defaults(func=_cmd_tree_p)

    p = sub.add_parser("tree-label", help="optimal labeling of a conjecture tree")
    p.add_argument("file")
    p.add_argument("--integer", action="store_true", help="emit an (m, n) labeling")
    p.set_defaults(func=_cmd_tree_label)

    p = sub.add_parser("validate-label", help="check a labeling against a tree")
    p.add_argument("file")
    p.add_argument("labelfile")
    p.set_defaults(func=_cmd_validate_label)

    p = sub.add_parser("ord-eval", help="evaluate an ordinal expression")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_ord_eval)

    p = sub.add_parser("alpha", help="order type above a supported point")
    p.add_argument("x")
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("team-size", help="deterministic team size for a member")
    p.add_argument("p")
    p.set_defaults(func=_cmd_team_size)

    p = sub.add_parser("simulate", help="convert a machine trace to a team")
    p.add_argument("tracefile")
    p.add_argument("--x", required=True, help="machine success probability")
    p.set_defaults(func=_cmd_simulate)

    return top


# usage errors raised by the kernel; ConsistencyError is left to escape
_EXIT_CODES = {DomainError: 1, InputError: 2, FloorError: 3}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for bad usage
        return int(exc.code or 0)
    try:
        return args.func(Hierarchy(floor_level=args.floor), args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
