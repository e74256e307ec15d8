"""Build the golden corpus that tests/test_golden.py replays.

The corpus pins the kernel's answers so that optimizations of its
arithmetic can be checked byte for byte against the code that produced
them:

- `classify` and `bracket` of every rational in [5/12, 1] with
  denominator at most 24;
- a 20-step `next_below` chain from 1/2;
- the `predecessor` of every successor met in the two lists above, and
  of every successor component of `xd_minimal(x, x)` for x in {3/7,
  5/12, 12/25, 7/17} (117 members, most with denominators beyond the
  grid's);
- the `predecessor` of every successor below 1/2 whose predecessor a
  cold `classify(41/100)` asks for (189 members; about 1 s of replay).
  The points are recorded once, by freezing with a Hierarchy that notes
  each `predecessor` argument, and the replay reads them back from the
  corpus: a faster `predecessor` may ask for fewer of them, and the
  answers at the frozen points must not change;
- `team_size` and the allocator's team size of every grid member above
  5/12 (5/12 alone would add about 2 s to the replay);
- `simulate_team` allocations for the traces of acceptance criterion 8
  (the clamped tree, the pass-through chain and 18 random trees) and for
  the 24-, 48- and 96-leaf stars of the session benchmark;
- `xd_minimal` tuples, delta and p0' for x in {3/7, 5/12, 12/25, 1/2}
  at the full budget d = x and at three partial budgets.

Run from the repository root to rewrite tests/golden.json:

    PYTHONPATH=src python tests/freeze_golden.py

The file is not collected by pytest (its name does not start with
`test_`). Rewrite the corpus only when an answer is meant to change. It
imports the standard library, the package and tests/oracles.py alone, so
a Python without pytest can replay the corpus as tests/test_golden.py
does, by comparing dumps(build_corpus(...)) with the file.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

from pfinhier import (
    Classification,
    Hierarchy,
    MachineTrace,
    format_labeling,
    format_rational,
    format_tree,
    make_context,
    p_of_tree,
    parse_tree,
    rational_labeling,
    simulate_team,
)
from pfinhier.teams import _allocation_team_size, team_size
from pfinhier.trees import Labeling, format_path

from oracles import rand_tree

GOLDEN = Path(__file__).with_name("golden.json")

GRID_LOW = F(5, 12)
GRID_MAX_DEN = 24
CHAIN_STEPS = 20
XD_POINTS = (F(3, 7), F(5, 12), F(12, 25), F(1, 2))
XD_BUDGET_SHARES = (F(1), F(3, 4), F(1, 2), F(1, 4))
COMPONENT_POINTS = (F(3, 7), F(5, 12), F(12, 25), F(7, 17))
LADDER_POINT = F(41, 100)
STAR_LEAVES = (24, 48, 96)


def grid() -> list[F]:
    values = {F(n, d) for d in range(1, GRID_MAX_DEN + 1) for n in range(1, d + 1)}
    return sorted(v for v in values if v >= GRID_LOW)


def team_traces() -> list[MachineTrace]:
    """Criterion 8's traces, then the stars, each with its success level."""
    clamped = parse_tree("((()())(()()())((())))")
    traces = [
        MachineTrace(tree=clamped, labeling=rational_labeling(clamped)),
        MachineTrace(tree=parse_tree("(())"), labeling=Labeling(
            p=F(12, 25), q=F(1),
            nu1={(): F(12, 25), (0,): F(0)},
            nu2={(): F(0), (0,): F(12, 25)},
        )),
    ]
    rng = random.Random(825)
    while len(traces) < 20:
        tree = rand_tree(rng, 3)
        if p_of_tree(tree) >= F(12, 25):
            traces.append(MachineTrace(tree=tree, labeling=rational_labeling(tree)))
    for n in STAR_LEAVES:
        star = parse_tree("(" + "()" * n + ")")
        traces.append(MachineTrace(tree=star, labeling=rational_labeling(star)))
    return traces


def ladder_successors() -> list[F]:
    """Successors below 1/2 whose predecessor cold classify(LADDER_POINT) asks for."""
    asked = set()

    class Recording(Hierarchy):
        def predecessor(self, x):
            if 2 * x.numerator < x.denominator:  # x < 1/2
                asked.add(x)
            return super().predecessor(x)

    Recording(floor_level=4).classify(LADDER_POINT)
    return sorted(asked)


def build_corpus(hier: Hierarchy | None = None, ladder: list[F] | None = None) -> dict:
    """Every golden answer, as JSON-ready strings, from one Hierarchy.

    ladder lists the successors of the classify(LADDER_POINT) entry;
    when it is None they are recorded afresh (ladder_successors).
    """
    hier = hier or Hierarchy(floor_level=4)
    ladder = ladder_successors() if ladder is None else ladder
    fmt = format_rational
    successors = set()

    classify, bracket = {}, {}
    members = []
    for x in grid():
        cls = hier.classify(x)
        classify[fmt(x)] = cls.value
        bracket[fmt(x)] = [fmt(b) for b in hier.bracket(x)]
        if cls is Classification.SUCCESSOR:
            successors.add(x)
        if cls is not Classification.NOT_MEMBER and x > GRID_LOW:
            members.append(x)

    chain = [F(1, 2)]
    for _ in range(CHAIN_STEPS):
        chain.append(hier.next_below(chain[-1]))
    successors.update(u for u in chain if hier.classify(u) is Classification.SUCCESSOR)
    for x in COMPONENT_POINTS:
        successors.update(
            c for T in hier.xd_minimal(x, x).tuples for c in T
            if hier.classify(c) is Classification.SUCCESSOR
        )

    predecessor = {fmt(x): fmt(hier.predecessor(x)) for x in sorted(successors)}
    ladder_predecessor = {fmt(x): fmt(hier.predecessor(x)) for x in ladder}

    sizes = {fmt(x): team_size(hier, x) for x in members}
    allocation_sizes = {fmt(x): _allocation_team_size(hier, x) for x in members}

    allocations = []
    for trace in team_traces():
        x = trace.labeling.p
        alloc = simulate_team(make_context(hier, x), trace)
        allocations.append({
            "tree": format_tree(trace.tree),
            "x": fmt(x),
            "k": alloc.k,
            "target": alloc.target,
            "assignment": format_labeling(alloc.assignment).splitlines(),
            "successes": [f"{format_path(p)}={s}" for p, s in sorted(alloc.successes.items())],
        })

    xd = []
    for x in XD_POINTS:
        for share in XD_BUDGET_SHARES:
            P = hier.xd_minimal(x, x * share)
            xd.append({
                "x": fmt(x),
                "d": fmt(P.d),
                "floor": fmt(P.floor),
                "delta": fmt(P.delta),
                "p0_prime": fmt(P.p0_prime),
                "tuples": [[fmt(c) for c in T] for T in P.tuples],
            })

    return {
        "classify": classify,
        "bracket": bracket,
        "next_below_chain": [fmt(u) for u in chain],
        "predecessor": predecessor,
        "ladder_predecessor": ladder_predecessor,
        "team_size": sizes,
        "allocation_team_size": allocation_sizes,
        "simulate_team": allocations,
        "xd_minimal": xd,
    }


def dumps(corpus: dict) -> str:
    return json.dumps(corpus, indent=1, sort_keys=True) + "\n"


def main() -> int:
    GOLDEN.write_text(dumps(build_corpus()))
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
