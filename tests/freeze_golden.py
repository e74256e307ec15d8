"""Build the golden corpus that tests/test_golden.py replays.

The corpus pins the kernel's answers so that optimizations of its
arithmetic can be checked byte for byte against the code that produced
them:

- `classify` and `bracket` of every rational in [5/12, 1] with
  denominator at most 24;
- a 20-step `next_below` chain from 1/2;
- the `predecessor` of every successor met in the two lists above;
- `team_size` and the allocator's team size of every grid member above
  5/12 (5/12 alone would add about 2 s to the replay);
- `xd_minimal` tuples, delta and p0' for x in {3/7, 5/12, 12/25, 1/2}
  at the full budget d = x and at three partial budgets.

Run from the repository root to rewrite tests/golden.json:

    PYTHONPATH=src python tests/freeze_golden.py

The file is not collected by pytest (its name does not start with
`test_`). Rewrite the corpus only when an answer is meant to change.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as F
from pathlib import Path

from pfinhier import Classification, Hierarchy, format_rational
from pfinhier.teams import _allocation_team_size, team_size

GOLDEN = Path(__file__).with_name("golden.json")

GRID_LOW = F(5, 12)
GRID_MAX_DEN = 24
CHAIN_STEPS = 20
XD_POINTS = (F(3, 7), F(5, 12), F(12, 25), F(1, 2))
XD_BUDGET_SHARES = (F(1), F(3, 4), F(1, 2), F(1, 4))


def grid() -> list[F]:
    values = {F(n, d) for d in range(1, GRID_MAX_DEN + 1) for n in range(1, d + 1)}
    return sorted(v for v in values if v >= GRID_LOW)


def build_corpus(hier: Hierarchy | None = None) -> dict:
    """Every golden answer, as JSON-ready strings, from one Hierarchy."""
    hier = hier or Hierarchy(floor_level=4)
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

    predecessor = {fmt(x): fmt(hier.predecessor(x)) for x in sorted(successors)}

    sizes = {fmt(x): team_size(hier, x) for x in members}
    allocation_sizes = {fmt(x): _allocation_team_size(hier, x) for x in members}

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
        "team_size": sizes,
        "allocation_team_size": allocation_sizes,
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
