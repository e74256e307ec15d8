"""Allowed tuples and (x, d)-minimal sets.

A tuple of members drawn from the slice [floor, 1] of the hierarchy is
(x, d)-allowed when its per-component contributions x/p + x - 1 are all
positive and sum to at most d. The minimal-set builder returns a finite
set of allowed tuples such that every allowed tuple is dominated from
below, coordinatewise, by a stored tuple of the same length; this is the
finite search space behind membership classification and predecessors.

The two procedures here are mutually recursive: xd_minimal walks candidate
smallest components upward and recurses on the remaining budget, while
find_smallest answers "what is the next achievable contribution total
strictly above d" for the limit-element advance.

Functions take the hierarchy handle explicitly; it must provide classify,
predecessor, bracket and next_below. xd_minimal caches its sets on the
handle, one cache per instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError, InputError
from .memo import memoized
from .rationals import ExactRational, ONE
from .rules import contribution

Components = tuple[ExactRational, ...]


@dataclass(frozen=True)
class MinimalSet:
    x: ExactRational
    d: ExactRational
    floor: ExactRational
    delta: ExactRational
    p0_prime: ExactRational
    tuples: tuple[Components, ...]

    def __contains__(self, item) -> bool:
        return tuple(item) in self.tuples

    def __len__(self) -> int:
        return len(self.tuples)


def _p0_prime(hier, x: ExactRational, floor: ExactRational) -> ExactRational:
    """Largest member of [floor, 1] with strictly positive contribution."""
    if x == ONE or x / (ONE - x) > ONE:
        return ONE
    t = x / (ONE - x)
    f1, _ = hier.bracket(t)
    cand = hier.next_below(t) if f1 == t else f1
    if cand < floor:
        raise ConsistencyError(f"no positive contribution above floor {floor} for x={x}")
    return cand


def _smallest_with_contribution_at_most(hier, x, floor, bound):
    """Smallest member y >= floor with x/y + x - 1 <= bound, or None."""
    if bound + ONE - x <= 0:
        return None
    threshold = x / (bound + ONE - x)
    lo = max(floor, threshold)
    if lo > ONE:
        return None
    _, f2 = hier.bracket(lo)
    return f2


def find_smallest(hier, P: MinimalSet, x: ExactRational, d: ExactRational):
    """Smallest achievable contribution total strictly above d.

    Candidates come from P's tuples two ways: lower one coordinate to the
    next member below it (staying at or above the floor), or append the
    cheapest positive contributor. The empty tuple always participates,
    so an empty P still offers its one-element extension at delta.
    Returns None when no candidate exceeds d.
    """
    best = None
    pool = list(P.tuples) + [()]
    for T in pool:
        total = sum((contribution(x, p) for p in T), start=ExactRational(0))
        for j, p_j in enumerate(T):
            lower = hier.next_below(p_j)
            if lower < P.floor:
                continue
            d1 = total - contribution(x, p_j) + contribution(x, lower)
            if d1 > d and (best is None or d1 < best):
                best = d1
        d2 = total + P.delta
        if d2 > d and (best is None or d2 < best):
            best = d2
    return best


def _check_budget(hier, x, d, floor) -> None:
    if not (isinstance(x, ExactRational) and isinstance(d, ExactRational)):
        raise InputError(
            f"expected exact rationals, got {type(x).__name__} and {type(d).__name__}"
        )
    if d.numerator < 0 or d > x:
        raise InputError(f"budget d must lie in [0, x]: d={d}, x={x}")


@memoized(_check_budget)
def xd_minimal(hier, x: ExactRational, d: ExactRational, floor: ExactRational) -> MinimalSet:
    """Compute an (x, d)-minimal set over components in [floor, 1].

    The walk visits candidate smallest components y in increasing member
    order; each visit recurses on the leftover budget d - c(x, y) and
    either records the singleton (leftover below delta) or extends every
    tuple of the recursive set by y. Successor y's advance by one member;
    limit y's jump to the smallest member whose contribution fits under
    d minus the next achievable total of the inner set.
    """
    p0p = _p0_prime(hier, x, floor)
    delta = contribution(x, p0p)
    if delta <= 0:
        raise ConsistencyError(f"delta must be positive, got {delta}")

    collected: list[Components] = []
    if d >= delta:
        y = _smallest_with_contribution_at_most(hier, x, floor, d)
        if y is None:
            raise ConsistencyError("no starting component despite d >= delta")
        prev_y = None
        while contribution(x, y) > 0:
            if prev_y is not None and not y > prev_y:
                raise ConsistencyError("component walk failed to advance")
            c = contribution(x, y)
            d_rest = d - c
            if d_rest > d - delta:
                raise ConsistencyError("recursive budget must drop by at least delta")
            inner = xd_minimal(hier, x, d_rest, floor)
            if not inner.tuples:
                collected.append((y,))
            else:
                for T in inner.tuples:
                    collected.append(tuple(sorted((y,) + T)))
            cls = hier.classify(y)
            prev_y = y
            if cls.name == "MAXIMAL":
                break
            if cls.name == "SUCCESSOR":
                y = hier.predecessor(y)
            else:
                nxt_total = find_smallest(hier, inner, x, d_rest)
                if nxt_total is None:
                    break
                y = _smallest_with_contribution_at_most(hier, x, floor, d - nxt_total)
                if y is None:
                    break

    canonical = tuple(sorted(set(collected), key=lambda T: (len(T), T)))
    return MinimalSet(x=x, d=d, floor=floor, delta=delta, p0_prime=p0p, tuples=canonical)


def prune_dominated(tuples) -> tuple[Components, ...]:
    """Antichain view: drop tuples dominated from below by another of equal length."""
    kept = []
    items = sorted(set(tuple(t) for t in tuples), key=lambda T: (len(T), T))
    for T in items:
        dominated = any(
            len(S) == len(T) and S != T and all(a <= b for a, b in zip(S, T))
            for S in items
        )
        if not dominated:
            kept.append(T)
    return tuple(kept)


def component_pool(P: MinimalSet) -> tuple[ExactRational, ...]:
    """Sorted distinct components across all tuples of P."""
    seen = set()
    for T in P.tuples:
        seen.update(T)
    return tuple(sorted(seen))
