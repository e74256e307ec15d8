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
predecessor, bracket and next_below. Each handle keeps one budget table
per (x, floor): the pair (p0', delta) that every budget of that x shares,
and the sets found so far, each stored once for the whole interval of
budgets that yields it (see xd_minimal).

The arithmetic is exact and integer-based: the walk keeps each
contribution as an integer numerator/denominator pair and compares by
cross-multiplication, building a Fraction only for the recursive budget
and for each stored set's largest total. Budgets below delta admit no
tuple and return the empty set before any table lookup.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .errors import ConsistencyError, InputError
from .memo import memoized
from .rationals import ExactRational, ONE, ZERO, ascending_key
from .rules import contribution

Components = tuple[ExactRational, ...]


@dataclass(frozen=True)
class MinimalSet:
    """An (x, d)-minimal set; lo is the largest contribution total among
    its tuples (0 when there are none), and every budget in [lo, d] has
    the same set."""

    x: ExactRational
    d: ExactRational
    floor: ExactRational
    delta: ExactRational
    p0_prime: ExactRational
    tuples: tuple[Components, ...]
    lo: ExactRational

    def __contains__(self, item) -> bool:
        return tuple(item) in self.tuples

    def __len__(self) -> int:
        return len(self.tuples)


def _canonical_key(T: Components):
    return len(T), tuple(map(ascending_key, T))


def with_component(T: Components, y: ExactRational) -> Components:
    """The ascending tuple T with y inserted ahead of its equals, as sorted((y,) + T) would."""
    yn, yd = y.numerator, y.denominator
    for i, c in enumerate(T):
        if yn * c.denominator <= c.numerator * yd:
            return T[:i] + (y,) + T[i:]
    return T + (y,)


class _BudgetTable:
    """What every budget of one (x, floor) shares, and the sets found so far.

    entries ascend by lo and hold (lo, dmax, tuples): the set for every
    budget in [lo, dmax]. lows[i] is the float of entries[i]'s lo, for
    bisection.
    """

    __slots__ = ("p0_prime", "delta", "lows", "entries")

    def __init__(self, p0_prime: ExactRational, delta: ExactRational):
        self.p0_prime = p0_prime
        self.delta = delta
        self.lows: list[float] = []
        self.entries: list[tuple] = []

    def _last_at_or_below(self, v: ExactRational) -> int:
        """Index of the last entry whose lo is <= v, or -1."""
        vn, vd = v.numerator, v.denominator
        i = bisect_right(self.lows, vn / vd) - 1
        entries = self.entries
        # floats of distinct values can tie (see ascending_key): step back
        # past entries that sort with v's float but exceed v
        while i >= 0 and entries[i][0].numerator * vd > vn * entries[i][0].denominator:
            i -= 1
        return i

    def lookup(self, d: ExactRational):
        """(tuples, lo) of the entry whose interval holds d, or None."""
        i = self._last_at_or_below(d)
        if i < 0:
            return None
        lo, dmax, tuples = self.entries[i]
        if d.numerator * dmax.denominator > dmax.numerator * d.denominator:
            return None
        return tuples, lo

    def record(self, d: ExactRational, tuples, lo: ExactRational) -> None:
        """Store the set walked at d: widen the entry with lo, or add one."""
        i = self._last_at_or_below(lo)
        if i >= 0 and self.entries[i][0] == lo:
            if self.entries[i][2] != tuples:
                raise ConsistencyError(
                    f"budgets {self.entries[i][1]} and {d} share lo {lo} but not their sets"
                )
            self.entries[i] = (lo, d, self.entries[i][2])
        else:
            self.entries.insert(i + 1, (lo, d, tuples))
            self.lows.insert(i + 1, lo.numerator / lo.denominator)


@memoized(lambda hier, x, floor: None)  # called by xd_minimal after its guard
def _budget_table(hier, x: ExactRational, floor: ExactRational) -> _BudgetTable:
    """The table of (x, floor), with (p0', delta): the largest member of
    [floor, 1] with strictly positive contribution, and that contribution,
    the least any component adds."""
    xn, xd = x.numerator, x.denominator
    if 2 * xn > xd:  # x == 1 or x/(1-x) > 1
        p0p = ONE
    else:
        t = ExactRational(xn, xd - xn)
        f1, _ = hier.bracket(t)
        p0p = hier.next_below(t) if f1 == t else f1
        if p0p < floor:
            raise ConsistencyError(f"no positive contribution above floor {floor} for x={x}")
    delta = contribution(x, p0p)
    if delta <= 0:
        raise ConsistencyError(f"delta must be positive, got {delta}")
    return _BudgetTable(p0p, delta)


def _smallest_with_contribution_at_most(hier, x, floor, bound):
    """Smallest member y >= floor with x/y + x - 1 <= bound, or None."""
    xn, xd = x.numerator, x.denominator
    bn, bd = bound.numerator, bound.denominator
    # bound + 1 - x = a / (bd*xd), so the threshold x/(bound + 1 - x) is xn*bd / a
    a = (bn + bd) * xd - xn * bd
    if a <= 0:
        return None
    tn = xn * bd
    if floor.numerator * a >= tn * floor.denominator:
        lo = floor
    else:
        lo = ExactRational(tn, a)
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


def _check_budget(x, d, floor) -> None:
    if not (
        isinstance(x, ExactRational) and isinstance(d, ExactRational)
        and isinstance(floor, ExactRational)
    ):
        raise InputError(
            "expected exact rationals, got "
            f"{type(x).__name__}, {type(d).__name__} and {type(floor).__name__}"
        )
    dn = d.numerator
    if dn < 0 or dn * x.denominator > x.numerator * d.denominator:
        raise InputError(f"budget d must lie in [0, x]: d={d}, x={x}")


def xd_minimal(hier, x: ExactRational, d: ExactRational, floor: ExactRational) -> MinimalSet:
    """Compute an (x, d)-minimal set over components in [floor, 1].

    The walk visits candidate smallest components y in increasing member
    order; each visit recurses on the leftover budget d - c(x, y) and
    either records the singleton (leftover below delta) or extends every
    tuple of the recursive set by y. Successor y's advance by one member;
    limit y's jump to the smallest member whose contribution fits under
    d minus the next achievable total of the inner set.

    One walk answers a whole interval of budgets. Call a total achievable
    when some tuple of members in [floor, 1], each with a positive
    contribution, reaches it; budget d allows the tuples whose total is
    at most d. Let lo be the largest total among the tuples stored for d.

    1. No achievable total lies in (lo, d]. A tuple allowed at d is
       dominated from below by a stored tuple of the same length, and
       c(x, p) falls as p rises, so its total is at most the stored
       tuple's, which is at most lo. So every budget in [lo, d] allows
       the same tuples as d.
    2. The walk depends on d only through the tuples d allows. Its first
       component is the smallest member whose singleton fits; the inner
       budget d - c(x, y) allows exactly the tuples that fit beside y;
       a limit jump compares d - c(x, y) with totals of inner tuples and
       then picks the smallest member y' with c(x, y') <= d - t for the
       next total t. Each choice compares d with an achievable total
       (a singleton, an inner total plus c(x, y), t plus c(x, y')), so
       none changes while d stays in an interval free of them. By
       induction on the recursion, whose budget drops by at least delta
       per level, budgets that allow the same tuples walk to the same set.

    So the set stored for a walked budget dmax answers every budget in
    [lo, dmax]. The table of (x, floor) keeps one entry [lo, dmax] per
    set, dmax the largest budget walked to it, and answers any budget in
    an entry's interval without walking; a budget outside them is walked
    and widens the entry with its lo or adds one. lo is summed during the
    walk, in integers, as max over y of c(x, y) + lo(inner).
    """
    _check_budget(x, d, floor)
    table = _budget_table(hier, x, floor)
    delta = table.delta
    if d.numerator * delta.denominator < delta.numerator * d.denominator:
        tuples, lo = (), ZERO  # d < delta: no component fits
    else:
        found = table.lookup(d)
        if found is None:
            found = _walk(hier, table, x, d, floor)
            table.record(d, *found)
        tuples, lo = found
    return MinimalSet(
        x=x, d=d, floor=floor, delta=delta, p0_prime=table.p0_prime, tuples=tuples, lo=lo
    )


def _walk(hier, table: _BudgetTable, x, d, floor):
    """The walk of xd_minimal at d >= delta: (tuples, lo)."""
    from .hierarchy import Classification  # import cycle: hierarchy imports this module

    xn, xd = x.numerator, x.denominator
    dn, dd = d.numerator, d.denominator
    en, ed = table.delta.numerator, table.delta.denominator
    collected: list[Components] = []
    lo_n, lo_d = 0, 1
    y = _smallest_with_contribution_at_most(hier, x, floor, d)
    if y is None:
        raise ConsistencyError("no starting component despite d >= delta")
    prev_y = None
    while True:
        # c(x, y) = x/y + x - 1 = cn/cd with cd > 0
        yn, yd = y.numerator, y.denominator
        cd = xd * yn
        cn = xn * (yd + yn) - cd
        if cn <= 0:
            break
        if prev_y is not None and yn * prev_y.denominator <= prev_y.numerator * yd:
            raise ConsistencyError("component walk failed to advance")
        if cn * ed < en * cd:  # c < delta, so d - c > d - delta
            raise ConsistencyError("recursive budget must drop by at least delta")
        d_rest = ExactRational(dn * cd - cn * dd, dd * cd)
        inner = xd_minimal(hier, x, d_rest, floor)
        if not inner.tuples:
            collected.append((y,))
        else:
            for T in inner.tuples:
                collected.append(with_component(T, y))
        # the largest total through y: c(x, y) + lo(inner)
        iln, ild = inner.lo.numerator, inner.lo.denominator
        tn, td = cn * ild + iln * cd, cd * ild
        if tn * lo_d > lo_n * td:
            lo_n, lo_d = tn, td
        cls = hier.classify(y)
        prev_y = y
        if cls is Classification.MAXIMAL:
            break
        if cls is Classification.SUCCESSOR:
            y = hier.predecessor(y)
        else:
            nxt_total = find_smallest(hier, inner, x, d_rest)
            if nxt_total is None:
                break
            y = _smallest_with_contribution_at_most(hier, x, floor, d - nxt_total)
            if y is None:
                break

    # distinct tuples ordered by (length, components); equal tuples sort adjacent
    collected.sort(key=_canonical_key)
    canonical = tuple(
        T for i, T in enumerate(collected) if i == 0 or T != collected[i - 1]
    )
    return canonical, ExactRational(lo_n, lo_d)


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
