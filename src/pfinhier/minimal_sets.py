"""Allowed tuples and (x, d)-minimal sets.

A tuple of members drawn from the slice [floor, 1] of the hierarchy is
(x, d)-allowed when its per-component contributions x/p + x - 1 are all
positive and sum to at most d. The minimal-set builder returns a finite
set of allowed tuples such that every allowed tuple is dominated from
below, coordinatewise, by a stored tuple of the same length; this is the
finite search space behind membership classification and predecessors.

The walk behind xd_minimal visits candidate smallest components upward
and recurses on the remaining budget; at a limit component it asks
find_smallest for the least total above the inner budget among one-step
changes of the inner set's tuples, and jumps past it.

Functions take the hierarchy handle explicitly; it must provide classify,
predecessor, bracket, next_below and _key. Each handle keeps one budget
table per (x, floor): the pair (p0', delta) that every budget of that x
shares, and the sets found so far, each stored once for the whole
interval [lo, hi) of budgets that yields it (see xd_minimal).

The arithmetic is exact and integer-based: the walk keeps budgets,
contributions and interval ends as integer numerator/denominator pairs
and compares by cross-multiplication. Only the public xd_minimal and
find_smallest build Fractions, for their answers. Budgets below delta
admit no tuple and return the empty set before any table lookup.

Inside the table and the walk a tuple is stored as its exact sort key:
the tuple of its members' keys (float, member), each built once by the
handle's intern table (Hierarchy._key). The walk inserts a component
into an ascending keyed tuple by bisection and orders a set as
(length, keyed tuple) pairs with a plain sort, which compares floats and
falls back to the exact members only when two floats tie. The public
xd_minimal strips the keys once per call; the walk strips them only to
hand an inner set to find_smallest's integer step at a limit jump.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import gcd
from operator import itemgetter

from .errors import ConsistencyError, InputError
from .memo import memoized
from .rationals import ExactRational, ONE
from .rules import contribution, reciprocal_sum

Components = tuple[ExactRational, ...]
# a tuple of members as its exact sort key: each member's (float, member)
Keyed = tuple[tuple[float, ExactRational], ...]


class MinimalSet:
    """An (x, d)-minimal set. lo is the largest contribution total among
    its tuples (0 when there are none) and hi the next achievable total
    above lo; every budget in [lo, hi) has the same set.

    Read-only: its fields cannot be assigned. len and in count and test
    its tuples. Two sets are equal when all their fields are.
    """

    __slots__ = ("x", "d", "floor", "delta", "p0_prime", "tuples", "lo", "hi")

    x: ExactRational
    d: ExactRational
    floor: ExactRational
    delta: ExactRational
    p0_prime: ExactRational
    tuples: tuple[Components, ...]
    lo: ExactRational
    hi: ExactRational

    def __init__(self, x, d, floor, delta, p0_prime, tuples, lo, hi):
        values = x, d, floor, delta, p0_prime, tuples, lo, hi
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a MinimalSet")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a MinimalSet")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"MinimalSet({fields})"

    def __contains__(self, item) -> bool:
        return tuple(item) in self.tuples

    def __len__(self) -> int:
        return len(self.tuples)


def _stripped(keyed: tuple[Keyed, ...]) -> tuple[Components, ...]:
    """The member tuples behind keyed tuples."""
    member = itemgetter(1)
    return tuple(tuple(map(member, K)) for K in keyed)


def _reduced(n: int, d: int) -> tuple[int, int]:
    g = gcd(n, d)
    return n // g, d // g


class _BudgetTable:
    """What every budget of one (x, floor) shares, and the sets found so far.

    entries ascend by lo and hold (lo_n, lo_d, hi_n, hi_d, keyed): the
    set for every budget in [lo, hi), both ends as reduced integer pairs.
    keyed holds the set's tuples as their sort keys only (see the module
    docstring), distinct and in (length, components) order; no member
    tuple is stored beside them. The intervals are disjoint. lows[i] is
    the float of entries[i]'s lo, for bisection.
    """

    __slots__ = ("x", "floor", "p0_prime", "delta", "lows", "entries")

    def __init__(self, x, floor, p0_prime: ExactRational, delta: ExactRational):
        self.x = x
        self.floor = floor
        self.p0_prime = p0_prime
        self.delta = delta
        self.lows: list[float] = []
        self.entries: list[tuple] = []

    def _last_at_or_below(self, vn: int, vd: int) -> int:
        """Index of the last entry whose lo is <= vn/vd, or -1."""
        i = bisect_right(self.lows, vn / vd) - 1
        entries = self.entries
        # floats of distinct values can tie (see ascending_key): step back
        # past entries that sort with v's float but exceed v
        while i >= 0 and entries[i][0] * vd > vn * entries[i][1]:
            i -= 1
        return i

    def lookup(self, dn: int, dd: int):
        """The entry whose interval holds dn/dd, or None."""
        i = self._last_at_or_below(dn, dd)
        if i < 0:
            return None
        entry = self.entries[i]
        if dn * entry[3] >= entry[2] * dd:  # d >= hi
            return None
        return entry

    def record(self, dn: int, dd: int, entry) -> None:
        """Store the entry walked at dn/dd, whose interval must hold it and
        meet no stored one."""
        lo_n, lo_d, hi_n, hi_d, keyed = entry
        if lo_n * dd > dn * lo_d or dn * hi_d >= hi_n * dd:
            raise ConsistencyError(
                f"budget {dn}/{dd} lies outside its walked interval [{lo_n}/{lo_d}, {hi_n}/{hi_d})"
            )
        entries = self.entries
        i = self._last_at_or_below(lo_n, lo_d)
        if i >= 0:
            prev = entries[i]
            if prev[0] * lo_d == lo_n * prev[1] and prev[4] != keyed:
                raise ConsistencyError(f"budgets walked at lo {lo_n}/{lo_d} differ in their sets")
            if prev[2] * lo_d > lo_n * prev[3]:
                raise ConsistencyError(f"the interval walked at {dn}/{dd} meets a stored one")
        if i + 1 < len(entries) and entries[i + 1][0] * hi_d < hi_n * entries[i + 1][1]:
            raise ConsistencyError(f"the interval walked at {dn}/{dd} meets a stored one")
        entries.insert(i + 1, entry)
        self.lows.insert(i + 1, lo_n / lo_d)


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
    return _BudgetTable(x, floor, p0p, delta)


def _smallest_with_contribution_at_most(hier, x, floor, bn: int, bd: int):
    """Smallest member y >= floor with x/y + x - 1 <= bn/bd, and the member
    just below y, or None when that one lies under the floor.

    The walk asks only for bounds of at least delta, which p0' meets.
    """
    xn, xd = x.numerator, x.denominator
    # bound + 1 - x = a / (bd*xd), so the threshold x/(bound + 1 - x) is xn*bd / a
    a = (bn + bd) * xd - xn * bd
    tn = xn * bd
    if a <= 0 or tn > a:  # the threshold is negative or exceeds 1
        raise ConsistencyError(f"no component fits the bound {bn}/{bd} >= delta")
    if floor.numerator * a >= tn * floor.denominator:
        # every member from the floor up fits; none below it counts
        return hier.bracket(floor)[1], None
    below, y = hier.bracket(ExactRational(tn, a))
    if below == y:  # the threshold is a member
        below = hier.next_below(y)
    return y, (below if below >= floor else None)


def find_smallest(hier, P: MinimalSet, x: ExactRational, d: ExactRational):
    """Least total above d among one-step changes of P's tuples.

    Each tuple of P, and the empty tuple, offers two kinds of change:
    lower one coordinate to the next member below it (staying at or above
    the floor), or append the cheapest positive contributor p0'. Returns
    the least total of these changes that exceeds d, or None when none
    does. An empty P still offers its one-element extension at delta.

    This is not the least achievable total above d. At x = 5/12 and
    d = 1/12, P holds the one tuple (2/3, 2/3), and this returns 1/8,
    while the singleton (3/5) reaches 1/9.
    """
    table = _budget_table(hier, x, P.floor)
    t = _next_total(hier, table, P.tuples, d.numerator, d.denominator)
    return None if t is None else ExactRational(*t)


def _next_total(hier, table: _BudgetTable, tuples, rn: int, rd: int):
    """find_smallest on integer pairs: the least total above rn/rd among
    one-step changes of the tuples, as a reduced pair, or None."""
    x, floor = table.x, table.floor
    xn, xd = x.numerator, x.denominator
    en, ed = table.delta.numerator, table.delta.denominator
    best_n, best_d = 1, 0  # +infinity until the first candidate
    for T in tuples + ((),):
        # k components whose reciprocals sum to sn/sd total
        # (xn*sn + k*(xn - xd)*sd) / (xd*sd)
        k = len(T)
        sn, sd = reciprocal_sum(T)
        tn, td = xn * sn + k * (xn - xd) * sd, xd * sd
        candidates = [(tn * ed + en * td, td * ed)]  # append p0'
        for p in T:
            q = hier.next_below(p)
            if q < floor:
                continue
            # swap 1/p for 1/q in the reciprocal sum
            pn, pd, qn, qd = p.numerator, p.denominator, q.numerator, q.denominator
            wn = (sn * pn - sd * pd) * qn + sd * pn * qd
            wd = sd * pn * qn
            candidates.append((xn * wn + k * (xn - xd) * wd, xd * wd))
        for cn, cd in candidates:
            if cn * rd > rn * cd and cn * best_d < best_n * cd:
                best_n, best_d = cn, cd
    if best_d == 0:
        return None
    return _reduced(best_n, best_d)


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
    d minus t, t = find_smallest of the inner set.

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
       one-step total t. Each choice compares d with an achievable total
       (a singleton, an inner total plus c(x, y), t plus c(x, y')), so
       none changes while d stays in an interval free of them. By
       induction on the recursion, whose budget drops by at least delta
       per level, budgets that allow the same tuples walk to the same set.
    3. The walk also finds hi, the least budget above d at which one of
       its choices would change: the minimum of
       (a) c(x, m) for the member m just below the first component, the
           budget at which m's singleton fits (none if m lies under the
           floor);
       (b) c(x, y) + hi(inner) for each visited y, the budget at which
           the inner set changes; an empty inner set ends at delta;
       (c) for each limit jump, t + c(x, m') for the member m' just below
           y' (none under the floor), or t + delta if no member fits
           beside t and the walk stops there. t itself holds while the
           inner budget stays below hi(inner): the one-step totals are
           achievable, and by induction none lies in
           (lo(inner), hi(inner)).
       Each is an achievable total above d (by induction for hi(inner)),
       and so is hi. Every budget in [d, hi) walks to the same set, so
       by 1 no achievable total lies in (lo, hi): hi is the least
       achievable total above lo.

    So the set stored for d answers exactly the budgets in [lo, hi).
    The table of (x, floor) keeps one entry [lo, hi) per set, and the
    entries are disjoint. A budget inside one is answered without walking;
    any other is walked once, and its entry is inserted. lo and hi are
    summed during the walk, in integers: lo as max over y of
    c(x, y) + lo(inner), hi as the minimum above. Inner budgets recurse
    on integer pairs, past this function's guard.
    """
    _check_budget(x, d, floor)
    table = _budget_table(hier, x, floor)
    lo_n, lo_d, hi_n, hi_d, keyed = _minimal(hier, table, d.numerator, d.denominator)
    return MinimalSet(
        x=x, d=d, floor=floor, delta=table.delta, p0_prime=table.p0_prime,
        tuples=_stripped(keyed),
        lo=ExactRational(lo_n, lo_d), hi=ExactRational(hi_n, hi_d),
    )


def _minimal(hier, table: _BudgetTable, dn: int, dd: int):
    """The entry (lo_n, lo_d, hi_n, hi_d, keyed) answering budget dn/dd."""
    x, delta = table.x, table.delta
    if dn < 0 or dn * x.denominator > x.numerator * dd:
        raise ConsistencyError(f"budget {dn}/{dd} left [0, {x}]")
    en, ed = delta.numerator, delta.denominator
    if dn * ed < en * dd:
        return 0, 1, en, ed, ()  # d < delta: no component fits
    entry = table.lookup(dn, dd)
    if entry is None:
        entry = _walk(hier, table, dn, dd)
        table.record(dn, dd, entry)
    return entry


def _walk(hier, table: _BudgetTable, dn: int, dd: int):
    """The walk of xd_minimal at d = dn/dd >= delta: (lo_n, lo_d, hi_n, hi_d, keyed)."""
    from .hierarchy import Classification  # import cycle: hierarchy imports this module

    x, floor = table.x, table.floor
    xn, xd = x.numerator, x.denominator
    en, ed = table.delta.numerator, table.delta.denominator
    collected: list[tuple[int, Keyed]] = []  # (length, keyed tuple)
    lo_n, lo_d = 0, 1
    hi_n, hi_d = 1, 0  # +infinity until the first threshold

    def lower_hi(tn, td):
        nonlocal hi_n, hi_d
        if tn * hi_d < hi_n * td:
            hi_n, hi_d = tn, td

    def lower_hi_by(tn, td, m):
        """Lower hi to t + c(x, m) for the member m below a chosen component."""
        if m is not None:
            mn, md = m.numerator, m.denominator
            cd = xd * mn
            lower_hi(tn * cd + (xn * (md + mn) - cd) * td, td * cd)

    y, below = _smallest_with_contribution_at_most(hier, x, floor, dn, dd)
    lower_hi_by(0, 1, below)  # (a)
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
        rn, rd = _reduced(dn * cd - cn * dd, dd * cd)
        iln, ild, ihn, ihd, inner = _minimal(hier, table, rn, rd)
        yk = hier._key(y)
        if not inner:
            collected.append((1, (yk,)))
        for K in inner:
            # y ahead of its equals, as sorted((y,) + T) would place it
            i = bisect_left(K, yk)
            collected.append((len(K) + 1, K[:i] + (yk,) + K[i:]))
        # the largest total through y: c(x, y) + lo(inner)
        tn, td = cn * ild + iln * cd, cd * ild
        if tn * lo_d > lo_n * td:
            lo_n, lo_d = tn, td
        lower_hi(cn * ihd + ihn * cd, cd * ihd)  # (b)
        cls = hier.classify(y)
        prev_y = y
        if cls is Classification.MAXIMAL:
            break
        if cls is Classification.SUCCESSOR:
            y = hier.predecessor(y)
        else:
            t = _next_total(hier, table, _stripped(inner), rn, rd)
            if t is None:
                break
            tn, td = t
            bn, bd = dn * td - tn * dd, dd * td  # d - t
            if bn * ed < en * bd:  # no member fits beside t
                lower_hi(tn * ed + en * td, td * ed)  # (c)
                break
            y, below = _smallest_with_contribution_at_most(hier, x, floor, bn, bd)
            lower_hi_by(tn, td, below)  # (c)

    # distinct tuples ordered by (length, components); equal tuples sort adjacent
    collected.sort()
    keyed = []
    for _, K in collected:
        if not keyed or K != keyed[-1]:
            keyed.append(K)
    return (*_reduced(lo_n, lo_d), *_reduced(hi_n, hi_d), tuple(keyed))


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
