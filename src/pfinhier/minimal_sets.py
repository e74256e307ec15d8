"""Allowed tuples and (x, d)-minimal sets.

A tuple of members drawn from the slice [floor, 1] of the hierarchy is
(x, d)-allowed when its per-component contributions x/p + x - 1 are all
positive and sum to at most d. The minimal-set builder returns a finite
set of allowed tuples that covers them: below each allowed k-tuple,
coordinatewise, lie the k smallest components of some stored tuple, which
can be longer: sets skip lengths. At x = 5/12, d = 1/12 the set
is {(2/3, 2/3)}, though (2/3,) is allowed. This is the finite search
space behind membership classification and predecessors.
The floor is always the governing floor of x, so Hierarchy.xd_minimal(x, d)
is the one public way to a set.

The walk behind it visits candidate smallest components upward and
recurses on the remaining budget; at a limit component it asks
find_smallest for the least total above the inner budget among one-step
changes of the inner set's tuples, and jumps past it.

Functions take the hierarchy handle explicitly; it must provide its
guard (_check), _around (the members on either side of a threshold),
next_below, governing_floor, its interned members (_member) and the
member records (_record, _classified, _lowered) through which the walk
steps unguarded. The record of each x keeps one budget table: the floor
and (p0', delta) that every budget of that x shares, and each set found,
stored once for the whole interval [lo, hi) of budgets that yields it
(see _build_set).

The arithmetic is exact and integer-based: the walk keeps budgets,
contributions and interval ends as integer numerator/denominator pairs
and compares by cross-multiplication. Only the builder of public sets,
find_smallest and the three readers of (x, x) entries below build
Fractions, for their answers. Budgets below delta admit no tuple and
return the empty set before any table lookup.

Inside the table a tuple is stored as its exact sort key: the tuple of
its members' keys (float, member), each built once by the handle's
intern table (Hierarchy._record); only public sets strip the keys.

The walk records only what it decides: each entry's interval [lo, hi),
its visits (for each visited y, the key of y and the inner entry whose
tuples y extends), its at-lo visits, those where c(x, y) + lo(inner)
is its lo, and the longest length among its candidates for hi (see
_build_set). The rest is derived from the visits when first read, then
kept: the keyed tuples (_keyed), which limit jumps and public sets read,
and the prefix sums (_best): for each length k, the largest reciprocal
sum of the k smallest components of a stored tuple, over the tuples of
at least k components. The prefix of a tuple has the largest reciprocal
sum among its k-component subsets, so y joined to an inner tuple T has
the k-prefix sum max(P_k(T), 1/y + P_(k-1)(T)), P_0 = 0, a fold over
the visits (_fold). _extended builds tuples from visits: it inserts y
into each inner keyed tuple by bisection, collects the results in one
bucket per length, and sorts each bucket with a plain sort, which
compares floats and falls back to the exact members only when two
floats tie, then drops adjacent repeats (_ordered).

Hierarchy reads a stored (x, x) entry (_xx_entry) through three calls
alone, none of which builds all of its tuples or sums one:

- _generators, for classify and limit_sequence: the stored generators
  of x, empty unless lo = x. A tuple sits at lo exactly when it extends
  an inner tuple at lo(inner) through an at-lo visit, so _tuples_at_lo
  expands the at-lo visits alone;
- _least_own, for predecessor: the least own value above a successor
  x, from the prefix sums of the prefixes below lo, which _best_below_lo
  finds by following the at-lo visits;
- _climb_start, for the climb behind bracket and next_below: the pool
  of a tuple that totals the entry's hi (Hierarchy._straddle).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum
from math import gcd
from operator import itemgetter

from .errors import ConsistencyError, InputError
from .rationals import ExactRational, ONE
from .rules import contribution


# what Hierarchy.classify answers; defined here, where the walk reads it
class Classification(Enum):
    MAXIMAL = "MAX"
    SUCCESSOR = "SUCC"
    LIMIT = "LIM"
    NOT_MEMBER = "NONE"


MAXIMAL, SUCCESSOR = Classification.MAXIMAL, Classification.SUCCESSOR
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


def reciprocal_sum(K: Keyed) -> tuple[int, int]:
    """The sum of the reciprocals of a keyed tuple's members, as an
    unreduced integer pair (num, den), den > 0, read from the slots."""
    num, den = 0, 1
    for _, p in K:
        pn = p._numerator
        num, den = num * pn + den * p._denominator, den * pn
    return num, den


def _ordered(buckets: dict[int, list[Keyed]]) -> tuple[Keyed, ...]:
    """The distinct keyed tuples of buckets, which maps a length to the
    tuples of that length, in (length, components) order.

    A plain sort of a bucket compares floats and falls back to the exact
    members only when two floats tie; equal tuples sort adjacent.
    """
    keyed = []
    for n in sorted(buckets):
        bucket = buckets[n]
        bucket.sort()
        prev = None
        for K in bucket:
            if K != prev:
                keyed.append(K)
                prev = K
    return tuple(keyed)


class _BudgetTable:
    """What every budget of one x shares, and the sets found so far.

    entries ascend by lo and each is the list
    [lo_n, lo_d, hi_n, hi_d, visits, at_lo, best, keyed, hi_k]: the set
    for every budget in [lo, hi), both ends as reduced integer pairs.
    visits holds the walk's visits flat, as key of y, inner entry, and so
    on, and at_lo those of them whose total is lo, in the same form.
    best and keyed are None until first read (_best, _keyed): best holds
    a triple (k, num, den) for each length k among the set's tuples,
    num/den, an unreduced integer pair, the largest reciprocal sum of the
    k smallest components of a tuple (its prefix sum); keyed the tuples'
    sort keys, distinct and in (length, components) order. hi_k is the
    longest length among the tuples whose total the walk took as hi.

    The intervals are disjoint and nonempty; every budget below delta
    shares the entry empty, which has no tuples and no visits: it stands
    for the empty tuple when a visit extends it, so it has no prefix sum
    of a positive length, and p0' alone reaches its hi, delta (hi_k 1).
    lows[i] is the float of entries[i]'s lo, for bisection.
    """

    __slots__ = ("x", "floor", "p0_prime", "delta", "empty", "lows", "entries")

    def __init__(self, x, floor, p0_prime: ExactRational, delta: ExactRational):
        self.x, self.floor, self.p0_prime, self.delta = x, floor, p0_prime, delta
        self.empty = [0, 1, delta._numerator, delta._denominator, (), (), (), (), 1]
        self.lows: list[float] = []
        self.entries: list[list] = []

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
        meet no stored one. So every stored interval is nonempty, and an
        entry walked at a stored lo meets the entry stored there."""
        lo_n, lo_d, hi_n, hi_d, *_ = entry
        if lo_n * dd > dn * lo_d or dn * hi_d >= hi_n * dd:
            raise ConsistencyError(
                f"budget {dn}/{dd} lies outside its walked interval [{lo_n}/{lo_d}, {hi_n}/{hi_d})"
            )
        entries = self.entries
        i = self._last_at_or_below(lo_n, lo_d)
        if i >= 0 and entries[i][2] * lo_d > lo_n * entries[i][3]:
            raise ConsistencyError(f"the interval walked at {dn}/{dd} meets a stored one")
        if i + 1 < len(entries) and entries[i + 1][0] * hi_d < hi_n * entries[i + 1][1]:
            raise ConsistencyError(f"the interval walked at {dn}/{dd} meets a stored one")
        entries.insert(i + 1, entry)
        self.lows.insert(i + 1, lo_n / lo_d)


def _budget_table(hier, x: ExactRational) -> _BudgetTable:
    """The table of x over [floor, 1], floor its governing floor, with
    (p0', delta): the largest member of [floor, 1] with strictly positive
    contribution, and that contribution, the least any component adds.
    Built on first read and kept on x's record, past the caller's guard."""
    rec = hier._record(x)
    if rec.table is None:
        floor = hier.governing_floor(x)
        xn, xd = x.numerator, x.denominator
        if 2 * xn > xd:  # x == 1 or x/(1-x) > 1
            p0p = ONE
        else:
            p0p, _ = hier._around(xn, xd - xn)  # the last member below x/(1-x)
            if p0p < floor:
                raise ConsistencyError(f"no positive contribution above floor {floor} for x={x}")
        delta = contribution(x, p0p)
        if delta <= 0:
            raise ConsistencyError(f"delta must be positive, got {delta}")
        rec.table = _BudgetTable(x, floor, p0p, delta)
    return rec.table


def _smallest_with_contribution_at_most(hier, table: _BudgetTable, bn: int, bd: int):
    """Smallest member y >= floor with x/y + x - 1 <= bn/bd, and the member
    just below y, or None when that one lies under the floor; x and floor
    are the table's.

    The walk asks only for bounds of at least delta, which p0' meets.
    """
    x, floor = table.x, table.floor
    xn, xd = x._numerator, x._denominator
    # bound + 1 - x = a / (bd*xd), so the threshold x/(bound + 1 - x) is xn*bd / a
    a = (bn + bd) * xd - xn * bd
    tn = xn * bd
    if a <= 0 or tn > a:  # the threshold is negative or exceeds 1
        raise ConsistencyError(f"no component fits the bound {bn}/{bd} >= delta")
    fn, fd = floor._numerator, floor._denominator
    if fn * a >= tn * fd:
        # every member from the floor up fits; none below it counts
        return hier._member(floor), None
    below, y = hier._around(tn, a)
    fits = below._numerator * fd >= fn * below._denominator
    return y, (below if fits else None)


def find_smallest(hier, P: MinimalSet):
    """Least total above P.d among one-step changes of P's tuples, priced
    at P.x.

    Each tuple of P, and the empty tuple, offers two kinds of change:
    lower one coordinate to the next member below it (staying at or above
    the floor), or append the cheapest positive contributor p0'. Returns
    the least total of these changes that exceeds P.d, or None when none
    does. An empty P still offers its one-element extension at delta.

    This is not the least achievable total above d. At x = 5/12 and
    d = 1/12, P holds the one tuple (2/3, 2/3), and this returns 1/8,
    while the singleton (3/5) reaches 1/9.
    """
    hier._check(P.x)
    table = _budget_table(hier, P.x)
    keyed = tuple(tuple(hier._record(p).key for p in T) for T in P.tuples)
    t = _next_total(hier, table, keyed, P.d.numerator, P.d.denominator)
    return None if t is None else ExactRational(t[0], t[1])


def _next_total(hier, table: _BudgetTable, keyed: tuple[Keyed, ...], rn: int, rd: int):
    """find_smallest on integer pairs and keyed tuples: the least total
    above rn/rd among one-step changes of the tuples, as a reduced pair,
    and the longest length of a change that reaches it; or None."""
    x, floor = table.x, table.floor
    xn, xd = x._numerator, x._denominator
    fn, fd = floor._numerator, floor._denominator
    en, ed = table.delta._numerator, table.delta._denominator
    next_below = hier.next_below
    best_n, best_d, best_k = 1, 0, 0  # +infinity until the first candidate
    for K in keyed + ((),):
        # k components whose reciprocals sum to sn/sd total
        # (xn*sn + k*(xn - xd)*sd) / (xd*sd)
        k = len(K)
        sn, sd = reciprocal_sum(K)
        tn, td = xn * sn + k * (xn - xd) * sd, xd * sd
        candidates = [(tn * ed + en * td, td * ed, k + 1)]  # append p0'
        for _, p in K:
            pn, pd = p._numerator, p._denominator
            if pn * fd == fn * pd:  # the member below the floor lies under it
                continue
            # the floor is a member below p, so q = next_below(p) >= floor
            q = next_below(p)
            qn, qd = q._numerator, q._denominator
            # swap 1/p for 1/q in the reciprocal sum
            wn = (sn * pn - sd * pd) * qn + sd * pn * qd
            wd = sd * pn * qn
            candidates.append((xn * wn + k * (xn - xd) * wd, xd * wd, k))
        for cn, cd, ck in candidates:
            if cn * rd > rn * cd:
                gap = cn * best_d - best_n * cd
                if gap < 0 or gap == 0 and ck > best_k:
                    best_n, best_d, best_k = cn, cd, ck
    if best_d == 0:
        return None
    g = gcd(best_n, best_d)
    return best_n // g, best_d // g, best_k


def _build_set(hier, x: ExactRational, d: ExactRational) -> MinimalSet:
    """The (x, d)-minimal set over components in [floor, 1], floor the
    governing floor of x, for an x that passed Hierarchy.xd_minimal's guard.

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

    1. No achievable total lies in (lo, d]. Below a k-tuple allowed at
       d lie the k smallest components of a stored tuple (the module
       docstring), and c(x, p) falls as p rises, so its total is at most
       theirs, which is at most the stored tuple's, which is at most lo.
       So every budget in [lo, d] allows the same tuples as d.
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

    Each candidate is the total of a tuple the walk can name: (a) the
    singleton m; (b) y joined to a tuple behind hi(inner), by induction;
    (c) the one-step change behind t joined to m', or to p0'. The entry
    keeps hi_k, the longest length among the candidates equal to hi, so
    a tuple of hi_k components over [floor, 1] totals hi; the climb start
    of Hierarchy._straddle pools it.

    So the set stored for d answers exactly the budgets in [lo, hi).
    The table of x keeps one entry [lo, hi) per set, and the
    entries are disjoint. A budget inside one is answered without walking;
    any other is walked once, and its entry is inserted. lo and hi are
    summed during the walk, in integers: lo as max over y of
    c(x, y) + lo(inner), hi as the minimum above. Inner budgets recurse
    on integer pairs, past this function's guard.
    """
    if not isinstance(d, ExactRational):
        raise InputError(f"expected an exact rational budget, got {type(d).__name__}")
    dn, dd = d.numerator, d.denominator
    if dn < 0 or dn * x.denominator > x.numerator * dd:
        raise InputError(f"budget d must lie in [0, x]: d={d}, x={x}")
    table = _budget_table(hier, x)
    entry = _minimal(hier, table, dn, dd)
    lo_n, lo_d, hi_n, hi_d, *_ = entry
    return MinimalSet(
        x=x, d=d, floor=table.floor, delta=table.delta, p0_prime=table.p0_prime,
        tuples=_stripped(_keyed(entry)),
        lo=ExactRational(lo_n, lo_d), hi=ExactRational(hi_n, hi_d),
    )


def _xx_entry(hier, x: ExactRational):
    """The table entry answering xd_minimal(x, x), for an x that already
    passed its caller's guard; no MinimalSet is built."""
    return _minimal(hier, _budget_table(hier, x), x._numerator, x._denominator)


def _climb_start(hier, x: ExactRational) -> ExactRational:
    """K x/(hi + K - x) for the (x, x) entry's hi and its longest candidate
    length K: the pool of a K-tuple totalling hi, the member below x that
    a climb to x starts from (see Hierarchy._straddle)."""
    _, _, hn, hd, _, _, _, _, k = _xx_entry(hier, x)
    xn, xd = x._numerator, x._denominator
    return ExactRational(k * xn * hd, hn * xd + (k * xd - xn) * hd)


def _extended(visits, inner_tuples) -> tuple[Keyed, ...]:
    """The keyed tuples of visits, flat (key of y, inner entry): y inserted
    into each of inner_tuples(inner), the empty entry standing for ()."""
    buckets: dict[int, list[Keyed]] = {}  # length -> keyed tuples of that length
    for yk, inner in zip(visits[::2], visits[1::2]):
        for K in inner_tuples(inner) if inner[4] else ((),):
            # y ahead of its equals, as sorted((y,) + T) would place it
            i = bisect_left(K, yk)
            buckets.setdefault(len(K) + 1, []).append(K[:i] + (yk,) + K[i:])
    return _ordered(buckets)


def _keyed(entry) -> tuple[Keyed, ...]:
    """The entry's keyed tuples: built from its visits on the first read,
    then kept in the entry (see the module docstring)."""
    keyed = entry[7]
    if keyed is None:
        keyed = entry[7] = _extended(entry[4], _keyed)
    return keyed


def _tuples_at_lo(entry, expanded: dict) -> tuple[Keyed, ...]:
    """The entry's keyed tuples at lo, in order, from its at-lo visits (see
    the module docstring); expanded, {} at first, caches inner entries' by id."""

    def at_lo(inner):
        if id(inner) not in expanded:
            expanded[id(inner)] = _tuples_at_lo(inner, expanded)
        return expanded[id(inner)]

    return _extended(entry[5], at_lo)


def _generators(hier, x: ExactRational) -> tuple[Keyed, ...]:
    """The stored generators of x, keyed, for an x past its caller's
    guard: the (x, x) entry's tuples at lo when lo = x, else none."""
    entry = _xx_entry(hier, x)
    if entry[0] != x._numerator or entry[1] != x._denominator:  # lo is reduced
        return ()
    return _tuples_at_lo(entry, {})


def _fold(best: dict, same, shorter, y: ExactRational, alone: bool) -> None:
    """Raise best, which maps a length to a (length, num, den) triple, to
    the triples of same as they are, to those of shorter with 1/y added,
    each one length longer, and, when alone, to the singleton sum 1/y."""
    for k, sn, sd in same:
        b = best.get(k)
        if b is None or sn * b[2] > b[1] * sd:
            best[k] = k, sn, sd
    yn, yd = y._numerator, y._denominator
    if alone:
        b = best.get(1)
        if b is None or yd * b[2] > b[1] * yn:
            best[1] = 1, yd, yn
    for k, sn, sd in shorter:
        n, d = sn * yn + sd * yd, sd * yn
        k += 1
        b = best.get(k)
        if b is None or n * b[2] > b[1] * d:
            best[k] = k, n, d


def _best(entry) -> tuple:
    """The entry's prefix sums: folded from its visits on the first read,
    then kept in the entry (see _BudgetTable)."""
    best = entry[6]
    if best is None:
        folded: dict = {}
        for yk, inner in zip(entry[4][::2], entry[4][1::2]):
            inner_best = _best(inner)
            _fold(folded, inner_best, inner_best, yk[1], True)
        best = entry[6] = tuple(folded.values())
    return best


def _best_below_lo(entry, below: dict) -> tuple:
    """For each length k, the largest reciprocal sum of the k smallest
    components of a stored tuple, over the prefixes whose total is below
    lo, as triples like best's; below, {} at first, caches inner entries'
    by id.

    A prefix sits at lo only when it is a whole tuple at lo. A tuple
    through an at-lo visit sits at lo exactly when it extends a tuple at
    lo(inner), so only the at-lo visits recurse, for the prefixes that
    hold y; the others, and those that skip y, read their inner best.
    The empty entry's stand-in () is its one tuple, at its lo, 0.
    """
    at_lo = {id(yk) for yk in entry[5][::2]}
    best: dict = {}
    visits = entry[4]
    for yk, inner in zip(visits[::2], visits[1::2]):
        inner_best = _best(inner)
        if id(yk) in at_lo:
            if id(inner) not in below:
                below[id(inner)] = _best_below_lo(inner, below)
            _fold(best, inner_best, below[id(inner)], yk[1], bool(inner[4]))
        else:
            _fold(best, inner_best, inner_best, yk[1], True)
    return tuple(best.values())


def _least_own(hier, x: ExactRational) -> ExactRational:
    """The least own value among the prefixes of the (x, x) entry's tuples
    that do not generate x, the predecessor of the successor x (see
    Hierarchy.predecessor).

    _best_below_lo gives a triple (k, sn, sd) for each length k among
    those prefixes: sn/sd is their largest reciprocal sum, so their least
    own value is k*sd / ((k - 1)*sd + sn).
    """
    vn, vd = 1, 0  # +infinity until the first length
    for k, sn, sd in _best_below_lo(_xx_entry(hier, x), {}):
        num, den = k * sd, (k - 1) * sd + sn
        if num * vd < vn * den:
            vn, vd = num, den
    if not vd:
        raise ConsistencyError(f"no member candidate above successor {x}")
    if vn * x._denominator <= x._numerator * vd:
        raise ConsistencyError(f"a stored prefix that does not generate {x} pools at or below it")
    return ExactRational(vn, vd)


def _minimal(hier, table: _BudgetTable, dn: int, dd: int):
    """The entry [lo_n, lo_d, hi_n, hi_d, visits, at_lo, best, keyed, hi_k] answering budget dn/dd."""
    x, delta = table.x, table.delta
    if dn < 0 or dn * x._denominator > x._numerator * dd:
        raise ConsistencyError(f"budget {dn}/{dd} left [0, {x}]")
    en, ed = delta._numerator, delta._denominator
    if dn * ed < en * dd:
        return table.empty  # d < delta: no component fits
    entry = table.lookup(dn, dd)
    if entry is None:
        entry = _walk(hier, table, dn, dd)
        table.record(dn, dd, entry)
    return entry


def _walk(hier, table: _BudgetTable, dn: int, dd: int):
    """The walk of xd_minimal at d = dn/dd >= delta: the entry
    [lo_n, lo_d, hi_n, hi_d, visits, at_lo, None, None, hi_k], the two
    Nones filled when read. It steps through member records
    (Hierarchy._record): a successor links its predecessor's."""
    x = table.x
    xn, xd = x._numerator, x._denominator
    en, ed = table.delta._numerator, table.delta._denominator
    visits = []  # key of y, inner entry: for each visit
    at_lo = []  # the same, for each visit whose total is lo
    lo_n, lo_d = 0, 1
    hi_n, hi_d, hi_k = 1, 0, 0  # +infinity until the first threshold

    def lower_hi_by(tn, td, k, m):
        """Lower hi to t + c(x, m), for a member m below a chosen component
        or p0', t the total of a k-tuple."""
        nonlocal hi_n, hi_d, hi_k
        if m is not None:
            mn, md = m._numerator, m._denominator
            cd = xd * mn
            tn, td = tn * cd + (xn * (md + mn) - cd) * td, td * cd
            gap = tn * hi_d - hi_n * td
            if gap < 0 or gap == 0 and k >= hi_k:
                hi_n, hi_d, hi_k = tn, td, k + 1

    y, below = _smallest_with_contribution_at_most(hier, table, dn, dd)
    lower_hi_by(0, 1, 0, below)  # (a)
    rec = hier._record(y)
    prev_n, prev_d = 0, 1  # the last visited component; none yet, and y > 0
    entry = None  # the last visit's inner entry
    while True:
        yk = rec.key
        y = yk[1]
        # c(x, y) = x/y + x - 1 = cn/cd with cd > 0
        yn, yd = y._numerator, y._denominator
        cd = xd * yn
        cn = xn * (yd + yn) - cd
        if cn <= 0:
            break
        if yn * prev_d <= prev_n * yd:
            raise ConsistencyError("component walk failed to advance")
        if cn * ed < en * cd:  # c < delta, so d - c > d - delta
            raise ConsistencyError("recursive budget must drop by at least delta")
        rn, rd = dn * cd - cn * dd, dd * cd  # d - c, unreduced: gcd costs more than it saves
        # r = d - c rises along the walk, as c(x, y) falls: while it stays
        # below the last inner entry's hi, it lies in that entry's interval.
        # The reused entry skips _minimal's budget guard, which could not
        # fire: r > the last r >= 0, and r < d <= x.
        if entry is None or rn * ihd >= ihn * rd:
            iln, ild, ihn, ihd, _, _, _, _, ihk = entry = _minimal(hier, table, rn, rd)
        visits += yk, entry
        # the largest total through y: c(x, y) + lo(inner)
        tn, td = cn * ild + iln * cd, cd * ild
        gap = tn * lo_d - lo_n * td
        if gap > 0:
            lo_n, lo_d, at_lo = tn, td, []
        if gap >= 0:
            at_lo += yk, entry
        tn, td = cn * ihd + ihn * cd, cd * ihd  # (b)
        gap = tn * hi_d - hi_n * td
        if gap < 0 or gap == 0 and ihk >= hi_k:
            hi_n, hi_d, hi_k = tn, td, ihk + 1
        cls = rec.cls or hier._classified(rec)
        prev_n, prev_d = yn, yd
        if cls is MAXIMAL:
            break
        if cls is SUCCESSOR:
            rec = rec.pred or hier._lowered(rec)
        else:
            t = _next_total(hier, table, _keyed(entry), rn, rd)
            # unreachable: p0' after inner's largest-total tuple gives lo(inner) + delta >= hi(inner) > r
            if t is None:
                raise ConsistencyError(f"no one-step total above the inner budget {rn}/{rd}")
            tn, td, tk = t
            bn, bd = dn * td - tn * dd, dd * td  # d - t
            if bn * ed < en * bd:  # no member fits beside t
                lower_hi_by(tn, td, tk, table.p0_prime)  # (c): t + delta
                break
            y, below = _smallest_with_contribution_at_most(hier, table, bn, bd)
            lower_hi_by(tn, td, tk, below)  # (c)
            rec = hier._record(y)

    g, h = gcd(lo_n, lo_d), gcd(hi_n, hi_d)
    return [lo_n // g, lo_d // g, hi_n // h, hi_d // h,
            tuple(visits), tuple(at_lo), None, None, hi_k]


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
