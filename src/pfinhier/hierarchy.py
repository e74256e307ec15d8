"""Level-by-level construction of the capability hierarchy.

The hierarchy A is the closure of {1} under the pooling rule restricted to
valid applications. On [1/2, 1] it is the explicit family {1/2} together
with n/(2n-1); below 1/2 it is reached level by level: the interval
[1/(n+1), 1/n] is populated by the images p/(1+p) of the previous level's
members (always limit points) and, between consecutive images, by segment
chains r_0 > r_1 > ... obtained from the recurrence r_next = pool(p, r).
Membership inside a segment reduces to the finite minimal-set search.

A is well ordered in decreasing order: every nonempty set of members has
a largest element. So every strictly ascending chain of members is
finite, which is why the climb behind bracket and next_below ends, and
every member above the floor edge 1/(L+1) has an immediate member below
it. Only successors also have an immediate member above them (the
predecessor); limit members are approached from above by computable
strictly decreasing sequences.

All queries live on a Hierarchy object, which memoizes classifications,
segments, governing floors, predecessors, limit sequences, brackets and
neighbors per instance. It also owns the minimal-set tables, one per
(x, floor), each set stored once for the whole interval of budgets that
yields it. A memoized limit sequence keeps every term it has computed,
for all later callers.

Each Hierarchy also keeps one sort key per member value: predecessors,
brackets, neighbors and limit-sequence terms pass through its intern
table, keyed on (numerator, denominator), before they are handed out.
The table holds each member's key (float, member), built once, so equal
members it returns are the same object, and the minimal-set walk stores
its tuples as tuples of these keys. Comparing two keyed tuples compares
floats and settles equal members on identity; only distinct members
whose floats tie compare as Fractions. Two hierarchies share no such
table.
Queries below the configured floor level raise FloorError instead of
recursing without bound.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from heapq import heapify, heappop

from . import minimal_sets
from .errors import ConsistencyError, DomainError, FloorError, InputError
from .memo import memoized
from .rationals import ExactRational, HALF, ONE, ZERO, ascending_key
from .rules import apply_rule, h_inverse, h_map, is_valid_application, reciprocal_sum


class Classification(Enum):
    MAXIMAL = "MAX"
    SUCCESSOR = "SUCC"
    LIMIT = "LIM"
    NOT_MEMBER = "NONE"


class Segment(namedtuple("Segment", "anchor_low r_lo r_hi")):
    """One piece [r_lo, r_hi] of the chain splitting an anchor interval.

    The anchor runs from anchor_low = p/(1+p) to r/(1+r) for consecutive
    previous-level members p < r; r_lo and r_hi are consecutive terms
    r_{i+1} and r_i of the anchor's recurrence. By convention a chain
    point r_{i+1} belongs to the segment it bounds from below.
    """

    __slots__ = ()


# consecutive skipped raw indices after which a sequence is declared stuck
SCAN_CAP = 1000


class LimitSequence:
    """Lazy strictly decreasing member sequence converging to a limit point.

    The raw generator is called once per index, in order, and may return
    None for indices it wants skipped (terms clipped by a segment bound or
    failing validity); skipped indices are transparent to callers, who see
    a dense 0, 1, 2, ... indexing.
    """

    def __init__(self, raw):
        self._raw = raw
        self._accepted: list[ExactRational] = []
        self._cursor = 0

    def term(self, k: int) -> ExactRational:
        if k < 0:
            raise InputError(f"sequence index must be nonnegative: {k}")
        while len(self._accepted) <= k:
            scanned = 0
            while True:
                value = self._raw(self._cursor)
                self._cursor += 1
                if value is not None:
                    break
                scanned += 1
                if scanned > SCAN_CAP:
                    raise ConsistencyError("limit sequence stopped producing terms")
            self._accepted.append(value)
        return self._accepted[k]

    def take(self, n: int) -> list[ExactRational]:
        return [self.term(k) for k in range(n)]


def _generates(T, x: ExactRational) -> bool:
    """Whether apply_rule(T) == x: T's k reciprocals sum to k/x - (k - 1)."""
    k = len(T)
    sn, sd = reciprocal_sum(T)
    xn, xd = x.numerator, x.denominator
    return sn * xn == (k * xd - (k - 1) * xn) * sd


def _pooled_variants(T, lower_of):
    """Pooled values of the variants of the ascending member tuple T.

    Yields unreduced integer pairs (num, den): for T itself, for T with
    one component dropped (while one remains), and for T with a component
    p replaced by lower_of(p) wherever that is not None. A variant of k
    components whose reciprocals sum to n/d pools to k*d / ((k - 1)*d + n),
    so one integer sum over T gives every variant in O(1).
    """
    s = len(T)
    sn, sd = reciprocal_sum(T)
    yield s * sd, (s - 1) * sd + sn
    for p in T:
        pn, pd = p.numerator, p.denominator
        rn, rd = sn * pn - pd * sd, sd * pn  # p dropped
        if s > 1:
            yield (s - 1) * rd, (s - 2) * rd + rn
        q = lower_of(p)
        if q is not None:
            qn, qd = q.numerator, q.denominator
            n, d = rn * qn + qd * rd, rd * qn
            yield s * d, (s - 1) * d + n


class Hierarchy:
    """Memoized query surface over the constructed levels."""

    def __init__(self, floor_level: int = 4):
        if floor_level < 1:
            raise InputError(f"floor level must be at least 1: {floor_level}")
        self.floor_level = floor_level
        # (numerator, denominator) -> the member's sort key (float, member)
        self._members: dict[tuple[int, int], tuple[float, ExactRational]] = {}

    def _key(self, value: ExactRational) -> tuple[float, ExactRational]:
        """This hierarchy's one sort key for the member value (see ascending_key)."""
        pair = value._numerator, value._denominator
        key = self._members.get(pair)
        if key is None:
            key = self._members[pair] = ascending_key(value)
        return key

    def _member(self, value: ExactRational) -> ExactRational:
        """This hierarchy's one object for the member value."""
        return self._key(value)[1]

    # ---- guards ----

    def _check(self, x: ExactRational):
        # integer comparisons: runs ahead of every memo lookup
        if not isinstance(x, ExactRational):
            raise InputError(f"expected an exact rational, got {type(x).__name__}")
        n, den = x.numerator, x.denominator
        if not (0 < n <= den):
            raise InputError(f"probability out of (0, 1]: {x}")
        # x >= 1/(L+1)  <=>  n*(L+1) >= den
        if n * (self.floor_level + 1) < den:
            raise FloorError(
                f"{x} lies below the constructed floor 1/{self.floor_level + 1};"
                " raise the floor level to query it"
            )

    # ---- classification ----

    @memoized(_check)
    def classify(self, x: ExactRational) -> Classification:
        n, den = x.numerator, x.denominator
        if 2 * n >= den:  # x >= 1/2
            if n == den:
                return Classification.MAXIMAL
            if den == 2 * n:
                return Classification.LIMIT
            if den == 2 * n - 1:
                return Classification.SUCCESSOR
            return Classification.NOT_MEMBER
        # images of members are always limit points
        if self.classify(h_inverse(x)) is not Classification.NOT_MEMBER:
            return Classification.LIMIT
        seg = self.segment_of(x)
        if x == seg.r_lo:
            return Classification.LIMIT
        P = self.xd_minimal(x, x)
        generators = [T for T in P.tuples if _generates(T, x)]
        if not generators:
            return Classification.NOT_MEMBER
        for T in generators:
            if any(self.classify(c) is Classification.LIMIT for c in T):
                return Classification.LIMIT
        return Classification.SUCCESSOR

    def is_member(self, x: ExactRational) -> bool:
        return self.classify(x) is not Classification.NOT_MEMBER

    # ---- segments ----

    @memoized(_check)
    def segment_of(self, x: ExactRational) -> Segment:
        if x >= HALF:
            raise DomainError(f"segments exist below 1/2 only, got {x}")
        t = h_inverse(x)
        if self.classify(t) is not Classification.NOT_MEMBER:
            raise DomainError(f"{x} is the image of a member; it bounds segments")
        p, r = self.bracket(t)
        a_low, a_high = h_map(p), h_map(r)
        if not (a_low < x < a_high):
            raise ConsistencyError(f"{x} escaped its anchor interval [{a_low}, {a_high}]")
        r_hi = a_high
        while True:
            r_lo = apply_rule((p, r_hi))
            if r_lo <= x:
                return Segment(a_low, r_lo, r_hi)
            r_hi = r_lo

    @memoized(_check)
    def governing_floor(self, x: ExactRational) -> ExactRational:
        """Lower bound for components of any rule application reaching x."""
        if x >= HALF:
            return self.bracket(x)[1]
        if self.classify(h_inverse(x)) is not Classification.NOT_MEMBER:
            return x
        return self.segment_of(x).r_hi

    def xd_minimal(self, x: ExactRational, d: ExactRational) -> minimal_sets.MinimalSet:
        return minimal_sets.xd_minimal(self, x, d, self.governing_floor(x))

    # ---- predecessor ----

    @memoized(_check)
    def predecessor(self, x: ExactRational) -> ExactRational:
        """The member immediately above the successor x.

        Above 1/2 it is the closed form (n-1)/(2n-3). Below, the candidates
        are the pooled values of three kinds of variant of each tuple T of
        the (x, x)-minimal set: T itself, T with one component dropped
        (while one remains), and T with one successor component replaced
        by its predecessor. Candidates above x are tried in ascending
        order, and the first member is the answer.

        Each variant's value follows in O(1) from T's reciprocal sum, taken
        once in integers (_pooled_variants), and is compared with x by
        cross-multiplication. Candidates leave a heap keyed on their
        floats. Distinct values can round to the same float, and trying the
        larger of two tied members first would return a member that is not
        the next one above x, so each run of equal floats is sorted exactly
        before any of it is tried.
        """
        cls = self.classify(x)
        if cls is not Classification.SUCCESSOR:
            kind = {
                Classification.MAXIMAL: "the maximal element",
                Classification.LIMIT: "a limit element",
                Classification.NOT_MEMBER: "not a member",
            }[cls]
            raise DomainError(f"no predecessor: {x} is {kind}")
        n = x.numerator
        if 2 * n > x.denominator:  # x > 1/2
            return self._member(ExactRational(n - 1, 2 * (n - 1) - 1))
        lower = {}  # (numerator, denominator) of a component -> its predecessor or None

        def lower_of(p):
            key = p.numerator, p.denominator
            if key not in lower:
                lower[key] = (
                    self.predecessor(p) if self.classify(p) is Classification.SUCCESSOR else None
                )
            return lower[key]

        xn, xd = x.numerator, x.denominator
        above = []
        for T in self.xd_minimal(x, x).tuples:
            for num, den in _pooled_variants(T, lower_of):
                if num * xd > xn * den:
                    above.append((num / den, num, den))
        heapify(above)
        while above:
            # equal floats may hide distinct values: order them exactly
            f = above[0][0]
            tied = []
            while above and above[0][0] == f:
                _, num, den = heappop(above)
                tied.append(ExactRational(num, den))
            for value in sorted(tied):
                if self.classify(value) is not Classification.NOT_MEMBER:
                    return self._member(value)
        raise ConsistencyError(f"no member candidate above successor {x}")

    # ---- limit sequences ----

    @memoized(_check)
    def limit_sequence(self, x: ExactRational) -> LimitSequence:
        if self.classify(x) is not Classification.LIMIT:
            raise DomainError(f"limit sequences exist for limit elements only, got {x}")
        if x == HALF:
            return LimitSequence(lambda k: self._member(ExactRational(k + 1, 2 * k + 1)))
        t = h_inverse(x)
        t_cls = self.classify(t)
        if t_cls is Classification.LIMIT:
            inner = self.limit_sequence(t)
            return LimitSequence(lambda k: self._member(h_map(inner.term(k))))
        if t_cls in (Classification.SUCCESSOR, Classification.MAXIMAL):
            if t_cls is Classification.MAXIMAL:
                raise ConsistencyError("image of the maximum is 1/2, handled above")
            r = self.predecessor(t)
            return self._r_sequence(t, h_map(r))
        seg = self.segment_of(x)
        if x == seg.r_lo:
            p = h_inverse(seg.anchor_low)
            upper = self.limit_sequence(seg.r_hi)
            return self._substituted_sequence((p, p), 1, upper, seg.r_hi)
        P = self.xd_minimal(x, x)
        for T in P.tuples:
            if not _generates(T, x):
                continue
            for j, c in enumerate(T):
                if self.classify(c) is Classification.LIMIT:
                    return self._substituted_sequence(T, j, self.limit_sequence(c), seg.r_hi)
        raise ConsistencyError(f"limit element {x} has no generator with a limit component")

    def _r_sequence(self, p: ExactRational, r0: ExactRational) -> LimitSequence:
        # raw(k) runs once, after term k - 1 was accepted, and never skips
        seq = LimitSequence(
            lambda k: self._member(apply_rule((p, seq.term(k - 1))) if k else r0)
        )
        return seq

    def _substituted_sequence(self, template, slot, component_seq, upper_bound):
        """Walk component_seq through one slot of a generator tuple.

        Early terms whose pooled value overshoots the segment's upper end,
        or that do not form a valid application, are skipped.
        """
        fixed = tuple(template)

        def raw(k):
            tup = fixed[:slot] + (component_seq.term(k),) + fixed[slot + 1:]
            value = apply_rule(tup)
            if value > upper_bound or not is_valid_application(tup):
                return None
            return self._member(value)

        return LimitSequence(raw)

    # ---- bracketing and neighbors ----

    @memoized(_check)
    def bracket(self, p: ExactRational):
        """Largest member <= p and smallest member >= p."""
        pn, pd = p.numerator, p.denominator
        if pn == 1:
            # every 1/k is a member: 1, 1/2, and the images of 1/(k-1)
            p = self._member(p)
            return p, p
        if 2 * pn > pd:  # p > 1/2
            n_star = pn // (2 * pn - pd)  # floor(p / (2p - 1))
            f2 = self._member(ExactRational(n_star, 2 * n_star - 1))
            if pd == 2 * pn - 1:  # p is n_star/(2*n_star - 1) itself
                return f2, f2
            return self._member(ExactRational(n_star + 1, 2 * n_star + 1)), f2
        return self._climb(p, strict=False)

    def _climb(self, p: ExactRational, strict: bool):
        """The last member below p (< p if strict, else <= p) and the member above it.

        Climbs from the member 1/(k+1) under p through predecessors and
        limit sequences, never past p; ascending chains of members are
        finite, so the climb ends.
        """
        below = p.__gt__ if strict else p.__ge__
        cur = self._member(ExactRational(1, p.denominator // p.numerator + 1))
        while True:
            if cur == p:
                return cur, cur
            cls = self.classify(cur)
            if cls is Classification.SUCCESSOR:
                nxt = self.predecessor(cur)
                if not below(nxt):
                    return cur, nxt
                cur = nxt
            elif cls is Classification.LIMIT:
                seq = self.limit_sequence(cur)
                k = 0
                while not below(seq.term(k)):
                    k += 1
                cur = seq.term(k)
            else:
                raise ConsistencyError(f"climb reached a non-member waypoint {cur}")

    @memoized(_check)
    def next_below(self, u: ExactRational) -> ExactRational:
        """The member immediately below u; total on members except the
        floor edge 1/(L+1), whose neighbor lies under the floor (FloorError)."""
        if self.classify(u) is Classification.NOT_MEMBER:
            raise DomainError(f"next_below needs a member, got {u}")
        n = u.numerator
        if 2 * n > u.denominator:  # u > 1/2
            return self._member(ExactRational(n + 1, 2 * n + 1))
        lo, hi = self._climb(u, strict=True)
        if hi != u:
            raise ConsistencyError(f"the member above next_below({u}) = {lo} is {hi}")
        return lo

    # ---- interval enumeration and the decision procedure ----

    def enumerate_interval(self, a: ExactRational, b: ExactRational, max_count: int):
        """Members of [a, b], ascending, at most max_count of them.

        Walks upward from the smallest member >= a while elements have
        immediate neighbors above; if the walk stalls on a limit element
        with budget to spare, the remainder is filled from b downward.
        The result is complete whenever fewer than max_count members exist.
        """
        if not (ZERO < a <= b <= ONE):
            raise InputError(f"need 0 < a <= b <= 1, got [{a}, {b}]")
        if max_count < 0:
            raise InputError(f"max_count must be nonnegative: {max_count}")
        if max_count == 0:
            return []
        result: list[ExactRational] = []
        _, cur = self.bracket(a)
        stalled = False
        while len(result) < max_count:
            if cur > b:
                return result
            result.append(cur)
            cls = self.classify(cur)
            if cls is Classification.MAXIMAL:
                return result
            if cls is Classification.LIMIT:
                stalled = True
                break
            cur = self.predecessor(cur)
        if not stalled or len(result) >= max_count:
            return result
        f1b, _ = self.bracket(b)
        top: list[ExactRational] = []
        cur = f1b
        while cur > result[-1] and len(result) + len(top) < max_count:
            top.append(cur)
            cur = self.next_below(cur)
        return result + list(reversed(top))

    def decide_equivalence(self, p1: ExactRational, p2: ExactRational) -> bool:
        """Whether p1 and p2 sit under the same smallest member.

        Capability changes exactly at members, with intervals closed on
        the left, so two probabilities are interchangeable exactly when
        the smallest member at or above each is the same.
        """
        return self.bracket(p1)[1] == self.bracket(p2)[1]
