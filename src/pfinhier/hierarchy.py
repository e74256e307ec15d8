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
finite, and every member above the floor edge 1/(L+1) has an immediate
member below it. Only successors also have an immediate member above
them (the predecessor); limit members are approached from above by
computable strictly decreasing sequences. Below 1/2, one routine
(_straddle) finds the last member below a point and the least member at
or above it, for bracket, next_below and the walk's thresholds alike. It
starts from a member below the point, found from where the point sits
(_segment) and the point's own minimal-set entry, and climbs from it
through predecessors and limit sequences; being an ascending chain, the
climb ends.

All queries live on a Hierarchy object, which memoizes segments, limit
sequences, brackets and the members around each point per instance. It
also owns the minimal-set tables, one per x over the governing floor of
x, each set stored once for the whole interval of budgets that yields
it. A memoized limit sequence keeps every term it has computed.

Its intern table, keyed on (numerator, denominator), holds one record
per value: its sort key (float, value), built once, and, once worked
out, its classification and its predecessor's record, where classify
and predecessor memoize. Equal members handed out are one object, and
the walk steps from a successor to its predecessor by one link. The
tables build their tuples, when read, from these keys, which compare
floats first and settle equal members on identity. Two hierarchies
share no table. The floor level L is an int in [1, MAX_FLOOR_LEVEL], and
queries below 1/(L+1) raise FloorError instead of recursing without
bound.
"""

from __future__ import annotations

from collections import namedtuple

from . import minimal_sets
from .errors import ConsistencyError, DomainError, FloorError, InputError
from .memo import memoized
from .rationals import ExactRational, HALF, ONE, ZERO, ascending_key, require_exact
from .minimal_sets import Classification
from .rules import apply_rule, h_inverse, h_map, is_valid_application


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

# the deepest floor level: a point of level L nests L level shifts, and
# classify recurses through each, as ordinals.MAX_NESTING bounds its nesting
MAX_FLOOR_LEVEL = 100


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


class _Record:
    """A value's sort key, then its classification and predecessor's record."""

    __slots__ = ("key", "cls", "pred")

    def __init__(self, key):
        self.key, self.cls, self.pred = key, None, None


class Hierarchy:
    """Memoized query surface over the constructed levels."""

    def __init__(self, floor_level: int = 4):
        if isinstance(floor_level, bool) or not isinstance(floor_level, int):
            raise InputError(f"floor level must be an int, got {type(floor_level).__name__}")
        if not 1 <= floor_level <= MAX_FLOOR_LEVEL:
            raise InputError(f"floor level must lie in [1, {MAX_FLOOR_LEVEL}]: {floor_level}")
        self.floor_level = floor_level
        # (numerator, denominator) -> the value's record
        self._members: dict[tuple[int, int], _Record] = {}

    def _record(self, value: ExactRational) -> _Record:
        """This hierarchy's one record for the value."""
        pair = value._numerator, value._denominator
        rec = self._members.get(pair)
        if rec is None:
            rec = self._members[pair] = _Record(ascending_key(value))
        return rec

    def _member(self, value: ExactRational) -> ExactRational:
        """This hierarchy's one object for the member value."""
        return self._record(value).key[1]

    def _member_of(self, n: int, d: int) -> ExactRational:
        """The member n/d, in lowest terms; a Fraction is built only for a new one."""
        return (self._members.get((n, d)) or self._record(ExactRational(n, d))).key[1]

    # ---- guards ----

    def _check(self, x: ExactRational):
        # integer comparisons: runs ahead of every memo lookup
        if not isinstance(x, ExactRational):
            raise InputError(f"expected an exact rational, got {type(x).__name__}")
        n, den = x._numerator, x._denominator
        if not (0 < n <= den):
            raise InputError(f"probability out of (0, 1]: {x}")
        # x >= 1/(L+1)  <=>  n*(L+1) >= den
        if n * (self.floor_level + 1) < den:
            raise FloorError(
                f"{x} lies below the constructed floor 1/{self.floor_level + 1};"
                " raise the floor level to query it"
            )

    # ---- classification ----

    def classify(self, x: ExactRational) -> Classification:
        self._check(x)
        rec = self._members.get((x._numerator, x._denominator)) or self._record(x)  # hits: no call
        return rec.cls or self._classified(rec)

    def _classified(self, rec: _Record) -> Classification:
        """rec's classification, worked out on first read, past the guard."""
        if rec.cls is None:
            rec.cls = self._classify(rec.key[1])
        return rec.cls

    def _classify(self, x: ExactRational) -> Classification:
        n, den = x._numerator, x._denominator
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
        seg = self._segment(x)
        if x == seg.r_lo:
            return Classification.LIMIT
        generators = minimal_sets._generators(self, x)
        if not generators:
            return Classification.NOT_MEMBER
        if any(self.classify(c) is Classification.LIMIT for T in generators for _, c in T):
            return Classification.LIMIT
        return Classification.SUCCESSOR

    def is_member(self, x: ExactRational) -> bool:
        return self.classify(x) is not Classification.NOT_MEMBER

    # ---- segments ----

    def segment_of(self, x: ExactRational) -> Segment:
        self._check(x)
        if x >= HALF:
            raise DomainError(f"segments exist below 1/2 only, got {x}")
        seg = self._segment(x)
        if seg is None:
            raise DomainError(f"{x} is the image of a member; it bounds segments")
        return seg

    @memoized
    def _segment(self, x: ExactRational):
        """Where x in (0, 1/2] sits: None at the image of a member, else
        the segment holding x, whose r_lo is x at a chain point."""
        t = h_inverse(x)
        if self.classify(t) is not Classification.NOT_MEMBER:
            return None
        p, r = self._around(t._numerator, t._denominator)
        a_low, a_high = h_map(p), h_map(r)
        if not (a_low < x < a_high):
            raise ConsistencyError(f"{x} escaped its anchor interval [{a_low}, {a_high}]")
        r_hi = a_high
        while True:
            r_lo = apply_rule((p, r_hi))
            if r_lo <= x:
                return Segment(a_low, r_lo, r_hi)
            r_hi = r_lo

    def governing_floor(self, x: ExactRational) -> ExactRational:
        """Lower bound for components of any rule application reaching x."""
        self._check(x)
        n, d = x._numerator, x._denominator
        if 2 * n > d:  # x > 1/2
            return self._around(n, d)[1]
        seg = self._segment(x)
        return x if seg is None else seg.r_hi

    def xd_minimal(self, x: ExactRational, d: ExactRational) -> minimal_sets.MinimalSet:
        """The (x, d)-minimal set over the governing floor of x; x is refused before d."""
        self._check(x)
        return minimal_sets._build_set(self, x, d)

    # ---- predecessor ----

    def predecessor(self, x: ExactRational) -> ExactRational:
        """The member immediately above the successor x.

        Above 1/2 it is the closed form (n-1)/(2n-3). Below, let u be the
        answer and read the stored tuples of the (x, x)-minimal set, each
        ascending. A k-tuple whose contributions c(x, q) = x/q + x - 1
        total s pools to k x/(s + k - x): to x exactly when s = x (it
        generates x), above x when s < x. Pooling rises strictly with each
        component, as c(x, q) falls. Every stored tuple totals at most x.
        Call the k smallest components of a stored tuple its k-prefix; a
        prefix is allowed wherever its tuple is, since contributions are
        positive. The answer u is the least own value v among the prefixes
        that do not generate x. The proof rests on two facts of the paper:
        the hierarchy is well ordered in descending order, and closed
        under valid applications. Let x lie in the segment [r_lo, r_hi) of
        the anchor [h(p), h(r)], where p < t = x/(1 - x) < r are
        consecutive members.

        1. r_hi is a member above x, so u <= r_hi and u lies in the same
           segment. So some tuple T_u over [r_hi, 1] generates u; for
           u = r_hi it is the singleton.
        2. Each component q of T_u has c(u, q) > 0, so q < u/(1 - u) <= r,
           hence q <= p < t and c(x, q) > 0. T_u totals x + k(x/u - 1) < x
           at budget x, so it is allowed there, and by the cover property
           of the stored set (minimal_sets) the k-prefix S of some stored
           tuple lies at or below T_u, componentwise, k = len(T_u).
        3. Take a stored prefix at or below T_u and any tuple W of members
           between the two, componentwise. W's components lie in [r_hi, p],
           so its weights lie in (0, 1] and W is a valid application. It
           totals at most x, as the prefix does, and pools at most to u:
           apply_rule(W) is a member in [x, u], hence x or u.
        4. If S pools above x, u is the own value of S. Otherwise S totals
           x, and the stored tuple it is a prefix of totals at least that
           and at most x, so S is that whole tuple, at lo = x. The lemma
           below, at the (x, x) entry with R = S and T = T_u, gives a
           stored k-prefix at or below T_u that totals below x: by 3 it
           pools to u, and it does not generate x.
        5. The argument of 3 needs only components in [r_hi, p], and every
           stored tuple has them: r_hi is the floor, and each component q
           has c(x, q) > 0, so q < t and q <= p. So the own value of every
           prefix that does not generate x is a member above x; by 4, u is
           one of them, and the least member above x, so u = v.

        Every component of a generator of x is itself a successor: classify
        answers SUCCESSOR only when no generator has a limit component, and
        c(x, 1) = 2x - 1 < 0 keeps 1 out.

        Lemma (strict cover). Let E be an entry reached from the (x, x)
        entry through at-lo visits, R a stored tuple at its lo = b, and T
        a tuple of members with positive contributions, componentwise at
        or above R, totalling below b, k = len(R). Then the k-prefix of
        some stored tuple of E lies at or below T and totals below b.

        By induction on b, which drops by at least delta per level. R
        joined to the visits that reach E is a generator of x, so its
        components are successors. Write R = y + R', y an at-lo visit, R'
        at lo(I) = b - c(x, y) of its inner entry I, and pair y with T's
        component t at the same sorted position: T - t lies at or above
        R'. For a visit z <= t and a tuple Q' of z's inner entry J whose
        (k-1)-prefix P' lies at or below T - t, z + Q' is stored in E and
        its k-prefix lies at or below z + P', so at or below T. If P'
        totals below b - c(x, z), that k-prefix totals below b: it holds
        z, with total below c(x, z) + b - c(x, z), or lies inside Q', with
        total at most lo(J) <= b - c(x, z).

        (A) t = y: T - t totals below lo(I); the lemma in I, applied to R'
            and T - t, gives such a Q' for z = y.
        (B) t > y: y is a successor, so the walk next visits
            z = predecessor(y) <= t, which c(x, t) > 0 admits. T - t totals
            at most what R' does, b - c(x, y) < b - c(x, z), so it is
            allowed in J, and J's cover property gives P', totalling at
            most lo(J) <= b - c(x, z). At equality P' is a whole tuple at
            lo(J), z is an at-lo visit, and the lemma in J, applied to P'
            and T - t, gives a Q' whose P' totals below lo(J).

        The search sums no stored tuple: v is the least over k of
        k/(k - 1 + P_k), P_k the largest reciprocal sum of a k-prefix that
        does not generate x. A prefix generates x only when it is a whole
        stored tuple at lo = x, and minimal_sets._least_own finds each P_k
        along the visits at lo. v is checked: ConsistencyError if it does
        not lie above x or is no member.
        """
        self._check(x)
        rec = self._members.get((x._numerator, x._denominator)) or self._record(x)  # hits: no call
        if rec.pred is None and self._classified(rec) is not Classification.SUCCESSOR:
            kind = {
                Classification.MAXIMAL: "the maximal element",
                Classification.LIMIT: "a limit element",
                Classification.NOT_MEMBER: "not a member",
            }[rec.cls]
            raise DomainError(f"no predecessor: {x} is {kind}")
        return (rec.pred or self._lowered(rec)).key[1]

    def _lowered(self, rec: _Record) -> _Record:
        """rec's predecessor's record, worked out on first read, past the guard."""
        if rec.pred is None:
            if self._classified(rec) is not Classification.SUCCESSOR:
                raise ConsistencyError(f"the kernel asked for a predecessor of {rec.key[1]}")
            rec.pred = self._predecessor(rec.key[1])
        return rec.pred

    def _predecessor(self, x: ExactRational) -> _Record:
        n = x._numerator
        if 2 * n > x._denominator:  # x > 1/2
            return self._record(self._member_of(n - 1, 2 * n - 3))
        own = minimal_sets._least_own(self, x)
        if self.classify(own) is Classification.NOT_MEMBER:
            raise ConsistencyError(f"the least own value above successor {x}, {own}, is no member")
        return self._record(own)

    # ---- limit sequences ----

    @memoized
    def limit_sequence(self, x: ExactRational) -> LimitSequence:
        if self.classify(x) is not Classification.LIMIT:
            raise DomainError(f"limit sequences exist for limit elements only, got {x}")
        if x == HALF:
            return LimitSequence(lambda k: self._member_of(k + 1, 2 * k + 1))
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
        seg = self._segment(x)
        if x == seg.r_lo:
            p = h_inverse(seg.anchor_low)
            upper = self.limit_sequence(seg.r_hi)
            return self._substituted_sequence((p, p), 1, upper, seg.r_hi)
        for K in minimal_sets._generators(self, x):
            T = tuple(c for _, c in K)
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

    @memoized
    def bracket(self, p: ExactRational):
        """Largest member <= p and smallest member >= p.

        Above 1/2, and at every 1/k, they are closed forms. A member
        already classified, an image of a member and a chain point are
        their own bracket. Any other p below 1/2 lies inside a segment
        [r_lo, r_hi), and r_lo is a limit. Its limit sequence descends to
        it, so it has a first term at or below p. If that term is p, p is
        its own bracket, and p's minimal set is never walked. At floor 4,
        13/40 is such a term, of the sequence of 64/197; the walk behind
        classify(13/40) nests the tables of ever more thresholds and had
        not ended after a minute. Otherwise the bracket is read off
        _straddle(p), the last member below p and the least member at or
        above it: p, twice, when that member is p.
        """
        pn, pd = p._numerator, p._denominator
        if pn == 1 or pd == 2 * pn - 1:
            # members in closed form: every 1/k (1, 1/2, and the images of
            # 1/(k-1)) and every n/(2n - 1)
            p = self._member(p)
            return p, p
        if 2 * pn > pd:  # p > 1/2
            return self._around(pn, pd)
        rec = self._record(p)
        p = rec.key[1]
        if rec.cls is not None and rec.cls is not Classification.NOT_MEMBER:
            return p, p  # classified already
        seg = self._segment(p)
        if seg is None or p == seg.r_lo:
            return p, p  # an image of a member, or a chain point
        if self._first_term(seg.r_lo, rec.key.__ge__) is rec:
            return p, p  # a term of r_lo's limit sequence
        below, above = self._straddle(p)
        return (p, p) if above == p else (below, above)

    def _around(self, n: int, d: int):
        """The largest member below n/d and the least member at or above
        it, for n/d in (0, 1], not necessarily in lowest terms.

        Above 1/2 the members are m/(2m - 1): the least at or above n/d
        has m = floor(n/(2n - d)), and (m + 1)/(2m + 1) lies below it
        whether or not n/d is a member, so no Fraction is built and no
        memo entry made. At or below 1/2 the pair is _straddle's.
        """
        if 2 * n > d:
            m = n // (2 * n - d)
            return self._member_of(m + 1, 2 * m + 1), self._member_of(m, 2 * m - 1)
        return self._straddle(ExactRational(n, d))

    @memoized
    def _straddle(self, p: ExactRational):
        """The last member below p and the least member at or above it,
        for p at or below 1/2. At the floor edge p = 1/(L+1) the member
        below lies under the floor (FloorError).

        One strict climb finds both from a start, a member below p. Let
        t = p/(1 - p), a the last member below t, r the least member at or
        above t and f the floor of p's own table (governing_floor). Where
        p sits (_segment) decides the start:

        - at a chain point p = r_lo: the segment under p is
          [pool(a, p), p), over the floor p, one segment under f = r_hi.
          p's entry does not reach it, and the start is its bottom
          pool(a, p).
        - inside a segment [r_lo, r_hi) of the anchor [h(a), h(r)], where
          f = r_hi, or at an image p = h(t), where r = t and f = p, as p
          governs its own floor: the start v0 is read off p's own (p, p)
          entry (minimal_sets._climb_start). Let b = pool(a, f), the
          bottom of the segment that holds p, r_lo, or at an image the
          bottom of the top segment [b, p) of the anchor [h(a), p]. b is a
          member in (h(a), p).

        1. A tuple W of members of [f, a] that pools to v in [b, p) pools
           to a member. v lies in the anchor, so every component q <= a
           has a positive weight c(v, q), below 1 as q >= f > v; W is a
           valid application (step 3 of predecessor).
        2. A k-tuple whose contributions at p total s pools to
           k p/(s + k - p): its reciprocals sum to (s + k(1 - p))/p. So it
           pools below p exactly when s > p.
        3. The walk of the (p, p) entry sums hi, the least achievable
           total above lo, as a candidate that is the total of a tuple
           over [f, a] of length hi_k (minimal_sets._build_set, step 3).
           hi > p, so by 2 that tuple pools to
           v0 = hi_k p/(hi + hi_k - p) < p. By the lemma below v0 >= b,
           so by 1 the start v0 is a member below p.
        4. From the start the climb steps to the predecessor of a
           successor and into the limit sequence of a limit, never to p or
           past it. The hierarchy is well ordered in descending order, so
           every ascending chain of members is finite and the climb ends,
           at the last member below p. It stops because the member above
           that one lies at or above p.

        Lemma: v0 >= b, wherever p is no chain point.

        - The pair (a, f) lies over [f, a]: f <= h(r), as r_hi <= h(r)
          and h(t) = h(r), and h(r) <= a, because h(r) is a member below
          r and no member lies in [t, r). Both contributions at p are
          positive, because a < t.
        - hi <= s: b < p, so by 2 the pair totals some s > p >= lo. hi is
          the least achievable total above lo, so hi <= s.
        - hi_k >= 2: a singleton m over [f, a] totals
          c(p, m) = p/m + p - 1 <= p < hi, as m >= f >= p, so no
          singleton totals hi.
        - k -> k p/(hi + k - p) rises in k, as hi > p. So
          v0 >= 2p/(hi + 2 - p) >= 2p/(s + 2 - p) = b.

        The start is not always the answer: a tuple pools to
        p/(1 + (s - p)/k), so a longer tuple whose total lies above hi can
        pool higher than hi's. At p = 306/727, hi is the total of a pair
        and v0 = 210/499, but the answer 117/278 is the pool of
        (26/51, 3/5, 2/3). So the climb checks the start, through its own
        entry. It classifies no member between the bottom of the level and
        the start.
        """
        if p._numerator * (self.floor_level + 1) == p._denominator:
            # the floor edge: the members below it lie under the floor
            self._check(ExactRational(1, self.floor_level + 2))
        seg = self._segment(p)
        if seg is not None and p == seg.r_lo:  # a chain point
            start = apply_rule((h_inverse(seg.anchor_low), p))
        else:
            start = minimal_sets._climb_start(self, p)
        return self._climb(self._record(start), ascending_key(p))

    def _climb(self, rec: _Record, pk):
        """From the member rec below p, the last member below p and the
        member above it; pk is p's key.

        Climbs through predecessors and limit sequences, never to p or
        past it; ascending chains of members are finite, so the climb
        ends. _straddle starts it from a member that can lie below the
        answer: the climb certifies that start, usually with one
        predecessor. A start at or above p would end the climb at once
        with a wrong pair, so it raises ConsistencyError.
        """
        below = pk.__gt__
        if not below(rec.key):
            raise ConsistencyError(f"the climb to {pk[1]} starts at {rec.key[1]}, not below it")
        while True:
            cur = rec.key[1]
            cls = self._classified(rec)
            if cls is Classification.SUCCESSOR:
                nxt = self._lowered(rec)
                if not below(nxt.key):
                    return cur, nxt.key[1]
                rec = nxt
            elif cls is Classification.LIMIT:
                rec = self._first_term(cur, below)
            else:
                raise ConsistencyError(f"climb reached a non-member waypoint {cur}")

    def _first_term(self, limit: ExactRational, below) -> _Record:
        """The record of the first term of limit's sequence whose key
        satisfies below."""
        seq = self.limit_sequence(limit)
        k = 0
        while not below(self._record(seq.term(k)).key):
            k += 1
        return self._record(seq.term(k))

    def next_below(self, u: ExactRational) -> ExactRational:
        """The member immediately below u; total on members except the
        floor edge 1/(L+1), whose neighbor lies under the floor (FloorError).

        Above 1/2 it is the closed form (n+1)/(2n+1), the first member of
        _around there; each row of a funding list asks for one. At or
        below 1/2 it is the first member of _straddle, whose member at or
        above u must be u itself.
        """
        if self.classify(u) is Classification.NOT_MEMBER:
            raise DomainError(f"next_below needs a member, got {u}")
        n, den = u._numerator, u._denominator
        if 2 * n > den:  # u > 1/2
            return self._member_of(n + 1, 2 * n + 1)
        lo, hi = self._straddle(u)
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
        if not (ZERO < require_exact(a) <= require_exact(b) <= ONE):
            raise InputError(f"need 0 < a <= b <= 1, got [{a}, {b}]")
        if isinstance(max_count, bool) or not isinstance(max_count, int):
            raise InputError(f"max_count must be an int, got {type(max_count).__name__}")
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
