"""Team simulation of probabilistic learners.

Given a success probability x and a decision-tree trace of a probabilistic
machine achieving it, `simulate_team` produces an integer head-count
allocation for a team of k deterministic members in which at least
p0 * k members succeed on every branch, where p0 is the smallest
hierarchy member at or above x.

The funding analysis lives in `g_function` (single follower mass) and
`g_prime` (best split of a follower mass), both exact over rationals.

Above 1/2 a context is a closed form: its pool is the ladder of base
members from p0 up to 1, and no minimal set is walked (see make_context).
Team sizes price a context's rows from integers; its funding list is
built when g_prime first reads it.
"""

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm

from .errors import ConsistencyError, DomainError, InputError
from .hierarchy import Classification, Hierarchy
from .memo import memoized
from .minimal_sets import component_pool
from .rationals import ExactRational, HALF, ONE, ZERO, require_exact
from .rules import contribution
from .trees import (
    Labeling,
    Path,
    Tree,
    format_labeling,
    format_path,
    format_tree,
    iter_nodes,
    parse_labeling,
    parse_tree,
    validate_labeling,
)


@dataclass(frozen=True)
class SimulationContext:
    """Everything the allocator needs about one success level x.

    p0_upper is the smallest member whose h-image exceeds x (the reserve
    row); p0_upper_pred is its predecessor, None above 1/2 where
    p0_upper is the maximal element.  funding lists (cost, value, row)
    triples: spending cost on a child buys value toward its success
    count and lands the child on the given row of P_prime.  It is built
    on first read from the other fields, so the constructor does not take
    it and == and repr omit it.
    """

    x: ExactRational
    p0: ExactRational
    p0_upper: ExactRational
    p0_upper_pred: ExactRational | None
    P_prime: tuple[ExactRational, ...]
    hier: Hierarchy = field(compare=False, repr=False)
    _gp_memo: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def base(self) -> bool:
        return self.p0 > HALF

    @cached_property
    def funding(self):
        return _funding_items(self.hier, self.x, self.p0, self.P_prime, self.p0_upper_pred)

    @cached_property
    def ranked(self):
        """funding by value per cost, best first: the order that g_prime's
        (i, budget) memo keys index."""
        return sorted(self.funding, key=lambda it: it[1] / it[0], reverse=True)


def _funding_items(hier, x, p0, P_prime, p0_upper_pred):
    # Row q is reachable while the re-normalized target stays below the
    # next pool element; the cheapest way in is at the member just under
    # that ceiling.  Above the top row the ceiling is p0_upper_pred
    # (the maximal element when there is none).
    items = []
    for i, q in enumerate(P_prime):
        if i + 1 < len(P_prime):
            ceiling = P_prime[i + 1]
        else:
            ceiling = p0_upper_pred
        entry = hier.next_below(ceiling) if ceiling is not None else ONE
        cost = contribution(x, entry)
        value = contribution(p0, q)
        if cost <= 0 or value <= 0:
            raise ConsistencyError(
                f"degenerate funding item for x={x}: row {q} cost {cost} value {value}"
            )
        items.append((cost, value, q))
    return tuple(items)


@memoized
def make_context(hier: Hierarchy, x: ExactRational) -> SimulationContext:
    """Assemble the simulation context for success level x (its funding
    list is built on first read).

    x need not be a hierarchy member; p0 rounds it up to one. P_prime is
    the pool of the (x, x)-minimal set P and p0_upper its p0'. Above 1/2
    both are closed forms, so P is not walked: for p0 = n/(2n - 1),
    P_prime is n/(2n - 1), (n - 1)/(2n - 3), ..., 2/3, 1, every member in
    [p0, 1], and p0_upper = 1.

    - Every contribution c(x, q) = x/q + x - 1 is positive for q <= 1,
      as x > 1/2; so p0' = 1, the largest member of [floor, 1].
    - A stored tuple is (x, x)-allowed: its contributions are positive
      and total at most x, so each is at most x, and c(x, q) <= x gives
      q >= x. Its components are members, so each is at least p0.
    - Every member q in [p0, 1] is a component: the walk at budget x
      starts at p0, the least member with c(x, q) <= x, and steps up
      through predecessors to 1, as every member above 1/2 but 1 is a
      successor. It extends each tuple of the inner set at x - c(x, q),
      or the empty tuple, by q. Each walk ends at 1, so by induction the
      set at any budget b holds (1, ..., 1) with floor(b/(2x - 1)) 1s
      (the empty tuple when there are none): (q, 1, ..., 1) is a tuple
      of P for each member q >= p0.
    """
    _, p0 = hier.bracket(x)
    if p0 > HALF:
        n = p0.numerator
        P_prime = tuple(hier._member_of(m, 2 * m - 1) for m in range(n, 0, -1))
        p0_upper = ONE
    else:
        P = hier.xd_minimal(x, x)
        P_prime = component_pool(P)
        p0_upper = P.p0_prime
    if p0_upper == ONE:
        p0_upper_pred = None
    else:
        if hier.classify(p0_upper) is not Classification.SUCCESSOR:
            raise ConsistencyError(
                f"reserve row {p0_upper} for x={x} is not a successor"
            )
        p0_upper_pred = hier.predecessor(p0_upper)
        # Reserve teams must clear the global target on their own.
        if p0_upper_pred * (ONE - p0) < p0:
            raise ConsistencyError(
                f"reserve success bound fails for x={x}: "
                f"{p0_upper_pred} * (1 - {p0}) < {p0}"
            )
    return SimulationContext(
        x=x,
        p0=p0,
        p0_upper=p0_upper,
        p0_upper_pred=p0_upper_pred,
        P_prime=P_prime,
        hier=hier,
    )


def _g_row(ctx: SimulationContext, r: ExactRational):
    """Return (g(r), row) where row is the P_prime element funded, or
    (0, None) when r funds nothing."""
    x = ctx.x
    tau = x / (ONE - x + r)
    if tau > ONE:
        return ZERO, None
    y = ctx.hier.bracket(tau)[1]
    if ctx.p0_upper_pred is not None and y > ctx.p0_upper_pred:
        raise ConsistencyError(f"funded target {y} escaped the reserve row for x={x}")
    if y == ctx.p0_upper_pred:
        return ZERO, None
    i = bisect_right(ctx.P_prime, y)  # P_prime ascends
    if i == 0:
        return ZERO, None
    row = ctx.P_prime[i - 1]
    return contribution(ctx.p0, row), row


def _check_mass(ctx: SimulationContext, r) -> None:
    if not (ZERO <= require_exact(r) <= ctx.x):
        raise InputError(f"follower mass {r} outside [0, {ctx.x}]")


def g_function(ctx: SimulationContext, r: ExactRational) -> ExactRational:
    """Success mass a follower crowd of size r*k contributes when kept whole."""
    _check_mass(ctx, r)
    return _g_row(ctx, r)[0]


def g_prime(ctx: SimulationContext, r: ExactRational) -> ExactRational:
    """Best total success mass over all finite splits of a follower mass r.

    Equals the optimum of an unbounded knapsack over the funding items:
    splitting r into parts and running g on each part can do no better
    than buying, for each part, the row it lands on at that row's entry
    cost.  Conversely every multiset of items is realized by an actual
    split.  Solved by memoized branch and bound; exact, no rounding.
    """
    _check_mass(ctx, r)
    if r == 0:
        return ZERO
    items = ctx.ranked
    memo = ctx._gp_memo

    def best(i: int, budget: ExactRational) -> ExactRational:
        key = (i, budget)
        hit = memo.get(key)
        if hit is not None:
            return hit
        while i < len(items) and items[i][0] > budget:
            i += 1
        if i == len(items):
            out = ZERO
        else:
            cost, value, _ = items[i]
            take = value + best(i, budget - cost)
            skip = best(i + 1, budget)
            out = take if take > skip else skip
        memo[key] = out
        return out

    out = best(0, r)
    if out > ctx.p0:
        raise ConsistencyError(f"funding total {out} exceeds target {ctx.p0} at x={ctx.x}")
    return out


# ---- team sizes ----

def _modulus(n: int, d: int, m: int) -> int:
    # Least M such that (n/d)*k is a multiple of m whenever M divides k:
    # d*m divides n*k, so n/d need not be in lowest terms.
    target = d * m
    return target // gcd(n, target)


def _closure_size(ctx: SimulationContext, k: int, size) -> int:
    """lcm of k with every funding value's denominator and sub-team
    modulus of ctx, read off its rows without building the funding list:
    row q's value c(p0, q) is (pn*(qd + qn) - pd*qn)/(pd*qn).

    size(q) is the team size the recursion demands at row q. Rows are
    asked from the largest down, so the recursion at each row finds the
    rows above it already memoized instead of nesting under them.
    """
    pn, pd = ctx.p0.numerator, ctx.p0.denominator
    xn, xd = ctx.x.numerator, ctx.x.denominator
    for q in reversed(ctx.P_prime):
        qn, qd = q.numerator, q.denominator
        num, den = pn * (qd + qn) - pd * qn, pd * qn
        if num <= 0:
            raise ConsistencyError(f"row {q} has value {num}/{den} at x={ctx.x}")
        k = lcm(k, den // gcd(num, den))
        if qn != xn or qd != xd:
            k = lcm(k, _modulus(pn * qd, pd * qn, size(q)))
    if ctx.p0_upper_pred is not None:
        k = lcm(k, _modulus(pd - pn, pd, size(ctx.p0_upper_pred)))
    return k


@memoized
def team_size(hier: Hierarchy, p: ExactRational) -> int:
    """Size of the smallest uniformly sufficient team for member p."""
    if hier.classify(p) is Classification.NOT_MEMBER:
        raise DomainError(f"team size is defined for hierarchy members only: {p}")
    if p >= HALF:
        # n/(2n-1) needs 2n-1 members; covers 1 -> 1 and 1/2 -> 2.
        return p.denominator
    return _closure_size(make_context(hier, p), 1, lambda q: team_size(hier, q))


@memoized
def _allocation_team_size(hier: Hierarchy, x: ExactRational) -> int:
    """Team size the allocator actually uses at success level x.

    Differs from team_size at the base constants: the allocator funds
    sub-teams through the g machinery even above 1/2, so its k must
    absorb every funding denominator and sub-team modulus there too.
    """
    if x == ONE:
        return 1
    ctx = make_context(hier, x)
    return _closure_size(ctx, ctx.p0.denominator, lambda q: _allocation_team_size(hier, q))


# ---- the allocator ----

@dataclass(frozen=True)
class MachineTrace:
    tree: Tree
    labeling: Labeling


@dataclass(frozen=True)
class TeamAllocation:
    k: int
    target: int
    assignment: Labeling
    successes: dict[Path, int]


def parse_trace(text: str) -> MachineTrace:
    """Trace file: first nonblank line is the tree, the rest a labeling."""
    lines = text.splitlines()
    i = 0
    while i < len(lines) and not lines[i].strip():
        i += 1
    if i == len(lines):
        raise InputError("empty trace")
    tree = parse_tree(lines[i])
    rest = "\n".join(lines[i + 1:])
    if not rest.strip():
        raise InputError("trace has no labeling")
    return MachineTrace(tree=tree, labeling=parse_labeling(rest))


def format_trace(trace: MachineTrace) -> str:
    return format_tree(trace.tree) + "\n" + format_labeling(trace.labeling)


def _as_count(v: ExactRational, what: str) -> int:
    if v.denominator != 1:
        raise ConsistencyError(f"{what} is not an integer: {v}")
    return v.numerator


def simulate_team(ctx: SimulationContext, trace: MachineTrace) -> TeamAllocation:
    """Allocate an integer team over the trace of a machine with success ctx.x.

    The trace labeling must be an exact (x, 1)-labeling with every node
    carrying mass x (the canonical labelings from rational_labeling
    qualify).  Returns the team size k, the per-node head counts as a
    (p0*k, k)-labeling, and the surviving count on each branch, each at
    least p0*k.  The returned assignment is re-validated; failure there
    is a bug, not bad input.
    """
    tree, lab = trace.tree, trace.labeling
    if lab.p != ctx.x or lab.q != ONE:
        raise InputError(
            f"trace must be an ({ctx.x}, 1)-labeling, got ({lab.p}, {lab.q})"
        )
    ok, msg = validate_labeling(tree, lab)
    if not ok:
        raise InputError(f"invalid trace labeling: {msg}")
    for path, _ in iter_nodes(tree):
        if lab.nu1[path] + lab.nu2[path] != ctx.x:
            raise InputError(
                f"trace is not tight at {format_path(path) or 'root'}: "
                "every node must carry mass exactly x"
            )

    k = _allocation_team_size(ctx.hier, ctx.x)
    target = _as_count(ctx.p0 * k, "success target")
    nu1: dict[Path, int] = {}
    nu2: dict[Path, int] = {(): 0}
    successes: dict[Path, int] = {}

    def walk(c: SimulationContext, kc: int, node: Tree, path: Path, joiners: int):
        scale = c.x / lab.p
        m = _as_count(c.p0 * kc, "sub-team target")
        if m < target:
            raise ConsistencyError(f"sub-team target {m} fell below {target}")
        live = m - joiners
        if live < 0:
            raise ConsistencyError(f"negative conjecture count at {format_path(path)}")
        nu1[path] = live
        if not node:
            successes[path] = live + nu2[path]
            return
        for i, child in enumerate(node):
            cpath = path + (i,)
            r = lab.nu2[cpath] * scale
            if r == c.x:
                # Chain step: the whole sub-team follows its own conjecture.
                nu2[cpath] = m
                walk(c, kc, child, cpath, m)
                continue
            followers = _as_count(g_prime(c, r) * kc, "follower count")
            nu2[cpath] = followers
            g, row = _g_row(c, r)
            if g > 0:
                sub_join = _as_count(g * kc, "joiner count")
                if sub_join > followers:
                    raise ConsistencyError("single-row funding beat the optimum")
                ki = _as_count(c.p0 / row * kc, "funded sub-team size")
                sub = make_context(c.hier, row)
            else:
                sub_join = 0
                ki = _as_count((ONE - c.p0) * kc, "reserve sub-team size")
                if c.p0_upper_pred is None:
                    raise ConsistencyError("base context produced an unfunded branch")
                sub = make_context(c.hier, c.p0_upper_pred)
            if ki % _allocation_team_size(sub.hier, sub.x):
                raise ConsistencyError(
                    f"sub-team size {ki} not a multiple of the row requirement"
                )
            walk(sub, ki, child, cpath, sub_join)

    walk(ctx, k, tree, (), 0)

    assignment = Labeling(
        p=ExactRational(target),
        q=ExactRational(k),
        nu1={p: ExactRational(v) for p, v in nu1.items()},
        nu2={p: ExactRational(v) for p, v in nu2.items()},
    )
    ok, msg = validate_labeling(tree, assignment)
    if not ok:
        raise ConsistencyError(f"allocation failed validation: {msg}")
    for leaf, s in successes.items():
        if s < target:
            raise ConsistencyError(
                f"branch {format_path(leaf)} finishes with {s} < {target} successes"
            )
    return TeamAllocation(k=k, target=target, assignment=assignment, successes=successes)
