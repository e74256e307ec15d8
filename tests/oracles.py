"""Independent cross-checks used by the test suite.

Everything here recomputes answers from first principles, deliberately
avoiding the package's own walk/recursion code paths: a closure
enumeration over the base segment, an exhaustive/random allowed-tuple
generator, an exact-rational LP feasibility decision for labelings, the
eager predecessor search the kernel's lazy one must agree with, and a
bracket that climbs from the bottom of the level instead of reading the
point's own minimal set, a team simulation context assembled from
the walked (x, x)-minimal set at every x, and team sizes closed over
eagerly built funding lists. Slower than the kernel by design;
correctness over speed.
"""

from fractions import Fraction
from heapq import heapify, heappop
from itertools import combinations_with_replacement
from math import gcd, lcm

from pfinhier import Classification, apply_rule, contribution, is_valid_application, make_context
from pfinhier.minimal_sets import component_pool
from pfinhier.teams import _funding_items
from pfinhier.trees import iter_nodes, leaf_paths

F = Fraction
HALF = F(1, 2)
ONE = F(1)


def apply_rule_reference(components) -> Fraction:
    """The pooling rule s / ((s - 1) + sum(1/p_i)) in plain Fraction arithmetic."""
    s = len(components)
    return F(s) / (F(s - 1) + sum((ONE / p for p in components), start=F(0)))


def contribution_reference(x: Fraction, p: Fraction) -> Fraction:
    """The weight x/p + x - 1 in plain Fraction arithmetic."""
    return x / p + x - ONE


def generates(T, x: Fraction) -> bool:
    """Whether the member tuple T pools to x exactly: its k reciprocals
    sum to k/x - (k - 1)."""
    k = len(T)
    return sum((ONE / p for p in T), start=F(0)) == k / x - (k - 1)


def base_members(n_max: int) -> list[Fraction]:
    """Ascending members of the base segment: 1/2, the n/(2n-1) ladder, 1."""
    return [HALF] + [F(n, 2 * n - 1) for n in range(n_max, 1, -1)] + [ONE]


def valid_rule_values(pool, max_len: int) -> set[Fraction]:
    """Every value a valid application generates from pool components."""
    out = set()
    for s in range(1, max_len + 1):
        for T in combinations_with_replacement(sorted(pool), s):
            if is_valid_application(T):
                out.add(apply_rule(T))
    return out


def window_hits(lo: Fraction, hi: Fraction, n_cap: int = 12) -> set[Fraction]:
    """Values strictly inside (lo, hi) generated over the base segment.

    Tuple lengths stop at 2: a generated value v < 1/2 forces every
    weight-positive component below v/(1-v) < 1, so 1/p_j >= 3/2 and
    (s-1) + sum(1/p) >= (5s-2)/2, putting v = s/((s-1)+sum) below 12/25
    once s >= 3. Pairs with a component beyond the n_cap ladder have
    1/p_1 + 1/p_2 <= 1/2 + (pool minimum), landing at or below the lo
    boundary, so the cap loses nothing for (12/25, 1/2).
    """
    pool = base_members(n_cap)
    hits = set()
    for v in valid_rule_values(pool, 2):
        if lo < v < hi:
            hits.add(v)
    return hits


def all_allowed_tuples(x: Fraction, d: Fraction, pool) -> list[tuple]:
    """Exhaustive (x, d)-allowed tuples with components from pool.

    Allowed: every contribution x/p + x - 1 strictly positive, total at
    most d. Finite because the pool is finite and the smallest positive
    contribution bounds the length.
    """
    items = sorted(p for p in pool if contribution(x, p) > 0)
    out = []

    def extend(prefix, start, budget):
        for i in range(start, len(items)):
            c = contribution(x, items[i])
            if c > budget:
                continue
            T = prefix + (items[i],)
            out.append(T)
            extend(T, i, budget - c)

    extend((), 0, d)
    return out


def sample_allowed_tuples(rng, x: Fraction, d: Fraction, pool, count: int):
    """Random allowed tuples, rejection-sampled; ascending component order."""
    items = sorted(p for p in pool if contribution(x, p) > 0)
    if not items:
        return []
    out = []
    while len(out) < count:
        s = rng.randint(1, 6)
        T = tuple(sorted(rng.choice(items) for _ in range(s)))
        total = sum(contribution(x, p) for p in T)
        if total <= d:
            out.append(T)
    return out


def pooled_variants(T, lower_of):
    """Pooled values (num, den) of every variant of the ascending tuple T.

    T itself, T with one component dropped (while one remains), and T
    with a component p replaced by lower_of(p) wherever that is not None.
    A variant of k components whose reciprocals sum to n/d pools to
    k*d / ((k - 1)*d + n), so one integer sum over T gives each in O(1).
    """
    s = len(T)
    sn, sd = 0, 1
    for p in T:
        sn, sd = sn * p.numerator + sd * p.denominator, sd * p.numerator
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


def eager_predecessor(hier, x: Fraction) -> Fraction:
    """The predecessor of the successor x < 1/2, by the eager search.

    Pools every variant of every tuple of xd_minimal(x, x) up front, keeps
    those above x, and tries them in exact ascending order (each run of
    equal floats sorted exactly) until one is a member. Components are
    lowered through hier.predecessor.
    """
    def lower_of(p):
        return hier.predecessor(p) if hier.classify(p) is Classification.SUCCESSOR else None

    xn, xd = x.numerator, x.denominator
    above = []
    for T in hier.xd_minimal(x, x).tuples:
        for num, den in pooled_variants(T, lower_of):
            if num * xd > xn * den:
                above.append((num / den, num, den))
    heapify(above)
    while above:
        f = above[0][0]
        tied = []
        while above and above[0][0] == f:
            _, num, den = heappop(above)
            tied.append(Fraction(num, den))
        for value in sorted(tied):
            if hier.classify(value) is not Classification.NOT_MEMBER:
                return value
    raise AssertionError(f"no member candidate above successor {x}")


def climb_bracket(hier, p: Fraction, strict: bool = False):
    """The last member below p (< p if strict, else <= p) and the member
    above it, by climbing from the member 1/(k+1) under p.

    Only classify, predecessor and limit_sequence are asked: a successor
    steps to its predecessor and a limit to the first term of its limit
    sequence below p, never past p. The hierarchy is well ordered in
    descending order, so the ascending climb ends. It classifies and
    lowers every successor it passes on the way up, which is slow near 2/5.
    """
    def below(v):
        return v < p if strict else v <= p

    cur = F(1, p.denominator // p.numerator + 1)
    while True:
        if cur == p:
            return cur, cur
        cls = hier.classify(cur)
        if cls is Classification.SUCCESSOR:
            nxt = hier.predecessor(cur)
            if not below(nxt):
                return cur, nxt
            cur = nxt
        elif cls is Classification.LIMIT:
            seq = hier.limit_sequence(cur)
            k = 0
            while not below(seq.term(k)):
                k += 1
            cur = seq.term(k)
        else:
            raise AssertionError(f"climb reached a non-member waypoint {cur}")


def walked_context(hier, x: Fraction) -> tuple:
    """make_context's (x, p0, P_prime, p0_upper, p0_upper_pred, funding)
    the general way, also above 1/2: P_prime the pool of the walked
    (x, x)-minimal set and p0_upper its p0'."""
    _, p0 = hier.bracket(x)
    P = hier.xd_minimal(x, x)
    P_prime = component_pool(P)
    pred = None if P.p0_prime == ONE else hier.predecessor(P.p0_prime)
    return x, p0, P_prime, P.p0_prime, pred, _funding_items(hier, x, p0, P_prime, pred)


def eager_team_sizes(hier, allocation: bool):
    """team_size (allocation False) or the allocator's _allocation_team_size
    (True) as a function of a member, each context's closure taken over its
    eagerly built funding list: the lcm of k (p0's denominator for the
    allocator, 1 otherwise) with every funding value's denominator and the
    least M such that k' * p0/q is a multiple of size(q) whenever M divides
    k', at each row q other than x, and at the reserve row with 1 - p0.
    Sizes are shared across calls on the returned function."""
    sizes = {}

    def modulus(v: Fraction, m: int) -> int:
        return v.denominator * m // gcd(v.numerator, v.denominator * m)

    def size(p: Fraction) -> int:
        if p not in sizes:
            sizes[p] = closure(p)
        return sizes[p]

    def closure(p: Fraction) -> int:
        if (p == ONE) if allocation else (p >= HALF):
            return p.denominator
        c = make_context(hier, p)
        k = c.p0.denominator if allocation else 1
        for _, value, _ in _funding_items(hier, c.x, c.p0, c.P_prime, c.p0_upper_pred):
            k = lcm(k, value.denominator)
        for q in reversed(c.P_prime):
            if q != c.x:
                k = lcm(k, modulus(c.p0 / q, size(q)))
        if c.p0_upper_pred is not None:
            k = lcm(k, modulus(ONE - c.p0, size(c.p0_upper_pred)))
        return k

    return size


def dominated_by_some(T, stored) -> bool:
    return any(
        len(S) == len(T) and all(a <= b for a, b in zip(S, T)) for S in stored
    )


def covered_by_some(T, stored) -> bool:
    """Whether the len(T) smallest components of some stored tuple lie at
    or below the ascending T, componentwise; the stored tuple may be longer."""
    return any(
        len(S) >= len(T) and all(a <= b for a, b in zip(S, T)) for S in stored
    )


def rand_tree(rng, depth: int):
    """A random tree of at most depth levels below its root, each node
    with one to four children; rng is a random.Random."""
    if depth == 0 or rng.random() < 0.35:
        return ()
    return tuple(rand_tree(rng, depth - 1) for _ in range(rng.randint(1, 4)))


def rule_closure_value(tree) -> Fraction:
    """Tree value with a membership certificate.

    Recomputes the bottom-up pooling and asserts that every node's kept
    children form a valid application; since leaves start at 1 and the
    generating rule is closed over valid applications, a clean pass
    proves the root value lies in the hierarchy without running the
    classifier.
    """
    if not tree:
        return ONE
    vals = [rule_closure_value(child) for child in tree]
    kept = list(vals)
    while True:
        v = apply_rule(tuple(kept))
        bad = [p for p in kept if contribution(v, p) < 0]
        if not bad:
            break
        kept = [p for p in kept if contribution(v, p) >= 0]
    assert is_valid_application(tuple(kept)), (kept, v)
    return v


# ---- exact LP feasibility (phase-1 simplex, Bland's rule) ----


def lp_feasible(constraints, num_vars: int) -> bool:
    """Decide feasibility of {x >= 0 : constraints} exactly.

    constraints: list of (coeffs: dict var_index -> Fraction, sense, rhs)
    with sense one of "<=", ">=", "==". Dense phase-1 tableau over
    Fraction; Bland's rule guarantees termination.
    """
    rows = []
    for coeffs, sense, rhs in constraints:
        row = [F(0)] * num_vars
        for j, a in coeffs.items():
            row[j] += F(a)
        rhs = F(rhs)
        if rhs < 0:
            row = [-a for a in row]
            rhs = -rhs
            sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
        rows.append((row, sense, rhs))

    n_slack = sum(1 for _, sense, _ in rows if sense != "==")
    n_art = sum(1 for _, sense, _ in rows if sense != "<=")
    total = num_vars + n_slack + n_art
    tableau = []
    basis = []
    si = num_vars
    ai = num_vars + n_slack
    for row, sense, rhs in rows:
        full = row + [F(0)] * (n_slack + n_art) + [rhs]
        if sense == "<=":
            full[si] = F(1)
            basis.append(si)
            si += 1
        elif sense == ">=":
            full[si] = F(-1)
            full[ai] = F(1)
            basis.append(ai)
            si += 1
            ai += 1
        else:
            full[ai] = F(1)
            basis.append(ai)
            ai += 1
        tableau.append(full)

    # phase-1 objective: minimize the artificial total
    art_lo = num_vars + n_slack
    obj = [F(0)] * (total + 1)
    for r, b in enumerate(basis):
        if b >= art_lo:
            for j in range(total + 1):
                obj[j] += tableau[r][j]

    while True:
        # artificials only ever leave the basis; scan the real columns
        enter = next((j for j in range(art_lo) if obj[j] > 0), None)
        if enter is None:
            break
        best = None
        leave = None
        for r in range(len(tableau)):
            a = tableau[r][enter]
            if a > 0:
                ratio = tableau[r][total] / a
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[leave]
                ):
                    best = ratio
                    leave = r
        if leave is None:
            # unbounded phase-1 cannot happen; defensive
            return False
        piv = tableau[leave][enter]
        tableau[leave] = [a / piv for a in tableau[leave]]
        for r in range(len(tableau)):
            if r != leave and tableau[r][enter] != 0:
                f = tableau[r][enter]
                tableau[r] = [
                    a - f * b for a, b in zip(tableau[r], tableau[leave])
                ]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, tableau[leave])]
        basis[leave] = enter

    return obj[total] == 0


def labeling_feasible(tree, p: Fraction, q: Fraction = ONE) -> bool:
    """Does any valid (p, q)-labeling of tree exist? Decided by exact LP.

    Variables are nu1, nu2 per node; the three labeling conditions are
    linear, so feasibility of the polytope settles existence (with
    nu1 >= 0 in place of > 0, which cannot change feasibility of the
    closed conditions).
    """
    nodes = [path for path, _ in iter_nodes(tree)]
    index = {path: 2 * i for i, path in enumerate(nodes)}
    children = {path: [] for path in nodes}
    for path in nodes:
        if path:
            children[path[:-1]].append(path)

    cons = []
    cons.append(({index[()]: 1}, ">=", p))
    cons.append(({index[()] + 1: 1}, "==", F(0)))
    for path in nodes:
        if children[path]:
            coeffs = {index[path]: -1, index[path] + 1: -1}
            for c in children[path]:
                coeffs[index[c] + 1] = coeffs.get(index[c] + 1, F(0)) + 1
            cons.append((coeffs, "<=", F(0)))
        if path:
            cons.append(({index[path]: 1, index[path] + 1: 1}, ">=", p))
    for leaf in leaf_paths(tree):
        coeffs = {}
        for k in range(len(leaf) + 1):
            coeffs[index[leaf[:k]]] = coeffs.get(index[leaf[:k]], F(0)) + 1
        cons.append((coeffs, "<=", q))

    return lp_feasible(cons, 2 * len(nodes))
