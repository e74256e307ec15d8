"""Desk-scale acceptance gate.

Nine timed checks covering the base segment, the decision procedure, the
segment recurrence, minimal sets, tree labelings, ordinal order types,
the descending window walk, team simulation, and the h-conjugation law.
Each check prints one PASS line with its runtime and asserts a hard time
bound; run with -s (or read the captured output) to see the lines.
"""

import random
import time
from fractions import Fraction as F

import pytest

from pfinhier import (
    Classification,
    Hierarchy,
    alpha_at,
    apply_rule,
    format_ordinal,
    g_function,
    g_prime,
    h_map,
    integer_labeling,
    make_context,
    nat_add,
    nat_mul,
    omega_pow,
    ord_mul,
    p_of_tree,
    parse_tree,
    prune_dominated,
    rational_labeling,
    simulate_team,
    team_size,
    validate_labeling,
)
from pfinhier.ordinals import from_int
from pfinhier.teams import MachineTrace
from pfinhier.trees import Labeling

from oracles import (
    base_members,
    dominated_by_some,
    labeling_feasible,
    rand_tree,
    rule_closure_value,
    sample_allowed_tuples,
    valid_rule_values,
    window_hits,
)


@pytest.fixture(scope="module")
def ahier():
    # fresh instance so every criterion pays its own cold-start cost
    return Hierarchy(floor_level=4)


def report(n: int, label: str, t0: float, bound: float):
    dt = time.perf_counter() - t0
    line = f"criterion {n} ({label}): PASS in {dt:.2f}s (bound {bound:g}s)"
    print(line)
    assert dt < bound, line


def test_criterion_1_base_segment(ahier):
    t0 = time.perf_counter()
    got = ahier.enumerate_interval(F(1, 2), F(1), 12)
    assert got == [F(1, 2)] + [F(n, 2 * n - 1) for n in range(11, 0, -1)]
    assert ahier.classify(F(1, 2)) is Classification.LIMIT
    for n in range(2, 12):
        m = F(n, 2 * n - 1)
        assert ahier.classify(m) is Classification.SUCCESSOR
        assert ahier.predecessor(m) == F(n - 1, 2 * (n - 1) - 1)
    report(1, "base segment", t0, 1)


def test_criterion_2_decidability(ahier):
    t0 = time.perf_counter()
    assert ahier.decide_equivalence(F(24, 49), F(1, 2))
    report(2, "decide 24/49 ~ 1/2", t0, 5)
    t0 = time.perf_counter()
    assert not ahier.decide_equivalence(F(24, 49), F(12, 25))
    report(2, "decide 24/49 !~ 12/25", t0, 5)
    t0 = time.perf_counter()
    assert not ahier.decide_equivalence(F(12, 25), F(1, 2))
    report(2, "decide 12/25 !~ 1/2", t0, 5)
    t0 = time.perf_counter()
    # rule enumeration confirms the gap is empty and 12/25 is generated
    assert window_hits(F(12, 25), F(1, 2)) == set()
    assert F(12, 25) in valid_rule_values(base_members(12), 2)
    report(2, "gap oracle", t0, 5)


def test_criterion_3_segment_sequence(ahier):
    t0 = time.perf_counter()
    seq = ahier.limit_sequence(F(2, 5))
    terms = seq.take(21)
    assert terms[:4] == [F(1, 2), F(4, 9), F(8, 19), F(16, 39)]
    assert all(a > b for a, b in zip(terms, terms[1:]))
    assert all(t > F(2, 5) for t in terms)
    assert abs(terms[20] - F(2, 5)) < F(1, 10**6)
    report(3, "segment sequence", t0, 1)


def test_criterion_4_minimal_set(ahier):
    t0 = time.perf_counter()
    P = ahier.xd_minimal(F(12, 25), F(12, 25))
    pruned = prune_dominated(P.tuples)
    assert pruned == ((F(1, 2),), (F(3, 5), F(2, 3)))
    for T in P.tuples:
        if T not in pruned:
            assert dominated_by_some(T, pruned)
    rng = random.Random(425)
    pool = [p for p in base_members(12) if p >= P.floor]
    for T in sample_allowed_tuples(rng, F(12, 25), F(12, 25), pool, 100):
        assert dominated_by_some(T, P.tuples)
    report(4, "minimal set", t0, 5)


def test_criterion_5_trees(ahier):
    t0 = time.perf_counter()
    for s in range(1, 11):
        star = parse_tree("(" + "()" * s + ")")
        assert p_of_tree(star) == F(s, 2 * s - 1)
    six = parse_tree("(()(()()()))")
    assert p_of_tree(six) == F(6, 11)
    m, n, lab = integer_labeling(six)
    assert (m, n) == (6, 11)
    ok, msg = validate_labeling(six, lab)
    assert ok, msg

    rng = random.Random(1729)
    for _ in range(50):
        tree = rand_tree(rng, 3)
        p = p_of_tree(tree)
        lab = rational_labeling(tree)
        ok, msg = validate_labeling(tree, lab)
        assert ok and lab.p == p, msg
        # optimality bracket: p is achieved, p + 1/1000 is not
        assert not labeling_feasible(tree, p + F(1, 1000))
        # membership certificate via closure of the generating rule
        assert rule_closure_value(tree) == p
        if p >= F(12, 25):
            # classifier agreement, kept to the tractable window
            assert ahier.classify(p) is not Classification.NOT_MEMBER
    report(5, "trees and labelings", t0, 60)


def _rand_ordinal(rng, depth: int):
    if depth == 0 or rng.random() < 0.35:
        return from_int(rng.randint(0, 4))
    total = from_int(rng.randint(0, 3))
    for _ in range(rng.randint(1, 2)):
        term = ord_mul(omega_pow(_rand_ordinal(rng, depth - 1)), from_int(rng.randint(1, 4)))
        total = nat_add(total, term)
    return total


def test_criterion_6_ordinals():
    t0 = time.perf_counter()
    table = {
        F(1, 2): "w",
        F(1, 3): "w^(w)",
        F(2, 5): "w^(2)",
        F(3, 8): "w^(3)",
        F(1, 4): "w^(w^(w))",
    }
    for x, want in table.items():
        assert format_ordinal(alpha_at(x)) == want
    rng = random.Random(6174)
    for _ in range(1000):
        a = _rand_ordinal(rng, 2)
        b = _rand_ordinal(rng, 2)
        c = _rand_ordinal(rng, 1)
        assert nat_add(a, b) == nat_add(b, a)
        assert nat_mul(a, b) == nat_mul(b, a)
        assert nat_add(nat_add(a, b), c) == nat_add(a, nat_add(b, c))
        assert nat_mul(nat_mul(a, b), c) == nat_mul(a, nat_mul(b, c))
        assert nat_mul(a, nat_add(b, c)) == nat_add(nat_mul(a, b), nat_mul(a, c))
    report(6, "ordinal order types", t0, 5)


def test_criterion_7_window_walk(ahier):
    t0 = time.perf_counter()
    walked = [F(1, 2)]
    while len(walked) < 20:
        walked.append(ahier.next_below(walked[-1]))
    assert all(a > b for a, b in zip(walked, walked[1:]))
    assert all(v > F(4, 9) for v in walked)
    assert walked[:3] == [F(1, 2), F(12, 25), F(8, 17)]
    # rule enumeration over the window agrees member for member
    oracle = sorted(window_hits(F(4, 9), F(1, 2), n_cap=25), reverse=True)
    assert walked == [F(1, 2)] + oracle[:19]
    report(7, "window walk", t0, 10)


def test_criterion_8_team_simulation(ahier):
    t0 = time.perf_counter()
    ctx = make_context(ahier, F(12, 25))
    assert ctx.p0_upper == F(2, 3)
    assert ctx.p0_upper_pred == F(1)
    assert ctx.P_prime == (F(1, 2), F(3, 5), F(2, 3))
    assert g_function(ctx, F(7, 25)) == F(7, 25)
    assert g_function(ctx, F(5, 25)) == F(5, 25)
    assert g_function(ctx, F(1, 25)) == 0
    assert g_prime(ctx, F(12, 25)) == F(12, 25)
    assert team_size(ahier, F(12, 25)) == 25
    for n in range(1, 9):
        assert team_size(ahier, F(n, 2 * n - 1)) == 2 * n - 1

    def check(tree, lab, x):
        alloc = simulate_team(make_context(ahier, x), MachineTrace(tree=tree, labeling=lab))
        ok, msg = validate_labeling(tree, alloc.assignment)
        assert ok, msg
        assert alloc.assignment.p == alloc.target and alloc.assignment.q == alloc.k
        assert all(s >= alloc.target for s in alloc.successes.values())

    # crafted traces: the gap-edge machine and a pure chain (pass-through)
    clamped = parse_tree("((()())(()()())((())))")
    check(clamped, rational_labeling(clamped), F(12, 25))
    chain = parse_tree("(())")
    chain_lab = Labeling(
        p=F(12, 25), q=F(1),
        nu1={(): F(12, 25), (0,): F(0)},
        nu2={(): F(0), (0,): F(12, 25)},
    )
    check(chain, chain_lab, F(12, 25))

    rng = random.Random(825)
    done = 0
    while done < 18:
        tree = rand_tree(rng, 3)
        p = p_of_tree(tree)
        if p < F(12, 25):
            continue
        check(tree, rational_labeling(tree), p)
        done += 1
    report(8, "team simulation", t0, 60)


def test_criterion_9_h_sweep():
    t0 = time.perf_counter()
    rng = random.Random(1961)
    pool = base_members(12)
    for _ in range(200):
        T = tuple(rng.choice(pool) for _ in range(rng.randint(1, 5)))
        assert h_map(apply_rule(T)) == apply_rule(tuple(h_map(p) for p in T))
    report(9, "h-conjugation sweep", t0, 5)
