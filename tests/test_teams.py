"""Simulation contexts, funding optima, team sizes, and allocations."""

from fractions import Fraction as F

import pytest

from pfinhier import (
    Classification,
    ConsistencyError,
    DomainError,
    Hierarchy,
    InputError,
    Labeling,
    format_trace,
    g_function,
    g_prime,
    make_context,
    parse_trace,
    parse_tree,
    rational_labeling,
    simulate_team,
    team_size,
    validate_labeling,
)
from pfinhier import minimal_sets, teams
from pfinhier.teams import MachineTrace, SimulationContext, _allocation_team_size, _closure_size

from oracles import eager_team_sizes, walked_context


def test_context_fields(hier):
    c = make_context(hier, F(2, 3))
    assert c.p0 == F(2, 3) and c.p0_upper == 1 and c.p0_upper_pred is None
    assert c.base
    assert c.P_prime == (F(2, 3), F(1))
    assert c.funding == ((F(2, 3), F(2, 3), F(2, 3)), (F(1, 3), F(1, 3), F(1)))

    c = make_context(hier, F(1, 2))
    assert c.p0 == F(1, 2) and c.p0_upper == F(2, 3) and c.p0_upper_pred == 1
    assert not c.base
    assert c.P_prime == (F(1, 2), F(2, 3))
    assert c.funding == ((F(1, 3), F(1, 2), F(1, 2)), (F(1, 4), F(1, 4), F(2, 3)))

    c = make_context(hier, F(12, 25))
    assert c.p0 == F(12, 25) and c.p0_upper == F(2, 3)
    assert c.P_prime == (F(1, 2), F(3, 5), F(2, 3))
    # reaching row 1/2 costs 8/25 but is worth 11/25 toward the target
    assert c.funding == (
        (F(8, 25), F(11, 25), F(1, 2)),
        (F(7, 25), F(7, 25), F(3, 5)),
        (F(1, 5), F(1, 5), F(2, 3)),
    )


def test_nonmember_handling(hier):
    # contexts round a nonmember up to its ceiling; team_size refuses
    c = make_context(hier, F(9, 10))
    assert c.p0 == 1
    with pytest.raises(DomainError):
        team_size(hier, F(9, 10))
    with pytest.raises(DomainError):
        team_size(hier, F(49, 100))


def test_team_sizes(hier):
    assert team_size(hier, F(1)) == 1
    assert team_size(hier, F(2, 3)) == 3
    assert team_size(hier, F(3, 5)) == 5
    assert team_size(hier, F(4, 7)) == 7
    assert team_size(hier, F(1, 2)) == 2
    assert team_size(hier, F(12, 25)) == 25
    assert team_size(hier, F(8, 17)) == 51


def test_allocation_sizes(hier):
    # allocation sizes close under the divisibility demands of sub-teams
    assert _allocation_team_size(hier, F(2, 3)) == 3
    assert _allocation_team_size(hier, F(4, 7)) == 21
    assert _allocation_team_size(hier, F(6, 11)) == 110
    assert _allocation_team_size(hier, F(1, 2)) == 4
    assert _allocation_team_size(hier, F(12, 25)) == 25


@pytest.mark.parametrize("floor", [2, 4])
def test_contexts_above_half_match_the_walked_set(floor):
    # above 1/2 make_context reads its pool and p0' off a closed form; the
    # walked (x, x)-minimal set must give the same context everywhere
    h = Hierarchy(floor_level=floor)
    points = {F(a, b) for b in range(1, 121) for a in range(b // 2 + 1, b + 1)}
    assert len(points) == 2193
    for x in sorted(points):
        c = make_context(h, x)
        fields = (c.x, c.p0, c.P_prime, c.p0_upper, c.p0_upper_pred, c.funding)
        assert fields == walked_context(h, x), x


def test_star_contexts_walk_no_minimal_set(monkeypatch):
    # the 96-leaf star funds a row of every base member from 96/191 to 1;
    # each row's context walked its own minimal set, 4,656 walks in all
    walks = []
    real_walk = minimal_sets._walk

    def recorded(hier, table, dn, dd):
        walks.append(table.x)
        return real_walk(hier, table, dn, dd)

    monkeypatch.setattr(minimal_sets, "_walk", recorded)
    h = Hierarchy(floor_level=4)
    tree = parse_tree("(" + "()" * 96 + ")")
    lab = rational_labeling(tree)
    alloc = simulate_team(make_context(h, lab.p), MachineTrace(tree=tree, labeling=lab))
    assert alloc.k == 1430046356193630062116189594785722721150
    assert team_size(h, F(96, 191)) == 191
    assert walks == []


def test_a_base_star_builds_one_funding_list(monkeypatch):
    # only g_prime reads a context's funding, and on a star only the root
    # context's: 96 rows, each but the top one (whose ceiling is 1) asking
    # next_below once. A leaf's context is read for its p0 and allocation
    # team size alone
    lists, below = [], []
    real_items = teams._funding_items
    real_next_below = Hierarchy.next_below

    def items(*args):
        lists.append(real_items(*args))
        return lists[-1]

    def next_below(self, u):
        below.append(u)
        return real_next_below(self, u)

    monkeypatch.setattr(teams, "_funding_items", items)
    monkeypatch.setattr(Hierarchy, "next_below", next_below)
    h = Hierarchy(floor_level=4)
    tree = parse_tree("(" + "()" * 96 + ")")
    lab = rational_labeling(tree)
    alloc = simulate_team(make_context(h, lab.p), MachineTrace(tree=tree, labeling=lab))
    assert alloc.k == 1430046356193630062116189594785722721150
    assert (len(lists), sum(map(len, lists)), len(below)) == (1, 96, 95)


def test_closure_sizes_match_the_eager_funding():
    # the closure prices each row from integers and builds no funding
    # list; the oracle closes over the eagerly built lists
    h = Hierarchy()
    points = [F(n, 2 * n - 1) for n in range(1, 121)]
    points += sorted(
        p for p in {F(a, b) for b in range(2, 31) for a in range(1, b)}
        if F(5, 12) <= p < F(1, 2) and h.classify(p) is not Classification.NOT_MEMBER
    )
    assert len(points) == 134
    sizes, allocation_sizes = eager_team_sizes(h, False), eager_team_sizes(h, True)
    for p in points:
        assert team_size(h, p) == sizes(p), p
        assert _allocation_team_size(h, p) == allocation_sizes(p), p


def test_degenerate_funding_still_raises(monkeypatch):
    # a context prices no funding item until g_prime reads its funding
    h = Hierarchy()
    monkeypatch.setattr(teams, "contribution", lambda x, p: F(0))
    c = make_context(h, F(12, 25))
    with pytest.raises(ConsistencyError, match="degenerate funding item"):
        g_prime(c, F(1, 5))
    monkeypatch.undo()
    # c(1/2, 1) = 0: the closure refuses the row before sizing anything
    c = SimulationContext(
        x=F(1, 2), p0=F(1, 2), p0_upper=F(2, 3), p0_upper_pred=F(1),
        P_prime=(F(1, 2), F(1)), hier=h,
    )
    with pytest.raises(ConsistencyError, match="row 1 has value 0"):
        _closure_size(c, 1, lambda q: 1)
    with pytest.raises(ConsistencyError, match="degenerate funding item"):
        c.funding


def test_team_caches_stay_per_hierarchy():
    deep = Hierarchy(floor_level=5)
    assert make_context(deep, F(1, 2)).hier is deep


def test_a_warm_record_still_refuses_inexact_input():
    # 0.5 and True equal 1/2 and 1, whose records hold contexts: the
    # guard runs before any record is read
    h = Hierarchy(floor_level=4)
    for x in (F(1, 2), F(1)):
        make_context(h, x)
        team_size(h, x)
        _allocation_team_size(h, x)
    for bad in (0.5, True):
        for query in (make_context, team_size, _allocation_team_size):
            with pytest.raises(InputError):
                query(h, bad)


def test_team_size_from_half_up_builds_no_context():
    # a closed form: 1/2 would otherwise walk its (1/2, 1/2)-minimal set
    h = Hierarchy(floor_level=4)
    assert [team_size(h, p) for p in (F(1, 2), F(3, 5), F(1))] == [2, 5, 1]
    assert all(rec.context is None for rec in h._members.values())


def test_a_context_is_built_once():
    h = Hierarchy(floor_level=4)
    for x in (F(2, 3), F(1, 2), F(12, 25), F(9, 10)):
        assert make_context(h, x) is make_context(h, F(x.numerator, x.denominator))


def test_team_sizes_are_reused_across_calls(monkeypatch):
    # the sizes stay on the contexts: a second team_size and a second
    # simulate_team on the same Hierarchy size no row
    sized, real = [], teams._closure_size
    monkeypatch.setattr(teams, "_closure_size", lambda *args: sized.append(args) or real(*args))
    h = Hierarchy(floor_level=4)
    tree = parse_tree("(" + "()" * 24 + ")")
    lab = rational_labeling(tree)
    trace = MachineTrace(tree=tree, labeling=lab)

    def queries():
        return team_size(h, F(8, 17)), simulate_team(make_context(h, lab.p), trace)

    first = queries()
    assert first[0] == 51 and sized
    sized.clear()
    assert queries() == first
    assert sized == []


def test_g_values(hier):
    c = make_context(hier, F(2, 3))
    assert g_function(c, F(0)) == 0
    assert g_function(c, F(1, 3)) == F(1, 3)
    assert g_function(c, F(1, 2)) == F(1, 3)
    assert g_function(c, F(2, 3)) == F(2, 3)
    c = make_context(hier, F(12, 25))
    assert g_function(c, F(1, 5)) == F(1, 5)
    assert g_function(c, F(7, 25)) == F(7, 25)
    assert g_function(c, F(8, 25)) == F(11, 25)
    # at r = x the one-row reading vanishes; the split optimum still pays
    assert g_function(c, F(12, 25)) == 0
    assert g_prime(c, F(12, 25)) == F(12, 25)
    with pytest.raises(InputError):
        g_function(c, F(13, 25))
    with pytest.raises(InputError):
        g_prime(c, F(-1, 25))
    # both refuse floats and bools, which compare equal to rationals
    for g in (g_function, g_prime):
        for odd in (0.25, False):
            with pytest.raises(InputError):
                g(c, odd)


def test_g_prime_reaches_target(hier):
    # a follower mass of x funds the full success target p0
    for v in [(2, 3), (1, 2), (12, 25), (6, 11), (8, 17)]:
        x = F(*v)
        c = make_context(hier, x)
        assert g_prime(c, x) == c.p0


def test_g_prime_dominates_g(hier):
    for v in [(2, 3), (12, 25), (1, 2)]:
        x = F(*v)
        c = make_context(hier, x)
        grid = [x * i / 24 for i in range(25)]
        for r in grid:
            assert g_prime(c, r) >= g_function(c, r)


def test_g_prime_monotone_and_superadditive(hier):
    for v in [(2, 3), (12, 25), (6, 11)]:
        x = F(*v)
        c = make_context(hier, x)
        grid = [x * i / 12 for i in range(13)]
        vals = {r: g_prime(c, r) for r in grid}
        for a, b in zip(grid, grid[1:]):
            assert vals[a] <= vals[b]
        for r1 in grid:
            for r2 in grid:
                if r1 + r2 <= x:
                    assert vals[r1] + vals[r2] <= g_prime(c, r1 + r2)


def test_simulate_single_node(hier):
    c = make_context(hier, F(2, 3))
    lab = Labeling(p=F(2, 3), q=F(1), nu1={(): F(2, 3)}, nu2={(): F(0)})
    alloc = simulate_team(c, MachineTrace(tree=(), labeling=lab))
    assert alloc.k == 3 and alloc.target == 2
    assert alloc.successes == {(): 2}


def test_simulate_two_star(hier):
    c = make_context(hier, F(2, 3))
    tree = parse_tree("(()())")
    alloc = simulate_team(c, MachineTrace(tree=tree, labeling=rational_labeling(tree)))
    assert alloc.k == 3 and alloc.target == 2
    assert alloc.successes == {(0,): 2, (1,): 2}
    assert alloc.assignment.nu1 == {(): 2, (0,): 1, (1,): 1}
    assert alloc.assignment.nu2 == {(): 0, (0,): 1, (1,): 1}


def test_simulate_canonical_six_eleven(hier):
    tree = parse_tree("(()(()()()))")
    c = make_context(hier, F(6, 11))
    alloc = simulate_team(c, MachineTrace(tree=tree, labeling=rational_labeling(tree)))
    assert alloc.k == 110 and alloc.target == 60
    nu1 = {p: int(v) for p, v in alloc.assignment.nu1.items()}
    nu2 = {p: int(v) for p, v in alloc.assignment.nu2.items()}
    assert nu1 == {(): 60, (0,): 50, (1,): 10, (1, 0): 40, (1, 1): 40, (1, 2): 40}
    assert nu2 == {(): 0, (0,): 10, (1,): 50, (1, 0): 20, (1, 1): 20, (1, 2): 20}
    assert alloc.successes == {(0,): 60, (1, 0): 60, (1, 1): 60, (1, 2): 60}


def test_simulate_clamped_tree(hier):
    # the dropped-child branch ends with slack above the target
    tree = parse_tree("((()())(()()())((())))")
    c = make_context(hier, F(12, 25))
    alloc = simulate_team(c, MachineTrace(tree=tree, labeling=rational_labeling(tree)))
    assert alloc.k == 25 and alloc.target == 12
    assert all(s >= 12 for s in alloc.successes.values())
    assert alloc.successes[(2, 0, 0)] == 13
    ok, msg = validate_labeling(tree, alloc.assignment)
    assert ok, msg


def test_simulate_allocation_validates(hier):
    for text, v in [("(()())", F(2, 3)), ("(()(()()()))", F(6, 11))]:
        tree = parse_tree(text)
        c = make_context(hier, v)
        alloc = simulate_team(c, MachineTrace(tree=tree, labeling=rational_labeling(tree)))
        assert alloc.assignment.p == alloc.target and alloc.assignment.q == alloc.k
        ok, msg = validate_labeling(tree, alloc.assignment)
        assert ok, msg
        assert all(s >= alloc.target for s in alloc.successes.values())


def test_simulate_input_checks(hier):
    c = make_context(hier, F(2, 3))
    tree = parse_tree("(()())")
    with pytest.raises(InputError):
        # labeling value disagrees with the context
        simulate_team(c, MachineTrace(tree=tree, labeling=rational_labeling(parse_tree("(()()())"))))
    slack = Labeling(
        p=F(2, 3), q=F(1),
        nu1={(): F(2, 3), (0,): F(1, 3)},
        nu2={(): F(0), (0,): F(1, 2)},
    )
    with pytest.raises(InputError):
        # valid labeling, but the chain node carries mass 5/6, not x
        simulate_team(c, MachineTrace(tree=parse_tree("(())"), labeling=slack))


@pytest.mark.parametrize("nu1, nu2, reason", [
    ({(): F(1, 3)}, {(): F(0)}, "condition 1: root nu1 1/3 < p"),
    ({(): F(2, 3)}, {(): F(1, 3)}, "condition 1: root nu2 is nonzero"),
    ({(): F(-1, 3)}, {(): F(0)}, "negative label at node ''"),
], ids=["root-short", "root-inflow", "negative"])
def test_simulate_refuses_an_invalid_trace_labeling(hier, nu1, nu2, reason):
    # an (x, 1)-labeling that fails validate_labeling is bad input
    lab = Labeling(p=F(2, 3), q=F(1), nu1=nu1, nu2=nu2)
    assert validate_labeling((), lab) == (False, reason)
    with pytest.raises(InputError, match=f"invalid trace labeling: {reason}"):
        simulate_team(make_context(hier, F(2, 3)), MachineTrace(tree=(), labeling=lab))


def test_trace_round_trip(hier):
    tree = parse_tree("(()(()()()))")
    trace = MachineTrace(tree=tree, labeling=rational_labeling(tree))
    again = parse_trace(format_trace(trace))
    assert again.tree == trace.tree
    assert again.labeling == trace.labeling
    assert parse_trace("\n  \n" + format_trace(trace)) == again  # leading blank lines
    with pytest.raises(InputError):
        parse_trace("")
    with pytest.raises(InputError):
        parse_trace("(()())\n")
