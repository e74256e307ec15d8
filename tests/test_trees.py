"""Tree optima, labelings, validation, and the feasibility oracle."""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfinhier import (
    InputError,
    Labeling,
    apply_rule,
    format_labeling,
    format_tree,
    integer_labeling,
    p_of_tree,
    parse_labeling,
    parse_tree,
    rational_labeling,
    scale_labeling,
    validate_labeling,
)
from pfinhier.trees import MAX_DEPTH, iter_nodes, leaf_paths, parse_path

from oracles import labeling_feasible

SIX_ELEVEN = "(()(()()()))"


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return "()"
    n = rng.randint(1, 4)
    return "(" + "".join(random_tree(rng, depth - 1) for _ in range(n)) + ")"


def test_parse_format_round_trip():
    for text in ("()", "(()())", SIX_ELEVEN, "((()())(()()())((())))"):
        assert format_tree(parse_tree(text)) == text


def test_parse_rejects_malformed():
    for bad in ("", "(", "())", "(()", "x", "()()"):
        with pytest.raises(InputError):
            parse_tree(bad)


def test_depth_bound():
    # the deepest accepted tree runs through every recursive procedure
    deepest = parse_tree("(" * MAX_DEPTH + ")" * MAX_DEPTH)
    assert p_of_tree(deepest) == 1
    assert validate_labeling(deepest, integer_labeling(deepest)[2])[0]
    assert format_tree(deepest) == "(" * MAX_DEPTH + ")" * MAX_DEPTH
    with pytest.raises(InputError):
        parse_tree("(" * (MAX_DEPTH + 1) + ")" * (MAX_DEPTH + 1))


def test_p_of_tree_examples():
    assert p_of_tree(parse_tree("()")) == 1
    assert p_of_tree(parse_tree("(()())")) == F(2, 3)
    assert p_of_tree(parse_tree(SIX_ELEVEN)) == F(6, 11)
    # a chain preserves its child's value
    assert p_of_tree(parse_tree("((o))".replace("o", "()"))) == 1
    for s in range(1, 11):
        star = "(" + "()" * s + ")"
        assert p_of_tree(parse_tree(star)) == F(s, 2 * s - 1)


def test_p_of_tree_clamps_over_strong_children():
    # the unit-value child cannot carry negative weight; the optimum
    # drops it rather than evaluating the plain pooling formula
    tree = parse_tree("((()())(()()())((())))")
    assert p_of_tree(tree) == F(12, 25)
    # plain pooling over {1, 12/25} gives 24/49 with weight 48/49 - 1 < 0
    # on the unit leaf; the optimum drops the leaf entirely
    tree = parse_tree("(()((()())(()()())))")
    assert apply_rule((F(1), F(12, 25))) == F(24, 49)
    assert p_of_tree(tree) == F(12, 25)


def test_rational_labeling_worked_examples():
    lab = rational_labeling(parse_tree("(()())"))
    assert lab.p == F(2, 3) and lab.q == 1
    assert lab.nu1[()] == F(2, 3) and lab.nu2[()] == 0
    assert lab.nu1[(0,)] == F(1, 3) and lab.nu2[(0,)] == F(1, 3)

    lab = rational_labeling(parse_tree(SIX_ELEVEN))
    assert lab.nu1[()] == F(6, 11)
    assert lab.nu1[(0,)] == F(5, 11) and lab.nu2[(0,)] == F(1, 11)
    assert lab.nu1[(1,)] == F(1, 11) and lab.nu2[(1,)] == F(5, 11)
    assert lab.nu1[(1, 0)] == F(4, 11) and lab.nu2[(1, 0)] == F(2, 11)


def test_labelings_validate():
    rng = random.Random(11)
    for _ in range(30):
        tree = parse_tree(random_tree(rng, 3))
        lab = rational_labeling(tree)
        ok, report = validate_labeling(tree, lab)
        assert ok, report
        m, n, scaled = integer_labeling(tree)
        ok, report = validate_labeling(tree, scaled)
        assert ok, report
        assert scaled.p == m and scaled.q == n
        assert all(v.denominator == 1 for v in scaled.nu1.values())
        assert all(v.denominator == 1 for v in scaled.nu2.values())


def test_integer_labeling_six_eleven():
    m, n, _ = integer_labeling(parse_tree(SIX_ELEVEN))
    assert (m, n) == (6, 11)


def test_validator_rejections():
    tree = parse_tree("(()())")
    m, n, lab = integer_labeling(tree)  # p = 2, q = 3: root 2 0, children 1 1

    def changed(nu1, nu2):
        return Labeling(lab.p, lab.q, {**lab.nu1, **nu1}, {**lab.nu2, **nu2})

    for bad, report in [
        (changed({(): F(1)}, {}), "condition 1: root nu1 1 < p"),
        (changed({}, {(0,): F(3)}), "condition 2: nu2 outflow exceeds mass at node ''"),
        (changed({}, {(0,): F(-1)}), "negative label at node '0'"),
        (changed({}, {(): F(1)}), "condition 1: root nu2 is nonzero"),
        (changed({(1,): F(0)}, {}), "condition 2: node total below p at node '1'"),
        (changed({(0,): F(2)}, {}), "condition 3: branch nu1 total exceeds q at leaf '0'"),
    ]:
        assert validate_labeling(tree, bad) == (False, report)

    missing = Labeling(lab.p, lab.q, {(): lab.nu1[()]}, {(): F(0)})
    with pytest.raises(InputError):
        validate_labeling(tree, missing)


def test_validator_names_a_violating_leaf_at_the_deepest_level():
    # a shallow leaf, then a chain down to the deepest level parse_tree
    # accepts; only the deep branch's nu1 total (2) exceeds q = 1
    tree = parse_tree("(()" + "(" * (MAX_DEPTH - 1) + ")" * (MAX_DEPTH - 1) + ")")
    paths = [path for path, _ in iter_nodes(tree)]
    deep = max(paths, key=len)
    assert len(deep) + 1 == MAX_DEPTH
    lab = Labeling(F(1, 100), F(1), {p: F(1, 100) for p in paths}, {p: F(0) for p in paths})
    report = f"condition 3: branch nu1 total exceeds q at leaf '{'.'.join(map(str, deep))}'"
    assert validate_labeling(tree, lab) == (False, report)


def test_scale_labeling():
    tree = parse_tree("(()())")
    lab = rational_labeling(tree)
    scaled = scale_labeling(lab, F(3))
    assert scaled.p == 2 and scaled.q == 3
    ok, _ = validate_labeling(tree, scaled)
    assert ok
    with pytest.raises(InputError):
        scale_labeling(lab, F(0))
    # a float factor would give float labels
    with pytest.raises(InputError):
        scale_labeling(lab, 0.5)


@given(st.integers(0, 2**30))
@settings(max_examples=30)
def test_scaling_preserves_validity(seed):
    rng = random.Random(seed)
    tree = parse_tree(random_tree(rng, 2))
    lab = rational_labeling(tree)
    r = F(rng.randint(1, 50), rng.randint(1, 50))
    ok, report = validate_labeling(tree, scale_labeling(lab, r))
    assert ok, report


def test_subtree_consistency():
    rng = random.Random(23)
    for _ in range(20):
        tree = parse_tree(random_tree(rng, 4))
        if not tree:
            continue
        vals = [p_of_tree(child) for child in tree]
        clamped = [v for v in vals]
        # the optimum agrees with pooling over the kept children
        from pfinhier.trees import _pool_children

        assert p_of_tree(tree) == _pool_children(clamped)


def test_labeling_file_round_trip():
    tree = parse_tree(SIX_ELEVEN)
    lab = rational_labeling(tree)
    text = format_labeling(lab)
    back = parse_labeling(text)
    assert back == lab
    assert format_labeling(back) == text


# labeling texts parse_labeling refuses, each with its error message
BAD_LABELINGS = [
    ("", "empty labeling text"),
    ("\n  \n", "empty labeling text"),
    ("2\n: 2 0", "labeling header must be two rationals"),
    ("2 3 4\n: 2 0", "labeling header must be two rationals"),
    ("2 3\n: 2 0\n0 1 1", "malformed labeling line"),
    ("2 3\n: 2", "labeling line needs two labels"),
    ("2 3\n: 2 0 1", "labeling line needs two labels"),
    ("2 3\n: 2 0\n0: 1 1\n0: 1 1", "duplicate node path: '0'"),
    ("2 3\n: 2 0\n0.x: 1 1", "malformed node path"),
    ("2 3\n: 2 0\n0.-1: 1 1", "negative index in node path"),
]


def test_parse_labeling_rejects_malformed():
    for text, reason in BAD_LABELINGS:
        with pytest.raises(InputError, match=re.escape(reason)):
            parse_labeling(text)


def test_feasibility_oracle_brackets_optimum():
    # the LP oracle agrees with the closed-form optimum from both sides
    for text in ("()", "(()())", SIX_ELEVEN, "((()())())"):
        tree = parse_tree(text)
        p = p_of_tree(tree)
        assert labeling_feasible(tree, p)
        assert not labeling_feasible(tree, p + F(1, 1000))


def test_feasibility_oracle_clamped_tree():
    tree = parse_tree("((()())(()()())((())))")
    assert labeling_feasible(tree, F(12, 25))
    assert not labeling_feasible(tree, F(12, 25) + F(1, 1000))
    # the plain pooling value over all three children would be 18/37,
    # strictly above the true optimum; the oracle rejects it too
    assert not labeling_feasible(tree, F(18, 37))


def test_paths_and_leaves():
    tree = parse_tree(SIX_ELEVEN)
    assert [path for path, _ in iter_nodes(tree)][0] == ()
    assert set(leaf_paths(tree)) == {(0,), (1, 0), (1, 1), (1, 2)}
    assert parse_path(" 1.2 ") == (1, 2) and parse_path("") == ()
    for text, reason in [("1..2", "malformed node path"), ("a", "malformed node path"),
                         ("1.-2", "negative index in node path")]:
        with pytest.raises(InputError, match=reason):
            parse_path(text)
