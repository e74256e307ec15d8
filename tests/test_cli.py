"""End-to-end command-line behavior, driven in process through main()."""

import json
import os
import subprocess
import sys

import pytest

from pfinhier import format_labeling, parse_tree, rational_labeling
from pfinhier.cli import MAX_COUNT, main

from test_ordinals import BAD_EXPRESSIONS
from test_trees import BAD_LABELINGS

SIX_ELEVEN = "(()(()()()))"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify(capsys):
    code, out, err = run(capsys, "classify", "2/3")
    assert (code, out, err) == (0, "SUCC\n", "")
    assert run(capsys, "classify", "1/2")[1] == "LIM\n"
    assert run(capsys, "classify", "0.48")[1] == "SUCC\n"
    assert run(capsys, "classify", "9/10")[1] == "NONE\n"
    assert run(capsys, "classify", "1")[1] == "MAX\n"


def test_exit_codes(capsys, tmp_path):
    code, out, err = run(capsys, "pred", "1/2")
    assert code == 1 and out == ""
    assert "error:" in err and "limit" in err
    code, _, err = run(capsys, "classify", "abc")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "classify", "1/6")
    assert code == 3 and "floor" in err
    # a probability outside (0, 1] is an argument error on every verb
    for argv in (("classify", "3/2"), ("team-size", "0"), ("alpha", "0"), ("alpha", "2")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "error:" in err, argv
    assert run(capsys, "--floor", "5", "classify", "1/6") == (0, "LIM\n", "")
    # xdmin refuses x before its budget: under the floor outranks d > x
    code, out, err = run(capsys, "xdmin", "1/100", "1/2")
    assert (code, out) == (3, "") and "floor" in err
    code, out, err = run(capsys, "xdmin", "1/2", "3/4")
    assert (code, out) == (2, "") and "budget" in err
    # a floor below 1 is an argument error, also on verbs that query no
    # hierarchy
    tree_file = tmp_path / "t.tree"
    tree_file.write_text(SIX_ELEVEN)
    for argv in (("classify", "1/2"), ("ord-eval", "w"), ("alpha", "1/2"),
                 ("tree-p", str(tree_file))):
        code, out, err = run(capsys, "--floor", "0", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "floor" in err and err.count("\n") == 1
    # and so is a floor past 100, which once overflowed the stack
    code, out, err = run(capsys, "--floor", "2000", "classify", "1/2001")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "floor" in err and err.count("\n") == 1
    assert run(capsys, "--floor", "100", "classify", "1/101") == (0, "LIM\n", "")
    # so is a zero count
    code, out, err = run(capsys, "enum", "1/2", "1", "0")
    assert code == 2 and out == "" and "count" in err
    # a huge decimal exponent is refused at once instead of hanging
    code, out, err = run(capsys, "classify", "1e-99999999")
    assert code == 2 and out == "" and "exponent" in err
    # argparse usage failures also land on 2
    assert run(capsys, "no-such-verb", "1")[0] == 2
    assert run(capsys, "pred")[0] == 2
    # deep nesting is refused with one error line, not a RecursionError
    for argv, want in [
        (("alpha", "1/1000"), 1),
        (("ord-eval", "(" * 400 + "1" + ")" * 400), 2),
        (("ord-eval", "w^(" * 300 + "1" + ")" * 300), 2),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (want, "") and err.startswith("error:")
        assert err.count("\n") == 1


# modules a verb loads only if it runs them
WATCHED = ("pfinhier.teams", "pfinhier.trees", "pfinhier.ordinals", "dataclasses", "json")


def modules_loaded_by(*argv):
    """The WATCHED modules a fresh interpreter loads to run main(argv),
    beyond those it had loaded before importing pfinhier."""
    code = (
        "import sys\n"
        f"watched = {WATCHED!r}\n"
        "before = {m for m in watched if m in sys.modules}\n"
        "from pfinhier.cli import main\n"
        "main(sys.argv[1:])\n"
        "print(*sorted(m for m in watched if m in sys.modules and m not in before))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return set(done.stdout.splitlines()[-1].split())


def test_each_verb_imports_only_what_it_runs():
    assert modules_loaded_by("classify", "1/2") == set()
    assert modules_loaded_by("--json", "classify", "1/2") == {"json"}
    # ordinals itself needs dataclasses
    assert modules_loaded_by("ord-eval", "w") - {"dataclasses"} == {"pfinhier.ordinals"}


def test_closed_pipe_exits_quietly():
    # a reader gone before the first write, as after `| head`: no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    done = subprocess.run([sys.executable, "-m", "pfinhier.cli", "enum", "1/2", "1", "20"],
                          env=dict(os.environ, PYTHONPATH=SRC), stdout=write_end,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


def stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_a_query_too_deep_for_the_stack_exits_4(capsys):
    # at floor 100, classify(1/101) recurses through 100 level shifts: it
    # answers under the default recursion limit, and under a limit 200
    # frames above the caller's it overflows, which exits 4 (a resource
    # bound) with one error line and nothing on stdout
    argv = ("--floor", "100", "classify", "1/101")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 200)
    try:
        code, out, err = run(capsys, *argv)
    finally:
        sys.setrecursionlimit(limit)
    assert (code, out) == (4, "") and err.startswith("error:") and err.count("\n") == 1, err
    assert run(capsys, *argv) == (0, "LIM\n", "")


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0 and out == "pfinhier 0.1.0\n"


def test_pred_and_bracket(capsys):
    assert run(capsys, "pred", "12/25")[1] == "1/2\n"
    assert run(capsys, "pred", "3/5")[1] == "2/3\n"
    assert run(capsys, "bracket", "49/100")[1] == "12/25 1/2\n"
    assert run(capsys, "bracket", "2/3")[1] == "2/3 2/3\n"


def test_limit_seq(capsys):
    code, out, _ = run(capsys, "limit-seq", "1/2", "--take", "3")
    assert code == 0 and out == "1\n2/3\n3/5\n"
    code, out, _ = run(capsys, "limit-seq", "4/9", "--take", "2")
    assert out == "1/2\n12/25\n"
    assert run(capsys, "limit-seq", "2/3")[0] == 1
    assert run(capsys, "limit-seq", "1/2", "--take", "0")[0] == 2


def test_counts_are_bounded(capsys):
    # counts past MAX_COUNT are refused at once with one error line,
    # where they used to run for minutes
    for argv in (
        ("limit-seq", "1/2", "--take", str(MAX_COUNT + 1)),
        ("limit-seq", "1/2", "--take", "3000000"),
        ("enum", "1/2", "1", str(MAX_COUNT + 1)),
        ("enum", "1/2", "1", "100000000"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and str(MAX_COUNT) in err and err.count("\n") == 1
    # the limit itself is allowed
    code, out, _ = run(capsys, "limit-seq", "1/2", "--take", str(MAX_COUNT))
    assert code == 0 and out.count("\n") == MAX_COUNT
    code, out, _ = run(capsys, "enum", "3/5", "1", str(MAX_COUNT))
    assert code == 0 and out == "3/5\n2/3\n1\n"


def test_decide(capsys):
    assert run(capsys, "decide", "49/100", "497/1000")[1] == "EQUIVALENT\n"
    assert run(capsys, "decide", "12/25", "49/100")[1] == "NOT EQUIVALENT\n"


def test_enum(capsys):
    code, out, _ = run(capsys, "enum", "3/5", "1", "10")
    assert code == 0 and out == "3/5\n2/3\n1\n"


def test_xdmin(capsys):
    code, out, _ = run(capsys, "xdmin", "12/25", "12/25")
    assert code == 0
    assert out == "1/2 -> 1/2\n3/5 2/3 -> 12/25\n2/3 2/3 -> 1/2\n"
    _, pruned, _ = run(capsys, "xdmin", "12/25", "12/25", "--prune")
    assert pruned == "1/2 -> 1/2\n3/5 2/3 -> 12/25\n"


def test_tree_commands(capsys, tmp_path):
    tree_file = tmp_path / "t.tree"
    tree_file.write_text(SIX_ELEVEN + "\n")
    assert run(capsys, "tree-p", str(tree_file)) == (0, "6/11\n", "")

    code, out, _ = run(capsys, "tree-label", str(tree_file))
    assert code == 0 and out.splitlines()[0] == "6/11 1"
    label_file = tmp_path / "t.label"
    label_file.write_text(out)
    assert run(capsys, "validate-label", str(tree_file), str(label_file)) == (
        0, "VALID\n", "")

    # break the root mass and expect a diagnosed rejection
    bad = out.replace("6/11 0", "5/11 0")
    label_file.write_text(bad)
    code, out, _ = run(capsys, "validate-label", str(tree_file), str(label_file))
    assert code == 1 and out.startswith("INVALID:")

    # a malformed labeling file is an argument error
    for text, _ in BAD_LABELINGS:
        label_file.write_text(text)
        code, out, err = run(capsys, "validate-label", str(tree_file), str(label_file))
        assert (code, out) == (2, "") and err.startswith("error:"), text
        assert err.count("\n") == 1

    # each violated condition is reported on stdout with exit code 1
    good = format_labeling(rational_labeling(parse_tree(SIX_ELEVEN)))
    for old, new, report in [
        ("0: 5/11 1/11", "0: -5/11 1/11", "negative label at node '0'"),
        (": 6/11 0", ": 6/11 1/11", "condition 1: root nu2 is nonzero"),
        ("0: 5/11 1/11", "0: 1/11 1/11", "condition 2: node total below p at node '0'"),
        ("0: 5/11 1/11", "0: 6/11 1/11", "condition 3: branch nu1 total exceeds q at leaf '0'"),
    ]:
        label_file.write_text(good.replace(old, new))
        assert run(capsys, "validate-label", str(tree_file), str(label_file)) == (
            1, f"INVALID: {report}\n", "")

    code, _, err = run(capsys, "tree-p", str(tmp_path / "missing.tree"))
    assert code == 2 and "error:" in err

    # a tree nested 2,000 deep is refused at parse time
    tree_file.write_text("(" * 2000 + ")" * 2000)
    for verb in ("tree-p", "tree-label"):
        code, out, err = run(capsys, verb, str(tree_file))
        assert (code, out) == (2, "") and err.startswith("error:")
        assert err.count("\n") == 1


def test_integer_labeling_verb(capsys, tmp_path):
    tree_file = tmp_path / "t.tree"
    tree_file.write_text(SIX_ELEVEN)
    code, out, _ = run(capsys, "--json", "tree-label", str(tree_file), "--integer")
    obj = json.loads(out)
    assert obj["witnesses"] == {"m": 6, "n": 11}
    assert obj["result"][0] == "6 11"


def test_ordinals(capsys):
    assert run(capsys, "ord-eval", "(w+1)*2")[1] == "w*2+1\n"
    assert run(capsys, "alpha", "1/3")[1] == "w^(w)\n"
    assert run(capsys, "alpha", "4/9")[1] == "w*2\n"
    assert run(capsys, "ord-eval", "w-w")[1] == "0\n"
    assert run(capsys, "ord-eval", "1-w")[0] == 1
    for text, _ in BAD_EXPRESSIONS:
        code, out, err = run(capsys, "ord-eval", text)
        assert (code, out) == (2, "") and err.startswith("error:"), text
        assert err.count("\n") == 1


def test_team_and_simulate(capsys, tmp_path):
    assert run(capsys, "team-size", "6/11")[1] == "11\n"
    assert run(capsys, "team-size", "9/10")[0] == 1

    tree_file = tmp_path / "t.tree"
    tree_file.write_text(SIX_ELEVEN)
    _, label_text, _ = run(capsys, "tree-label", str(tree_file))
    trace = tmp_path / "t.trace"
    trace.write_text(SIX_ELEVEN + "\n" + label_text)
    code, out, _ = run(capsys, "simulate", str(trace), "--x", "6/11")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "k = 110" and lines[1] == "target = 60"
    assert "branch 1.2: 60" in lines
    # the per-branch section is sorted by path
    branches = [l for l in lines if l.startswith("branch ")]
    assert branches == sorted(branches)


def test_simulate_sizes_deep_sub_teams(capsys, tmp_path):
    # 1004/2257 has 251 rows, whose sub-team sizes once nested each under
    # the next until the stack overflowed
    trace = tmp_path / "leaf.trace"
    trace.write_text("()\n1004/2257 1\n: 1004/2257 0\n")
    code, out, err = run(capsys, "simulate", str(trace), "--x", "1004/2257")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "k = " + run(capsys, "team-size", "1004/2257")[1].strip()


def test_json_shape_and_determinism(capsys):
    code, out1, _ = run(capsys, "--json", "classify", "12/25")
    obj = json.loads(out1)
    assert code == 0
    assert obj["verb"] == "classify"
    assert obj["input"] == {"x": "12/25"}
    assert obj["result"] == "SUCC"
    assert obj["witnesses"] == {"predecessor": "1/2"}
    _, out2, _ = run(capsys, "--json", "classify", "12/25")
    assert out1 == out2
    _, plain1, _ = run(capsys, "xdmin", "1/2", "1/2")
    _, plain2, _ = run(capsys, "xdmin", "1/2", "1/2")
    assert plain1 == plain2


def test_limit_witnesses(capsys):
    _, out, _ = run(capsys, "--json", "classify", "4/9")
    obj = json.loads(out)
    assert obj["result"] == "LIM"
    assert obj["witnesses"] == {"approach": ["1/2", "12/25", "8/17"]}


def test_no_disk_cache_is_read(capsys, tmp_path, monkeypatch):
    # PFINHIER_CACHE_DIR is not read: a planted classify.json changes no answer
    monkeypatch.setenv("PFINHIER_CACHE_DIR", str(tmp_path))
    planted = {"entries": {"12/25": "NONE", "7/10": "SUCC"}}
    (tmp_path / "classify.json").write_text(json.dumps(planted))
    assert run(capsys, "classify", "12/25") == (0, "SUCC\n", "")
    assert run(capsys, "classify", "7/10") == (0, "NONE\n", "")
