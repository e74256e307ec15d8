"""Write perfbench/expected.json: the input catalogue and its frozen answers.

Run from the repository root, on the code whose answers are to be frozen:

    PYTHONPATH=src python3 perfbench/freeze.py

The catalogue holds every input any seed can select (ladder rungs, the
walk, grid points, random trees, star sizes, CLI argument pools and the
files the CLI reads) together with the answer the current code gives.
The benchmark compares every run against it, so regenerate it only when
an answer is meant to change.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction

import workloads as W

ORD_EXPRESSIONS = (
    "w*2+1", "w^w+w*3+2", "w^(w+1)*2+5", "(w+1)*(w+1)", "w^(w^w)+w^3",
    "w*3+w^2", "w^2*2+w+7", "(w^w+1)*2", "w^(w*2)+w^w*3", "5+w^3*2",
)
ALPHA_POINTS = ("1", "2/3", "3/5", "4/7", "1/2", "1/3", "2/5", "3/8", "4/9", "3/7", "1/4", "4/13")
DECIDE_PAIRS = 40
ENUM_TRIPLES = 12
CLI_TREES = 8
CLI_STARS = (3, 4, 5, 6)


def rand_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.35:
        return ()
    return tuple(rand_tree(rng, depth - 1) for _ in range(rng.randint(1, 4)))


def node_count(tree) -> int:
    return 1 + sum(node_count(c) for c in tree)


def freeze_session(cat: dict) -> None:
    from pfinhier import Hierarchy, format_tree, p_of_tree, parse_tree

    h = Hierarchy(floor_level=4)
    walk = [Fraction(1, 2)]
    while len(walk) <= W.WALK_STEPS:
        walk.append(h.next_below(walk[-1]))
    cat["walk"] = [W.fmt(x) for x in walk]

    points = {}
    for x in W.deep_points() + W.upper_points():
        cls = h.classify(x)
        entry = {"classify": cls.value, "bracket": W.answer(("bracket",), h.bracket(x))}
        if cls.value == "SUCC":
            entry["pred"] = W.fmt(h.predecessor(x))
        if cls.value == "LIM":
            entry["limit5"] = W.answer(("limit5",), h.limit_sequence(x).take(5))
        points[W.fmt(x)] = entry
    cat["points"] = points

    rng = random.Random("catalogue/trees")
    trees = []
    while len(trees) < W.TREE_POOL:
        tree = rand_tree(rng, 3)
        if p_of_tree(tree) < Fraction(12, 25):
            continue
        trees.append({"tree": format_tree(tree),
                      "answer": W.tree_answer(W.tree_chain(h, tree))})
    cat["trees"] = trees

    cat["stars"] = {}
    for size in sorted(s for sizes in W.STAR_SIZES for s in sizes):
        star = parse_tree(W.star_text(size))
        cat["stars"][str(size)] = W.tree_answer(W.tree_chain(Hierarchy(floor_level=4), star))


def cli_files(cat: dict) -> tuple[dict, dict]:
    from pfinhier import (MachineTrace, format_labeling, format_trace, p_of_tree,
                          parse_tree, rational_labeling)

    files, pools = {}, {"tree-p": [], "tree-label": [], "validate-label": [], "simulate": []}
    small = [t["tree"] for t in cat["trees"] if node_count(parse_tree(t["tree"])) <= 12]
    traces = small[:CLI_TREES] + [W.star_text(s) for s in CLI_STARS]
    for i, text in enumerate(small[:CLI_TREES]):
        tree = parse_tree(text)
        files[f"tree-{i}.txt"] = text + "\n"
        files[f"label-{i}.txt"] = format_labeling(rational_labeling(tree))
        pools["tree-p"].append([f"tree-{i}.txt"])
        pools["tree-label"] += [[f"tree-{i}.txt"], [f"tree-{i}.txt", "--integer"]]
        pools["validate-label"].append([f"tree-{i}.txt", f"label-{i}.txt"])
    for j, text in enumerate(traces):
        tree = parse_tree(text)
        lab = rational_labeling(tree)
        files[f"trace-{j}.txt"] = format_trace(MachineTrace(tree=tree, labeling=lab)) + "\n"
        pools["simulate"].append([f"trace-{j}.txt", "--x", W.fmt(p_of_tree(tree))])
    return files, pools


def freeze_cli(cat: dict) -> None:
    from pfinhier import cli

    points = [W.fmt(x) for x in W.upper_points(W.CLI_MAX_DEN)]
    cls = {x: cat["points"][x]["classify"] for x in points}
    members = [x for x in points if cls[x] != "NONE"]
    rng = random.Random("catalogue/cli")
    pairs = []
    while len(pairs) < ENUM_TRIPLES:
        a, b = sorted(rng.sample(points, 2), key=Fraction)
        pairs.append([a, b, str(rng.randint(3, 15))])
    files, pools = cli_files(cat)
    pools.update({
        "classify": [[x] for x in points],
        "bracket": [[x] for x in points],
        "pred": [[x] for x in points if cls[x] == "SUCC"],
        "limit-seq": [[x, "--take", str(n)] for x in points if cls[x] == "LIM" for n in (3, 4, 5, 6)],
        "decide": [rng.sample(points, 2) for _ in range(DECIDE_PAIRS)],
        "enum": pairs,
        "xdmin": [[x, x] + flag for x in members if Fraction(x) <= Fraction(1, 2)
                  for flag in ([], ["--prune"])],
        "ord-eval": [[e] for e in ORD_EXPRESSIONS],
        "alpha": [[x] for x in ALPHA_POINTS],
        "team-size": [[x] for x in members],
    })
    invocations = [[verb, *args] for verb, pool in pools.items() for args in pool]
    invocations += [list(q) for q in W.CLI_MID_COST]

    answers = {}
    os.environ.pop("PFINHIER_CACHE_DIR", None)
    cwd = os.getcwd()
    scratch = os.path.join(cwd, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.chdir(tmp)
        try:
            for argv in invocations:
                for js in (False, True):
                    full = (["--json"] if js else []) + argv
                    buf = io.StringIO()
                    with redirect_stdout(buf):
                        code = cli.main(full)
                    if code != 0:
                        raise SystemExit(f"catalogue invocation failed: {full} -> {code}")
                    answers[" ".join(full)] = [code, W.short(buf.getvalue())]
        finally:
            os.chdir(cwd)
    cat["cli"] = {"pools": pools, "files": files, "answers": answers}


def main() -> int:
    import pfinhier
    from pfinhier import Hierarchy

    cat = {"python": sys.version.split()[0], "pfinhier": pfinhier.__version__}
    cat["ladder"] = {x: Hierarchy(floor_level=4).classify(Fraction(x)).value for x in W.LADDER}
    freeze_session(cat)
    freeze_cli(cat)
    with open(W.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(cat, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {W.EXPECTED_PATH}: {len(cat['points'])} points, {len(cat['trees'])} trees, "
          f"{len(cat['cli']['answers'])} CLI answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
