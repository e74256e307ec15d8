"""Conjecture trees, the tree invariant, and optimal labelings.

A tree is a nested tuple of child trees; the leaf is the empty tuple. Nodes
are addressed by paths: tuples of child indices, () for the root. The tree
invariant p_T evaluates leaves to 1 and internal nodes through the pooling
rule; rational_labeling constructs the witness labeling that meets p_T with
total branch budget 1, and integer_labeling clears denominators.

Labelings assign each node a pair (nu1, nu2) and are judged against three
conditions for a (p, q)-labeling:

  1. nu1(root) >= p and nu2(root) = 0;
  2. at every node, the children's nu2 labels sum to at most the node's
     nu1 + nu2, and every child has nu1 + nu2 >= p;
  3. along every root-to-leaf branch the nu1 labels sum to at most q.

All labels must be nonnegative. Degenerate chain nodes force nu1 = 0 on
some nodes, so strict positivity is deliberately not required.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .rationals import ExactRational, ONE, ZERO, format_rational, parse_rational, require_exact
from .rules import apply_rule, contribution

Tree = tuple
Path = tuple[int, ...]

# deepest tree parse_tree accepts; the tree procedures recurse once or
# twice per level, so this keeps them far from the interpreter's limit
MAX_DEPTH = 200


def parse_tree(text: str) -> Tree:
    """Parse the balanced-parentheses tree format; whitespace is ignored.

    Trees nested more than MAX_DEPTH nodes deep raise InputError.
    """
    stack: list[list] = []
    root = None
    for ch in text:
        if ch.isspace():
            continue
        if ch == "(":
            if len(stack) == MAX_DEPTH:
                raise InputError(f"tree nests deeper than {MAX_DEPTH} levels")
            stack.append([])
        elif ch == ")":
            if not stack:
                raise InputError("unbalanced ')' in tree text")
            done = tuple(stack.pop())
            if stack:
                stack[-1].append(done)
            elif root is None:
                root = done
            else:
                raise InputError("multiple roots in tree text")
        else:
            raise InputError(f"unexpected character {ch!r} in tree text")
    if stack:
        raise InputError("unbalanced '(' in tree text")
    if root is None:
        raise InputError("empty tree text")
    return root


def format_tree(tree: Tree) -> str:
    return "(" + "".join(format_tree(c) for c in tree) + ")"


def iter_nodes(tree: Tree, prefix: Path = ()):
    """Yield (path, subtree) pairs in preorder."""
    yield prefix, tree
    for i, child in enumerate(tree):
        yield from iter_nodes(child, prefix + (i,))


def leaf_paths(tree: Tree) -> list[Path]:
    return [path for path, sub in iter_nodes(tree) if not sub]


def _pool_children(values) -> ExactRational:
    # A child whose weight would go negative cannot receive mass; the
    # optimum treats it as absent.  Dropping such a child lowers the
    # pooled value, which can push further weights negative, so iterate.
    kept = list(values)
    while True:
        v = apply_rule(kept)
        over = [p for p in kept if contribution(v, p) < 0]
        if not over:
            return v
        kept = [p for p in kept if contribution(v, p) >= 0]


def p_of_tree(tree: Tree) -> ExactRational:
    """The tree invariant: leaves count 1, internal nodes pool their children."""
    if not tree:
        return ONE
    return _pool_children([p_of_tree(child) for child in tree])


@dataclass
class Labeling:
    p: ExactRational
    q: ExactRational
    nu1: dict[Path, ExactRational]
    nu2: dict[Path, ExactRational]


def rational_labeling(tree: Tree) -> Labeling:
    """The optimal (p_T, 1)-labeling.

    Root gets (p, 0); child i of a node gets (p - q_i, q_i) where q_i is
    its pooling weight, clamped to 0 for children too strong to need mass;
    the rest of child i's subtree keeps its own optimal labeling scaled by
    p/p_i. The result is tight: every node's nu1 + nu2 equals p, and every
    branch's nu1 total is exactly 1 except through clamped children, where
    the slack p + p/p_i - 1 < 0 of the clamp is what makes 0 sufficient.
    """
    if not tree:
        return Labeling(ONE, ONE, {(): ONE}, {(): ZERO})
    child_labs = [rational_labeling(child) for child in tree]
    p = _pool_children([lab.p for lab in child_labs])
    weights = [max(ZERO, contribution(p, lab.p)) for lab in child_labs]
    nu1 = {(): p}
    nu2 = {(): ZERO}
    for i, (lab, q_i) in enumerate(zip(child_labs, weights)):
        scale = p / lab.p
        nu1[(i,)] = p - q_i
        nu2[(i,)] = q_i
        for path in lab.nu1:
            if path == ():
                continue
            nu1[(i,) + path] = scale * lab.nu1[path]
            nu2[(i,) + path] = scale * lab.nu2[path]
    return Labeling(p, ONE, nu1, nu2)


def scale_labeling(lab: Labeling, r: ExactRational) -> Labeling:
    """Multiply every label by r > 0, turning (p, q) into (pr, qr)."""
    if require_exact(r) <= 0:
        raise InputError(f"scale factor must be positive: {r}")
    return Labeling(
        lab.p * r,
        lab.q * r,
        {path: v * r for path, v in lab.nu1.items()},
        {path: v * r for path, v in lab.nu2.items()},
    )


def integer_labeling(tree: Tree):
    """Clear denominators of the optimal labeling.

    Returns (m, n, labeling) where n is the least common denominator of all
    rational labels, m = p_T * n, and the labeling validates at (m, n) with
    every label a nonnegative integer.
    """
    from math import lcm

    lab = rational_labeling(tree)
    n = 1
    for value in list(lab.nu1.values()) + list(lab.nu2.values()):
        n = lcm(n, value.denominator)
    scaled = scale_labeling(lab, ExactRational(n))
    return lab.p * n, n, scaled


def validate_labeling(tree: Tree, lab: Labeling):
    """Check the three labeling conditions exactly.

    Returns (True, "ok") or (False, report) naming the first violated
    condition and the offending node. Label maps must cover exactly the
    tree's nodes.
    """
    paths = [path for path, _ in iter_nodes(tree)]
    node_set = set(paths)
    if set(lab.nu1) != node_set or set(lab.nu2) != node_set:
        raise InputError("labeling does not cover exactly the tree's nodes")
    for path in paths:
        if lab.nu1[path] < 0 or lab.nu2[path] < 0:
            return False, f"negative label at node '{format_path(path)}'"
    if lab.nu1[()] < lab.p:
        return False, f"condition 1: root nu1 {format_rational(lab.nu1[()])} < p"
    if lab.nu2[()] != 0:
        return False, "condition 1: root nu2 is nonzero"
    for path, sub in iter_nodes(tree):
        if not sub:
            continue
        children = [path + (i,) for i in range(len(sub))]
        flow = sum((lab.nu2[c] for c in children), start=ZERO)
        if flow > lab.nu1[path] + lab.nu2[path]:
            return False, f"condition 2: nu2 outflow exceeds mass at node '{format_path(path)}'"
        for c in children:
            if lab.nu1[c] + lab.nu2[c] < lab.p:
                return False, f"condition 2: node total below p at node '{format_path(c)}'"
    # totals[d]: nu1 total from the root to the current node's depth-d
    # ancestor; preorder meets leaves in leaf_paths order
    totals: list[ExactRational] = []
    for path, sub in iter_nodes(tree):
        del totals[len(path):]
        totals.append((totals[-1] if totals else ZERO) + lab.nu1[path])
        if not sub and totals[-1] > lab.q:
            return False, f"condition 3: branch nu1 total exceeds q at leaf '{format_path(path)}'"
    return True, "ok"


def format_path(path: Path) -> str:
    return ".".join(str(i) for i in path)


def parse_path(text: str) -> Path:
    s = text.strip()
    if not s:
        return ()
    parts = s.split(".")
    try:
        path = tuple(int(p) for p in parts)
    except ValueError:
        raise InputError(f"malformed node path: {text!r}") from None
    if any(i < 0 for i in path):
        raise InputError(f"negative index in node path: {text!r}")
    return path


def format_labeling(lab: Labeling) -> str:
    """Serialize: a "p q" header, then one "path: nu1 nu2" line per node."""
    lines = [f"{format_rational(lab.p)} {format_rational(lab.q)}"]
    for path in sorted(lab.nu1):
        lines.append(
            f"{format_path(path)}: {format_rational(lab.nu1[path])}"
            f" {format_rational(lab.nu2[path])}"
        )
    return "\n".join(lines) + "\n"


def parse_labeling(text: str) -> Labeling:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise InputError("empty labeling text")
    header = lines[0].split()
    if len(header) != 2:
        raise InputError("labeling header must be two rationals: p q")
    p, q = parse_rational(header[0]), parse_rational(header[1])
    nu1: dict[Path, ExactRational] = {}
    nu2: dict[Path, ExactRational] = {}
    for line in lines[1:]:
        head, sep, rest = line.partition(":")
        if not sep:
            raise InputError(f"malformed labeling line: {line!r}")
        path = parse_path(head)
        fields = rest.split()
        if len(fields) != 2:
            raise InputError(f"labeling line needs two labels: {line!r}")
        if path in nu1:
            raise InputError(f"duplicate node path: {format_path(path)!r}")
        nu1[path] = parse_rational(fields[0])
        nu2[path] = parse_rational(fields[1])
    return Labeling(p, q, nu1, nu2)
