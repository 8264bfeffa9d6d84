"""Reference definitions, kept apart from the package because only the
tests call them: each is the plain form of a kernel the package runs, and
the tests check the kernel against it.

* Trees as nested nodes ``(gen, children)``, a child being a node or
  ``None`` for a leaf (`operad_forge.trees.encode`/`decode` convert to and
  from words): grafting, the substitution of a tree for one vertex,
  divisors T' of T, the quotient T/T', the reordering sigma(T, T') and
  its Koszul sign, path sequences and the
  graded path-lexicographic order (`monomial_order_key`), against which the
  word kernels of `free_operad` and `trees.word_order_key` are checked.
* `eta_sign_exponent_long`, the unsimplified eta sign of the weighted
  Leibniz identity, against `hda.eta_sign_exponent`.
* `is_normal_form`, the definition of a normal form of `DifRewriter`.
* `extend_derivation`, `free_operad.derivation_into` on elements.
* `assert_raw_normal_form`, the form every `MultiMap` table keeps, its
  twin `assert_element_normal_form` for `OperadElement`, and `values`, a
  table read cell by cell through `MultiMap.evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from operad_forge.coeffs import Coefficient, koszul_sign
from operad_forge.dif_operads import DifRewriter
from operad_forge.free_operad import (OperadElement, TreeMonomial,
                                      derivation_into, image_terms)
from operad_forge.trees import Node, generator_rank


# ---------------------------------------------------------------------------
# Nested nodes
# ---------------------------------------------------------------------------

def corolla(gen) -> Node:
    return (gen, (None,) * gen.arity)


def node_weight(node: Node) -> int:
    return 1 + sum(node_weight(c) for c in node[1] if c is not None)


def node_arity(node: Node) -> int:
    return sum(1 if c is None else node_arity(c) for c in node[1])


def vertex_labels(node: Node) -> list:
    """Vertex decorations in planar order."""
    out = [node[0]]
    for c in node[1]:
        if c is not None:
            out.extend(vertex_labels(c))
    return out


def graft(node: Node, leaf_index: int, sub: Node) -> Node:
    """Graft ``sub`` into the ``leaf_index``-th leaf (1-based, left to right)."""
    count = 0

    def walk(n: Node):
        nonlocal count
        children = list(n[1])
        for i, c in enumerate(children):
            if c is None:
                count += 1
                if count == leaf_index:
                    children[i] = sub
                    return (n[0], tuple(children)), True
            else:
                nc, done = walk(c)
                if done:
                    children[i] = nc
                    return (n[0], tuple(children)), True
        return n, False

    out, done = walk(node)
    if not done:
        raise ValueError(f"leaf index {leaf_index} out of range")
    return out


# ---------------------------------------------------------------------------
# Divisors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Divisor:
    """A connected set of vertices of a tree, named by planar index."""

    root: int
    vertices: frozenset[int]

    def __post_init__(self):
        if self.root not in self.vertices:
            raise ValueError("divisor root must belong to the vertex set")


def substitute(node: Node, v: int, m_node: Node) -> Node:
    """``node`` with its vertex ``v`` replaced by the tree ``m_node``, the
    children of ``v`` grafted at the leaves of ``m_node`` in order."""
    counter = 0

    def fill(m: Node, children) -> Node:
        return (m[0], tuple(next(children) if c is None else fill(c, children)
                            for c in m[1]))

    def walk(n: Node) -> Node:
        nonlocal counter
        me = counter
        counter += 1
        children = tuple(None if c is None else walk(c) for c in n[1])
        if me != v:
            return (n[0], children)
        if node_arity(m_node) != len(children):
            raise ValueError("substituted tree has the wrong arity")
        return fill(m_node, iter(children))

    out = walk(node)
    if not 0 <= v < counter:
        raise ValueError(f"vertex {v} out of range")
    return out


def _parents(node: Node) -> list[Optional[int]]:
    parents: list[Optional[int]] = []
    counter = [0]

    def walk(n: Node, parent: Optional[int]):
        idx = counter[0]
        parents.append(parent)
        counter[0] += 1
        for c in n[1]:
            if c is not None:
                walk(c, idx)

    walk(node, None)
    return parents


def check_divisor(node: Node, d: Divisor) -> None:
    n = node_weight(node)
    parents = _parents(node)
    for v in d.vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
        if v == d.root:
            continue
        p = parents[v]
        if p is None or p not in d.vertices:
            raise ValueError(f"divisor not connected at vertex {v}")
    if parents[d.root] in d.vertices:
        raise ValueError("divisor root has its parent inside the divisor")


def _rebuild_at_divisor(node: Node, d: Divisor, build) -> Node:
    """``node`` with the subtree at the divisor root replaced by
    ``build(divisor_tree, external_branches)``."""
    check_divisor(node, d)
    counter = 0

    def split(n: Node):
        nonlocal counter
        sub, ext = [], []
        for c in n[1]:
            if c is not None and counter in d.vertices:
                counter += 1
                s, e = split(c)
                sub.append(s)
                ext.extend(e)
            else:
                sub.append(None)
                ext.append(c)
                if c is not None:
                    counter += node_weight(c)
        return (n[0], tuple(sub)), ext

    def walk(n: Node) -> Node:
        nonlocal counter
        me = counter
        counter += 1
        if me == d.root:
            return build(*split(n))
        return (n[0], tuple(None if c is None else walk(c) for c in n[1]))

    return walk(node)


def divisor_subtree(node: Node, d: Divisor) -> Node:
    """The divisor as a standalone tree (external branches become leaves)."""
    found = []
    _rebuild_at_divisor(node, d, lambda sub, ext: found.append(sub))
    return found[0]


def contract(node: Node, d: Divisor, label=None) -> Node:
    """T/T': replace the divisor by a corolla of the divisor's arity."""
    return _rebuild_at_divisor(node, d,
                               lambda sub, ext: (label, tuple(ext)))


def sigma_permutation(node: Node, d: Divisor) -> tuple[int, ...]:
    """The permutation sigma(T, T') in one-line 0-based form.

    The reordered vertex list reads: the vertices before the divisor's root,
    then the divisor's vertices in planar order, then the remaining vertices
    in planar order (which is also their order in T/T').
    """
    check_divisor(node, d)
    n = node_weight(node)
    r = d.root
    head = [i for i in range(r)]
    block = sorted(d.vertices)
    tail = [i for i in range(r, n) if i not in d.vertices]
    perm = tuple(head + block + tail)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"divisor {d} does not induce a permutation of "
                         f"the {n} vertices")
    return perm


def sigma_koszul_sign(node: Node, d: Divisor, degrees: Sequence[int]) -> int:
    return koszul_sign(degrees, sigma_permutation(node, d))

# ---------------------------------------------------------------------------
# Path sequences and the graded path-lexicographic order
# ---------------------------------------------------------------------------

def path_sequence(node: Node) -> tuple[tuple, ...]:
    """For each leaf, left to right, the word of generators from the root."""
    words: list[tuple] = []

    def walk(n: Node, prefix: tuple):
        word = prefix + (n[0],)
        for c in n[1]:
            if c is None:
                words.append(word)
            else:
                walk(c, word)

    walk(node, ())
    return tuple(words)


def monomial_order_key(node: Node, arity: int | None = None, degree: int | None = None):
    """Sort key realizing the graded path-lexicographic order.

    Compares by arity, then total degree, then path sequences left to right,
    each word by length then generator ranks.
    """
    if arity is None:
        arity = node_arity(node)
    if degree is None:
        degree = sum(g.degree for g in vertex_labels(node))
    words = tuple(
        (len(w), tuple(generator_rank(g) for g in w)) for w in path_sequence(node)
    )
    return (arity, degree, words)


# ---------------------------------------------------------------------------
# The weighted Leibniz sign and the rewriting normal form
# ---------------------------------------------------------------------------

def eta_sign_exponent_long(n: int, p: int, ls: tuple[int, ...],
                           js: tuple[int, ...]) -> int:
    """The unsimplified eta, kept as an independent cross-check."""
    q = len(ls)
    out = n * (n - 1) // 2 + p * (p - 1) // 2
    out += sum(l * (l - 1) // 2 for l in ls)
    out += sum((ls[k] - 1) * (sum(js[: k + 1]) + sum(ls[:k]))
               for k in range(q))
    return out


def is_normal_form(rewriter: DifRewriter, t: TreeMonomial) -> bool:
    return not rewriter.find_redexes(t)


def extend_derivation(images: Mapping, x: OperadElement) -> OperadElement:
    """The degree -1 derivation with generator images ``images`` applied
    to ``x``, through `derivation_into`; a generator with no image is a
    KeyError."""
    acc: dict = {}
    raw = {g: image_terms(img) for g, img in images.items()}
    derivation_into(acc, raw.__getitem__, x.terms.items())
    return OperadElement.from_cells(acc.items())


# ---------------------------------------------------------------------------
# Multilinear map tables
# ---------------------------------------------------------------------------

def assert_raw_normal_form(mm) -> None:
    """mm's table holds raw cells in normal form: every row and every cell
    a nonempty dict, powers of L ints >= 0, no zero value, an int wherever
    a value is integral, so a Coefficient keeps each cell as it is and
    `evaluate` reads the row as those Coefficients."""
    for key, row in mm.table.items():
        assert type(key) is tuple and type(row) is dict and row
        for cell in row.values():
            assert type(cell) is dict and cell
            for e, v in cell.items():
                assert type(e) is int and e >= 0
                assert type(v) is int or type(v) is Fraction
                assert v != 0 and (type(v) is int or v.denominator != 1)
            assert dict(Coefficient(cell).items()) == cell
        assert mm.evaluate(key) == {b: Coefficient(cell)
                                    for b, cell in row.items()}


def assert_element_normal_form(x) -> None:
    """The element twin of `assert_raw_normal_form`: every cell of x is a
    nonempty raw cell in normal form, every word has x's arity and degree,
    and the boundary reader gives a Coefficient that keeps the cell."""
    for word, cell in x.terms.items():
        assert type(word) is tuple and type(cell) is dict and cell
        for e, v in cell.items():
            assert type(e) is int and e >= 0
            assert type(v) is int or type(v) is Fraction
            assert v != 0 and (type(v) is int or v.denominator != 1)
        assert dict(Coefficient(cell).items()) == cell
    for t, c in x:
        assert (t.arity, t.degree) == (x.arity, x.degree)
        assert dict(c.items()) == x.terms[t.word]
        assert t == TreeMonomial(t.node)


def values(mm) -> dict:
    """mm's table with every cell read as a Coefficient."""
    return {key: mm.evaluate(key) for key in mm.table}
