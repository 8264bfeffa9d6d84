"""Planar rooted trees with decorated vertices, encoded as words.

A tree is a *word*: a tuple of small ints in Polish notation, read root
first, depth first, children left to right, with the interned id of the
generator (`gen_id`) per vertex and ``0`` per leaf.  The arities make it
uniquely decodable: ``(m3 (d1 _) _ (m2 _ _))`` is ``m3 d1 _ _ m2 _ _``.
Trees are reduced (every vertex has arity >= 1), and a vertex's 0-based
planar index is its rank among the nonzero tokens.  Every subtree is a
slice (`subtree_end`), the first input of the vertex at token ``p`` is
token ``p + 1`` when that is nonzero, and grafting at leaf ``i`` splices
into the ``i``-th ``0``.  Sign rule: decorations are ordered by planar
index, so carrying a block of total degree ``a`` past vertices of total
degree ``b`` costs ``(-1)**(a*b)``.

S-expressions parse to nested nodes ``(gen, children)``, a child being a
node or ``None`` for a leaf; `encode`/`decode` convert.  The functions on
nested nodes (`graft`, `contract`, `divisor_subtree`, `sigma_permutation`,
`path_sequence`, `monomial_order_key`) are the definitions the word
kernels are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .coeffs import koszul_sign

Node = tuple  # (label, tuple_of_children); child is Node or None
Word = tuple  # of ints: generator ids in Polish notation, 0 per leaf


class ForeignGeneratorError(ValueError):
    """Raised when ordering monomials decorated outside the m_n/d_n alphabet."""


@dataclass(frozen=True)
class Generator:
    symbol: str
    arity: int
    degree: int

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("generator arity must be >= 1")

    def __repr__(self):
        return self.symbol


# ---------------------------------------------------------------------------
# The generator intern table and the word encoding
# ---------------------------------------------------------------------------

# Process-wide and append-only: an id means the same generator for the life
# of the process.  Ids never enter an output or an order; index 0 is the
# leaf.  `RANKS` fills lazily in `word_order_key`, so a generator outside
# the m_n/d_n alphabet can still decorate monomials.
_IDS: dict[Generator, int] = {}
GENS: list[Optional[Generator]] = [None]
ARITY: list[int] = [0]
DEGREE: list[int] = [0]
RANKS: list[Optional[int]] = [None]


def gen_id(gen: Generator) -> int:
    """The interned token of a generator."""
    i = _IDS.get(gen)
    if i is None:
        i = _IDS[gen] = len(GENS)
        GENS.append(gen)
        ARITY.append(gen.arity)
        DEGREE.append(gen.degree)
        RANKS.append(None)
    return i


def encode(node: Node) -> Word:
    out: list[int] = []

    def walk(n: Node):
        out.append(gen_id(n[0]))
        for c in n[1]:
            if c is None:
                out.append(0)
            else:
                walk(c)

    walk(node)
    return tuple(out)


def decode(word: Word) -> Node:
    pos = 0

    def build() -> Optional[Node]:
        nonlocal pos
        x = word[pos]
        pos += 1
        if not x:
            return None
        return (GENS[x], tuple(build() for _ in range(ARITY[x])))

    return build()


def subtree_end(word: Word, p: int) -> int:
    """End (exclusive) of the subtree whose root token is at ``p``."""
    need = 1
    while need:
        need += ARITY[word[p]] - 1
        p += 1
    return p


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


def generator_rank(gen: Generator) -> int:
    """Position in the order m_2 < d_1 < m_3 < d_2 < ... < m_{n+1} < d_n < ..."""
    sym = gen.symbol
    if sym.startswith("m") and sym[1:].isdigit():
        n = int(sym[1:])
        if n >= 2:
            return 2 * (n - 2)
    elif sym.startswith("d") and sym[1:].isdigit():
        n = int(sym[1:])
        if n >= 1:
            return 2 * n - 1
    raise ForeignGeneratorError(f"generator {sym!r} is not ordered")


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


def word_order_key(word: Word, arity: int, degree: int):
    """`monomial_order_key` in one pass over the word: the stack holds the
    root path of the next token, and a vertex leaves it once its last slot
    is filled."""
    ranks = RANKS
    path: list[int] = []
    left: list[int] = []
    words = []
    for x in word:
        if x:
            r = ranks[x]
            if r is None:
                r = ranks[x] = generator_rank(GENS[x])
            path.append(r)
            left.append(ARITY[x])
            continue
        words.append((len(path), tuple(path)))
        while left:
            left[-1] -= 1
            if left[-1]:
                break
            left.pop()
            path.pop()
    return (arity, degree, tuple(words))
