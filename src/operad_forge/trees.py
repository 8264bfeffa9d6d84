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
node or ``None`` for a leaf; `encode`/`decode` convert.  The definitions on
nested nodes that the word kernels are tested against (grafting, divisors,
T/T', sigma(T, T'), path sequences and `monomial_order_key`) live with the
tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

Node = tuple  # (label, tuple_of_children); child is Node or None
Word = tuple  # of ints: generator ids in Polish notation, 0 per leaf


class ForeignGeneratorError(ValueError):
    """Raised when ordering monomials decorated outside the m_n/d_n alphabet."""


class _GeneratorFields(NamedTuple):
    symbol: str
    arity: int
    degree: int


class Generator(_GeneratorFields):
    """A vertex decoration: a tuple, so it hashes and compares in C."""

    __slots__ = ()

    def __new__(cls, symbol: str, arity: int, degree: int):
        if arity < 1:
            raise ValueError("generator arity must be >= 1")
        return super().__new__(cls, symbol, arity, degree)

    def __repr__(self):
        return self.symbol


# ---------------------------------------------------------------------------
# The generator intern table and the word encoding
# ---------------------------------------------------------------------------

# Process-wide and append-only: an id means the same generator for the life
# of the process.  Ids never enter an output or an order; index 0 is the
# leaf.  `RANKS` fills lazily (`_rank`) as the order walks words, so a
# generator outside the m_n/d_n alphabet can still decorate monomials.
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


def two_level_word(root: Generator, uppers) -> Word:
    """The word of the corolla of ``root`` with the corolla of ``g`` grafted
    at its leaf ``k`` for each (k, g) of ``uppers``, k increasing."""
    word, last = [gen_id(root)], 0
    for k, g in uppers:
        word += [0] * (k - last - 1) + [gen_id(g)] + [0] * g.arity
        last = k
    return tuple(word + [0] * (root.arity - last))


# ---------------------------------------------------------------------------
# The graded path-lexicographic order
# ---------------------------------------------------------------------------

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


def _rank(x: int) -> int:
    """Fill ``RANKS[x]`` on the first use of token ``x`` by an order walk;
    a generator outside the m_n/d_n alphabet raises here."""
    r = RANKS[x] = generator_rank(GENS[x])
    return r


def _leaf_keys(tokens):
    """Walk ``tokens`` and yield each leaf's key: the length of its root
    path, then the generator ranks on it.  ``path`` holds the ranks of the
    root path of the next token and ``left`` the open slots of each of its
    vertices; a vertex leaves both once its last slot is filled."""
    path: list[int] = []
    left: list[int] = []
    ranks = RANKS
    for x in tokens:
        if x:
            r = ranks[x]
            path.append(_rank(x) if r is None else r)
            left.append(ARITY[x])
            continue
        yield (len(path), tuple(path))
        while left:
            left[-1] -= 1
            if left[-1]:
                break
            left.pop()
            path.pop()


def word_order_key(word: Word, arity: int, degree: int):
    """The graded path-lexicographic sort key: arity, total degree, then the
    root path of each leaf left to right, by length then generator ranks,
    in one pass over the word."""
    return (arity, degree, tuple(_leaf_keys(word)))


def leaf_keys_from(word: Word, start: int) -> list:
    """The leaf keys of ``word[start:]`` walked from an empty root path:
    each leaf's root path as `word_order_key` reads it, minus the vertices
    before ``start`` (the reference side of `smaller_from`)."""
    return list(_leaf_keys(word[start:]))


def smaller_from(word: Word, start: int, keys: list) -> bool:
    """Whether ``word`` is smaller than the word ``w`` with ``keys =
    leaf_keys_from(w, start)``, for two words of the same arity and degree
    that share their first ``start`` tokens: ``word_order_key`` of the
    first is below that of the second.

    The leaf keys before ``start`` agree, so the walk starts there, from
    an empty root path, and stops at the first leaf key that differs.
    Given the tokens up to one leaf, the next leaf's root path fixes the
    tokens up to that leaf, read in full or without the vertices before
    ``start``.  So both readings first differ at the same leaf, where the
    two full root paths have the same vertices from before ``start`` at
    the bottom; dropping a common bottom changes neither the comparison
    of the lengths nor that of the ranks.  The walk of `_leaf_keys` is
    inlined, because it runs once per tbar monomial of the contraction."""
    path: list[int] = []
    left: list[int] = []
    ranks = RANKS
    i = 0
    for x in word[start:]:
        if x:
            r = ranks[x]
            path.append(_rank(x) if r is None else r)
            left.append(ARITY[x])
            continue
        mine = (len(path), tuple(path))
        if mine != keys[i]:
            return mine < keys[i]
        i += 1
        while left:
            left[-1] -= 1
            if left[-1]:
                break
            left.pop()
            path.pop()
    return False
