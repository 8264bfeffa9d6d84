"""Free graded nonsymmetric operads on decorated planar trees.

Basis elements are tree monomials, each carried as one flat word (see
`trees`): generator ids in Polish notation with ``0`` per leaf.  The
decoration tensor is ordered by the planar order of vertices, which is
token order.  Every operation that rearranges vertices pays the Koszul sign
of reordering the decoration factors back into planar order, and on words
that sign is a block parity:

* grafting ``g`` into the ``i``-th leaf of ``f`` splices ``g``'s word into
  the ``i``-th ``0`` of ``f``'s, carrying ``g`` past the vertices of ``f``
  after that leaf: ``(-1)**(|g| * |f after the leaf|)``;
* replacing a region by ``m`` puts each external branch of the region at a
  leaf of ``m``, carrying it past the vertices of ``m`` after that leaf:
  ``(-1)**(sum over branches of |branch| * |m after its leaf|)``.

That is the only sign convention in this module; everything else is
derived from it.

`region_splicer` walks a region of a word once and returns a ``splice``
that costs a few tuple concatenations per replacement monomial and builds
no monomial.  The derivation kernels sum raw cells keyed by (word, power of
L), so their dicts hash and compare in C: `derivation_into` splices every
term of a generator's image through one splicer per vertex, and
`OperadElement.from_cells` builds monomials and Coefficients at the end.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .coeffs import (Coefficient, Combination, add_into, as_coefficient,
                     unit_sign)
from .trees import (
    ARITY,
    DEGREE,
    GENS,
    Generator,
    Node,
    Word,
    decode,
    encode,
    gen_id,
    word_order_key,
)


_new = object.__new__


def _monomial(word: Word, arity: int, degree: int, weight: int
              ) -> "TreeMonomial":
    """The monomial of a well-formed word with the given statistics."""
    t = _new(TreeMonomial)
    t.word, t.arity, t.degree, t.weight = word, arity, degree, weight
    t._hash = hash(word)
    t._leaves = None
    return t


def word_monomial(word: Word) -> "TreeMonomial":
    """The monomial of a well-formed word, its statistics read off it."""
    weight = len(word) - word.count(0)
    return _monomial(word, len(word) - weight,
                     sum(map(DEGREE.__getitem__, word)), weight)


class TreeMonomial:
    """A planar tree with every vertex decorated by a generator.

    ``word`` is the tree in Polish notation (see `trees`); two monomials are
    equal iff their words are.  ``node`` decodes it to the nested form.
    """

    __slots__ = ("word", "arity", "degree", "weight", "_hash", "_leaves")

    def __new__(cls, node: Node):
        return word_monomial(encode(node))

    from_word = staticmethod(_monomial)

    @staticmethod
    def corolla(gen: Generator) -> "TreeMonomial":
        return word_monomial((gen_id(gen),) + (0,) * gen.arity)

    @property
    def node(self) -> Node:
        return decode(self.word)

    @property
    def gens(self) -> tuple:
        """Vertex decorations in planar order."""
        return tuple(GENS[x] for x in self.word if x)

    def order_key(self):
        """The path-lexicographic sort key; computed afresh on each call,
        so a monomial kept as a dict key does not hold it.  It sorts
        `enumerate_monomials` and picks `OperadElement.leading`; the
        contraction's decrease check compares words without it, from the
        splice point on (`trees.smaller_from`)."""
        return word_order_key(self.word, self.arity, self.degree)

    def __eq__(self, other):
        return isinstance(other, TreeMonomial) and self.word == other.word

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # generator ids are per process; a pickle carries the nested form
        return TreeMonomial, (self.node,)

    def __repr__(self):
        from .formats import format_tree

        return format_tree(self.node)


def _leaf_pieces(m: TreeMonomial) -> tuple[tuple, tuple[int, ...]]:
    """The slices of m's word between its leaves (arity + 1 of them), and
    per leaf the parity of the total degree of the vertices after it."""
    leaves = m._leaves
    if leaves is None:
        pieces, after = [], []
        start = before = 0
        for q, x in enumerate(m.word):
            if x:
                before += DEGREE[x]
            else:
                pieces.append(m.word[start:q])
                after.append((m.degree - before) & 1)
                start = q + 1
        pieces.append(m.word[start:])
        leaves = m._leaves = (tuple(pieces), tuple(after))
    return leaves


def compose_monomials(f: TreeMonomial, i: int, g: TreeMonomial):
    """Graft g into the i-th leaf of f.  Returns (sign, monomial)."""
    if not 1 <= i <= f.arity:
        raise ValueError(f"composition position {i} out of range 1..{f.arity}")
    word = f.word
    p = -1
    for _ in range(i):
        p = word.index(0, p + 1)
    sign = 1
    if g.degree & 1 and sum(DEGREE[x] for x in word[p + 1:]) & 1:
        sign = -1
    return sign, word_monomial(word[:p] + g.word + word[p + 1:])


def region_splicer(word: Word, region: frozenset[int] | set[int]):
    """Walk a connected region of vertices of the tree ``word`` once;
    returns ``splice(m)``, which replaces the region by the monomial ``m``.

    The region's external branches are grafted onto m's leaves in planar
    order; m's arity must match the region's arity.  ``splice`` returns
    (odd, word), odd when reordering the decoration tensor read as (prefix,
    m's vertices, remaining old vertices) into planar order costs a sign.
    ``splice.start`` is the position of the region's root token, before
    which every spliced word agrees with ``word``, and ``splice.degree``
    the region's total degree, which m's replaces.
    """
    root = min(region)
    v = -1
    for p, x in enumerate(word):
        if x:
            v += 1
            if v == root:
                break
    else:
        raise ValueError(f"vertex {root} out of range")
    # Walk the region's span: region vertices in place, each external branch
    # (a leaf or a subtree outside the region) skipped as one slice.
    branches, odd_branches = [], []
    need, q, rdeg, rsize = 1, p, 0, 0
    while need:
        x = word[q]
        if x and v in region:
            need += ARITY[x] - 1
            rdeg += DEGREE[x]
            rsize += 1
            v += 1
            q += 1
            continue
        s, bdeg, k = q, 0, 1
        while k:
            y = word[q]
            k += ARITY[y] - 1
            if y:
                bdeg += DEGREE[y]
                v += 1
            q += 1
        if bdeg & 1:
            odd_branches.append(len(branches))
        branches.append(word[s:q])
        need -= 1
    if rsize != len(region):
        raise ValueError("replacement region is not connected")
    head, tail, arity = word[:p], word[q:], len(branches)

    def splice(m: TreeMonomial):
        if m.arity != arity:
            raise ValueError("replacement arity mismatch")
        pieces, after = _leaf_pieces(m)
        out = head
        for piece, branch in zip(pieces, branches):
            out += piece + branch
        odd = 0
        for b in odd_branches:
            odd ^= after[b]
        return odd, out + pieces[-1] + tail

    splice.start, splice.degree = p, rdeg
    return splice


def replace_region(t: TreeMonomial, region: frozenset[int] | set[int],
                   m: TreeMonomial):
    """Replace a connected region of vertices by the monomial ``m``: one
    `region_splicer` walk and one splice.  Returns (sign, monomial)."""
    odd, word = region_splicer(t.word, region)(m)
    return (-1 if odd else 1), word_monomial(word)


# ---------------------------------------------------------------------------
# Linear combinations
# ---------------------------------------------------------------------------

class HomogeneityError(ValueError):
    pass


class OperadElement(Combination):
    """Finite linear combination of tree monomials, homogeneous in
    (arity, degree)."""

    __slots__ = ("terms", "arity", "degree")

    def __init__(self, terms: Mapping[TreeMonomial, Coefficient] | None = None):
        self.terms: dict[TreeMonomial, Coefficient] = {}
        self.arity: Optional[int] = None
        self.degree: Optional[int] = None
        if terms:
            for t, c in terms.items():
                add_into(self.terms, t, c)
            for t in self.terms:
                self._admit(t)

    def _admit(self, t):
        """Take the (arity, degree) block of t, a monomial or an element."""
        if self.arity is None:
            self.arity, self.degree = t.arity, t.degree
        elif (t.arity, t.degree) != (self.arity, self.degree):
            raise HomogeneityError(
                f"mixed (arity, degree): ({self.arity},{self.degree}) vs "
                f"({t.arity},{t.degree})"
            )

    @staticmethod
    def zero() -> "OperadElement":
        return OperadElement()

    @staticmethod
    def single(t: TreeMonomial, c: Coefficient | int = 1) -> "OperadElement":
        return OperadElement({t: as_coefficient(c)})

    @staticmethod
    def generator(gen: Generator, c: Coefficient | int = 1) -> "OperadElement":
        return OperadElement.single(TreeMonomial.corolla(gen), c)

    @staticmethod
    def from_cells(cells: Iterable[tuple]) -> "OperadElement":
        """The sum of v * L**e * word over raw ((word, e), v) cells, each
        (word, e) once, as a raw dict's items; zero cells build nothing."""
        rows: dict[Word, dict] = {}
        for (w, e), v in cells:
            if v:
                rows.setdefault(w, {})[e] = v
        return OperadElement({word_monomial(w): Coefficient(row)
                              for w, row in rows.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __iter__(self):
        return iter(self.terms.items())

    @staticmethod
    def sum(pairs: Iterable[tuple]) -> "OperadElement":
        """sum of c * x over (c, x) pairs, c a Coefficient or a rational.

        The terms go into one fresh dict, so no operand is copied per term
        or changed.
        """
        out = OperadElement()
        acc = out.terms
        for c, x in pairs:
            if not x.terms:
                continue
            out._admit(x)
            unit = unit_sign(c)
            if not unit:
                c = as_coefficient(c)
            for t, w in x.terms.items():
                add_into(acc, t, w if unit == 1 else -w if unit else w * c)
        if not acc:
            out.arity = out.degree = None
        return out

    _sum = sum

    def __eq__(self, other):
        if not isinstance(other, OperadElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("OperadElement is not hashable")

    def __repr__(self):
        if self.is_zero():
            return "0"
        from .formats import format_tree

        bits = []
        for t, c in sorted(self.terms.items(), key=lambda kv: format_tree(kv[0].node)):
            bits.append(f"({c})*{format_tree(t.node)}")
        return " + ".join(bits)

    def leading(self):
        """(monomial, coefficient) maximal for the path-lexicographic order."""
        if self.is_zero():
            raise ValueError("zero element has no leading monomial")
        t = max(self.terms, key=TreeMonomial.order_key)
        return t, self.terms[t]


def partial_compose(f: OperadElement, i: int, g: OperadElement) -> OperadElement:
    """Bilinear extension of grafting g into the i-th input of f."""
    if f.is_zero() or g.is_zero():
        return OperadElement.zero()
    if not 1 <= i <= f.arity:
        raise ValueError(f"position {i} out of range for arity {f.arity}")
    acc: dict[TreeMonomial, Coefficient] = {}
    for tf, cf in f.terms.items():
        for tg, cg in g.terms.items():
            sign, t = compose_monomials(tf, i, tg)
            c = cf * cg
            add_into(acc, t, -c if sign < 0 else c)
    return OperadElement(acc)


def _brace_positions(m_arity: int, arities: Sequence[int]):
    """Insertion index tuples for the brace sum (strictly left to right)."""
    shifts = tuple(itertools.accumulate((l - 1 for l in arities), initial=0))
    for slots in itertools.combinations(range(1, m_arity + 1), len(arities)):
        yield tuple(a + s for a, s in zip(slots, shifts))


def brace_lenient(f: OperadElement, gs: Sequence[OperadElement]) -> OperadElement:
    """f{g_1,...,g_k}; empty sum (zero) when k exceeds the arity of f."""
    if not gs:
        return f
    if f.is_zero() or any(g.is_zero() for g in gs):
        return OperadElement.zero()
    terms = []
    for idx in _brace_positions(f.arity, [g.arity for g in gs]):
        term = f
        for pos, g in zip(idx, gs):
            term = partial_compose(term, pos, g)
        terms.append((1, term))
    return OperadElement.sum(terms)


def brace(f: OperadElement, gs: Sequence[OperadElement]) -> OperadElement:
    if gs and not f.is_zero() and len(gs) > f.arity:
        raise ValueError(f"brace with {len(gs)} arguments exceeds arity {f.arity}")
    return brace_lenient(f, gs)


def gerstenhaber(f: OperadElement, g: OperadElement) -> OperadElement:
    """[f,g]_G = f{g} - (-1)^{|f||g|} g{f}."""
    if f.is_zero() or g.is_zero():
        return OperadElement.zero()
    second = brace_lenient(g, [f])
    if (f.degree * g.degree) % 2:
        return brace_lenient(f, [g]) + second
    return brace_lenient(f, [g]) - second


def _interleavings(m: int, n: int):
    """Index tuples 0 <= i_1 <= j_1 <= ... <= i_m <= j_m <= n."""

    def rec(k: int, lo: int):
        if k == m:
            yield ()
            return
        for i in range(lo, n + 1):
            for j in range(i, n + 1):
                for rest in rec(k + 1, j):
                    yield ((i, j),) + rest

    yield from rec(0, 0)


def pre_jacobi_check(f: OperadElement, gs: Sequence[OperadElement],
                     hs: Sequence[OperadElement]) -> bool:
    """Exact check of the brace pre-Jacobi identity for the given arguments."""
    m, n = len(gs), len(hs)
    lhs = brace_lenient(brace_lenient(f, gs), hs)
    terms = []
    gdeg = [g.degree for g in gs]
    hdeg = [h.degree for h in hs]
    for pairs in _interleavings(m, n):
        exp = 0
        args: list[OperadElement] = []
        prev_j = 0
        for k, (i, j) in enumerate(pairs):
            exp += gdeg[k] * sum(hdeg[:i])
            args.extend(hs[prev_j:i])
            args.append(brace_lenient(gs[k], hs[i:j]))
            prev_j = j
        args.extend(hs[prev_j:])
        terms.append((-1 if exp % 2 else 1, brace_lenient(f, args)))
    return lhs == OperadElement.sum(terms)


def derivation_into(acc: dict, image: Callable[[Generator], Sequence],
                    terms: Iterable[tuple]) -> None:
    """Add to ``acc`` the degree -1 derivation determined by the generator
    images ``image(gen)``, as raw cells (word, power of L) -> rational,
    zeros kept; ``terms`` are as `raw_terms` gives them, the images as
    `image_terms` does, and each image is looked up once per call.
    Acts on a monomial as the signed sum over vertices, the sign being
    (-1)**(total degree of vertices preceding the vertex in planar order),
    followed by the Koszul reordering of the substituted decoration tensor.
    """
    images: dict[int, Sequence] = {}
    for word, cterms in terms:
        prefix = 0
        for v, x in enumerate(filter(None, word)):
            img = images.get(x)
            if img is None:
                img = images[x] = image(GENS[x])
            if img:
                splice = region_splicer(word, (v,))
                for m, mterms in img:
                    odd, new = splice(m)
                    neg = odd ^ (prefix & 1)
                    for ec, vc in cterms:
                        for em, vm in mterms:
                            w = vc * vm
                            key = (new, ec + em)
                            acc[key] = acc.get(key, 0) + (-w if neg else w)
            prefix += DEGREE[x]


def d_square_residuals(image: Callable[[Generator], Sequence],
                       gens: Iterable[Generator]) -> list:
    """(symbol, d(d(gen))) for each of ``gens`` where it is nonzero, d the
    derivation with the generator images ``image``."""
    bad = []
    for gen in gens:
        acc: dict = {}
        derivation_into(acc, image, ((t.word, c) for t, c in image(gen)))
        residual = OperadElement.from_cells(acc.items())
        if not residual.is_zero():
            bad.append((gen.symbol, residual))
    return bad


def raw_terms(x: OperadElement) -> tuple:
    """The (word, ((power, rational), ...)) terms of ``x``."""
    return tuple((t.word, tuple(c.items())) for t, c in x.terms.items())


def image_terms(x: OperadElement) -> tuple:
    """The (monomial, ((power, rational), ...)) terms of ``x``: the form of
    a generator image, whose monomials keep the leaf pieces splices read."""
    return tuple((t, tuple(c.items())) for t, c in x.terms.items())
