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

An `OperadElement` maps each word to a raw cell {power of L: rational}
(`coeffs.raw_cell`), so the kernels' dicts hash and compare in C; they sum
flat raw cells {(word, power of L): rational}, which `from_cells`
regroups.  `region_splicer` is the one word-splicing kernel: it reads a
word once, shares that pass among all the regions it replaces, and adds
each replacement term, given by its `leaf_pieces` as a generator image
(`image_terms`) holds them, with its sign straight into the caller's flat
accumulator.  The derivation (`derivation_into`), `replace_region`, the
contraction's split and the rewriting normalizer all splice through it.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .coeffs import Coefficient, Combination, Rat, normalize, raw_cell
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

    __slots__ = ("word", "arity", "degree", "weight")

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
        return hash(self.word)

    def __reduce__(self):
        # generator ids are per process; a pickle carries the nested form
        return TreeMonomial, (self.node,)

    def __repr__(self):
        from .formats import format_tree

        return format_tree(self.node)


def leaf_pieces(word: Word) -> tuple[tuple, int]:
    """The slices of ``word`` between its leaves (arity + 1 of them), and a
    mask whose bit i is set when the vertices after leaf i have odd total
    degree: a replacement as a splice reads it."""
    zeros = [q for q, x in enumerate(word) if not x]
    pre = list(itertools.accumulate(map(DEGREE.__getitem__, word), initial=0))
    return (tuple(word[a + 1:b] for a, b in zip([-1] + zeros,
                                                 zeros + [len(word)])),
            sum((pre[-1] - pre[z]) % 2 << i for i, z in enumerate(zeros)))


def signed(cell: Mapping) -> tuple[tuple, tuple]:
    """The (power of L, rational) pairs of a raw cell and of its negation,
    the form in which a splice takes its scalar."""
    pairs = tuple(cell.items())
    return pairs, tuple((e, -v) for e, v in pairs)


_UNIT = signed({0: 1})


def region_splicer(word: Word):
    """Read ``word`` once, for its vertex positions, degree prefix sums and
    subtree ends, and return ``at(region)``, which walks a connected region
    of its vertices and returns ``splice(acc, image, scalar)``.  That adds
    scalar * (``word`` with the region replaced by m) for each term (m's
    `leaf_pieces`, raw cell) of ``image`` into the flat raw cells {(word,
    power of L): rational} of ``acc``, zeros kept; ``scalar`` is a raw
    cell as `signed` gives it, 1 by default, and its two halves swapped
    negate it.

    The region's external branches (a leaf or a subtree outside it, each
    one slice) are grafted onto m's leaves in planar order; m's arity must
    match the region's.  Reordering the decoration tensor read as (prefix,
    m's vertices, remaining old vertices) into planar order costs the
    sign.  ``splice.start`` is the position of the region's root token,
    before which every spliced word agrees with ``word``, and
    ``splice.degree`` the region's total degree, which m's replaces.
    """
    verts = list(itertools.compress(itertools.count(), word))
    pre = list(itertools.accumulate(map(DEGREE.__getitem__, word), initial=0))
    # depth[q] = sum of (arity - 1) over the tokens before q: the subtree
    # at q ends where depth first drops below depth[q], a search in C
    depth = list(map(operator.sub, itertools.accumulate(
        map(ARITY.__getitem__, word), initial=0), itertools.count()))
    index = depth.index

    def at(region):
        root = min(region)
        if not 0 <= root < len(verts):
            raise ValueError(f"vertex {root} out of range")
        try:
            inside = set(map(verts.__getitem__, region))
        except IndexError:
            inside = ()
        p = q = verts[root]
        end, seen, degree = index(depth[p] - 1, p + 1), 0, 0
        # head, then (m's piece, branch) pairs, then m's last piece, tail
        parts, odd_branches, bit = [word[:p], None], 0, 1
        while q < end:
            if q in inside:
                degree += DEGREE[word[q]]
                q += 1
                seen += 1
                continue
            stop = index(depth[q] - 1, q + 1)
            if (pre[stop] - pre[q]) & 1:
                odd_branches |= bit
            parts += (word[q:stop], None)
            bit <<= 1
            q = stop
        if seen != len(region):
            raise ValueError("replacement region is not connected")
        parts.append(word[end:])

        def splice(acc: dict, image, scalar=_UNIT):
            for (pieces, after), cell in image:
                try:
                    parts[1::2] = pieces
                except ValueError:
                    raise ValueError("replacement arity mismatch") from None
                out = sum(parts, ())
                for es, vs in scalar[(after & odd_branches).bit_count() & 1]:
                    for e, v in cell.items():
                        key = (out, e + es)
                        acc[key] = acc.get(key, 0) + v * vs

        splice.start, splice.degree = p, degree
        return splice

    return at


def replace_region(t: TreeMonomial, region: frozenset[int] | set[int],
                   m: TreeMonomial):
    """Replace a connected region of vertices by the monomial ``m``: one
    `region_splicer` splice.  Returns (sign, monomial)."""
    acc: dict[tuple, Rat] = {}
    region_splicer(t.word)(region)(acc, ((leaf_pieces(m.word), {0: 1}),))
    ((word, _), v), = acc.items()
    return v, word_monomial(word)


# ---------------------------------------------------------------------------
# Linear combinations
# ---------------------------------------------------------------------------

class HomogeneityError(ValueError):
    pass


class OperadElement(Combination):
    """Finite linear combination of tree monomials, homogeneous in
    (arity, degree), never changed after construction: ``terms`` maps each
    monomial's word to its raw cell.  The constructor takes {TreeMonomial:
    Coefficient or rational}, and iterating yields (TreeMonomial,
    Coefficient) pairs."""

    __slots__ = ("terms", "arity", "degree")

    def __init__(self, terms: Optional[Mapping] = None):
        self.terms: dict[Word, dict[int, Rat]] = {}
        self.arity: Optional[int] = None
        self.degree: Optional[int] = None
        if terms:
            for t, c in terms.items():
                cell = raw_cell(c if hasattr(c, "items") else {0: c})
                if cell:
                    self._admit(t)
                    self.terms[t.word] = cell

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
    def single(t: TreeMonomial, c: Coefficient | Rat = 1) -> "OperadElement":
        return OperadElement({t: c})

    @staticmethod
    def generator(gen: Generator, c: Coefficient | Rat = 1) -> "OperadElement":
        return OperadElement.single(TreeMonomial.corolla(gen), c)

    @staticmethod
    def from_cells(cells: Iterable[tuple]) -> "OperadElement":
        """The sum of v * L**e * word over raw ((word, e), v) cells of one
        (arity, degree) block, each (word, e) once, as a raw dict's items:
        the nonzero cells regrouped by word, in `normalize` form."""
        terms: dict[Word, dict[int, Rat]] = {}
        for (w, e), v in cells:
            if v:
                terms.setdefault(w, {})[e] = normalize(v)
        blocks = {(w.count(0), sum(map(DEGREE.__getitem__, w))) for w in terms}
        if len(blocks) > 1:
            raise HomogeneityError(f"mixed (arity, degree): {sorted(blocks)}")
        out = _new(OperadElement)
        out.terms = terms
        out.arity, out.degree = blocks.pop() if blocks else (None, None)
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __iter__(self):
        """The (TreeMonomial, Coefficient) pairs, built on each read."""
        for w, cell in self.terms.items():
            yield (_monomial(w, self.arity, self.degree, len(w) - self.arity),
                   Coefficient(cell))

    @staticmethod
    def sum(pairs: Iterable[tuple]) -> "OperadElement":
        """sum of c * x over (c, x) pairs, c a Coefficient, a raw cell or
        a rational, as raw cells in one fresh dict, so no operand is
        copied per term or changed."""
        out = OperadElement()
        acc: dict[tuple, Rat] = {}
        for c, x in pairs:
            if x.terms:
                out._admit(x)
                add_cells(acc, x.terms.items(),
                          c.items() if hasattr(c, "items") else ((0, c),))
        return OperadElement.from_cells(acc.items())

    _sum = sum

    def __eq__(self, other):
        if not isinstance(other, OperadElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("OperadElement is not hashable")

    def __reduce__(self):
        # generator ids are per process; a pickle carries nested forms
        return OperadElement, (dict(self),)

    def __repr__(self):
        if self.is_zero():
            return "0"
        from .formats import format_tree

        bits = sorted((format_tree(t.node), c) for t, c in self)
        return " + ".join(f"({c})*{tree}" for tree, c in bits)

    def leading(self):
        """(monomial, coefficient) maximal for the path-lexicographic order."""
        if self.is_zero():
            raise ValueError("zero element has no leading monomial")
        return max(self, key=lambda tc: tc[0].order_key())


def add_cells(acc: dict, terms: Iterable[tuple],
              scalar: Iterable[tuple] = ((0, 1),), neg: int = 0) -> None:
    """acc += (-1)**neg * scalar * term over raw (word, cell) ``terms``,
    ``scalar`` the (power of L, rational) pairs of one raw cell, into the
    flat raw cells {(word, power of L): rational} of ``acc``, zeros kept."""
    scalar = tuple(scalar)
    for w, cell in terms:
        for e, v in cell.items():
            for es, vs in scalar:
                key = (w, e + es)
                acc[key] = acc.get(key, 0) + (-v * vs if neg else v * vs)


def partial_compose(f: OperadElement, i: int, g: OperadElement) -> OperadElement:
    """Bilinear extension of grafting g into the i-th input of f."""
    if f.is_zero() or g.is_zero():
        return OperadElement.zero()
    if not 1 <= i <= f.arity:
        raise ValueError(f"position {i} out of range for arity {f.arity}")
    acc: dict[tuple, Rat] = {}
    for wf, cf in f.terms.items():
        p = -1
        for _ in range(i):
            p = wf.index(0, p + 1)
        # g moves past the vertices of f after its i-th leaf
        neg = g.degree & sum(map(DEGREE.__getitem__, wf[p + 1:]))
        head, tail = wf[:p], wf[p + 1:]
        add_cells(acc, ((head + wg + tail, cg) for wg, cg in g.terms.items()),
                  cf.items(), neg & 1)
    return OperadElement.from_cells(acc.items())


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
    zeros kept; ``terms`` are raw (word, cell) pairs, as an element's
    ``terms.items()``, the images as `image_terms` gives them, and each
    image is looked up once per call.  Each word is read once by
    `region_splicer`, and each of its vertices with a nonzero image is
    spliced from that one pass.
    Acts on a monomial as the signed sum over vertices, the sign being
    (-1)**(total degree of vertices preceding the vertex in planar order),
    followed by the Koszul reordering of the substituted decoration tensor.
    """
    images: dict[int, Sequence] = {}
    for word, cell in terms:
        scalar = signed(cell)
        flipped = scalar[::-1]
        at = None
        prefix = 0
        for v, x in enumerate(filter(None, word)):
            img = images.get(x)
            if img is None:
                img = images[x] = image(GENS[x])
            if img:
                if at is None:
                    at = region_splicer(word)
                at((v,))(acc, img, flipped if prefix & 1 else scalar)
            prefix += DEGREE[x]


def d_square_residuals(image: Callable[[Generator], Sequence],
                       elements: Mapping[Generator, OperadElement]) -> list:
    """(symbol, d(d(gen))) for each gen of ``elements`` where it is
    nonzero, d the derivation with the generator images ``image`` and
    d(gen) = elements[gen]."""
    bad = []
    for gen, x in elements.items():
        acc: dict = {}
        derivation_into(acc, image, x.terms.items())
        residual = OperadElement.from_cells(acc.items())
        if not residual.is_zero():
            bad.append((gen.symbol, residual))
    return bad


def image_terms(x: OperadElement) -> tuple:
    """The (leaf pieces, raw cell) terms of ``x``: the form of a generator
    image, each monomial's `leaf_pieces` read once."""
    return tuple((leaf_pieces(w), c) for w, c in x.terms.items())
