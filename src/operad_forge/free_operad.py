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
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Optional, Sequence

from .coeffs import Coefficient, add_into, as_coefficient, unit_sign
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
    t._key = t._leaves = None
    return t


class TreeMonomial:
    """A planar tree with every vertex decorated by a generator.

    ``word`` is the tree in Polish notation (see `trees`); two monomials are
    equal iff their words are.  ``node`` decodes it to the nested form.
    """

    __slots__ = ("word", "arity", "degree", "weight", "_hash", "_key",
                 "_leaves")

    def __init__(self, node: Node):
        self.word = word = encode(node)
        self.weight = len(word) - word.count(0)
        self.arity = len(word) - self.weight
        self.degree = sum(DEGREE[x] for x in word)
        self._hash = hash(word)
        self._key = self._leaves = None

    from_word = staticmethod(_monomial)

    @staticmethod
    def corolla(gen: Generator) -> "TreeMonomial":
        return _monomial((gen_id(gen),) + (0,) * gen.arity, gen.arity,
                         gen.degree, 1)

    @property
    def node(self) -> Node:
        return decode(self.word)

    @property
    def gens(self) -> tuple:
        """Vertex decorations in planar order."""
        return tuple(GENS[x] for x in self.word if x)

    def order_key(self):
        if self._key is None:
            self._key = word_order_key(self.word, self.arity, self.degree)
        return self._key

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


def _leaf_parities(m: TreeMonomial) -> tuple[tuple[int, int], ...]:
    """Per leaf of ``m``: (token position, parity of the total degree of
    the vertices of ``m`` after it)."""
    leaves = m._leaves
    if leaves is None:
        out = []
        before = 0
        for q, x in enumerate(m.word):
            if x:
                before += DEGREE[x]
            else:
                out.append((q, (m.degree - before) & 1))
        leaves = m._leaves = tuple(out)
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
    return sign, _monomial(word[:p] + g.word + word[p + 1:],
                           f.arity - 1 + g.arity, f.degree + g.degree,
                           f.weight + g.weight)


def replace_region(t: TreeMonomial, region: frozenset[int] | set[int],
                   m: TreeMonomial):
    """Replace a connected region of vertices by the monomial ``m``.

    The region's external branches are grafted onto m's leaves in planar
    order; m's arity must match the region's arity.  Returns
    (sign, monomial) where the sign reorders the decoration tensor read as
    (prefix, m's vertices, remaining old vertices) into the planar order of
    the result.
    """
    word = t.word
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
    ext = []
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
        ext.append((s, q, bdeg & 1))
        need -= 1
    if rsize != len(region):
        raise ValueError("replacement region is not connected")
    if len(ext) != m.arity:
        raise ValueError("replacement arity mismatch")
    mw = m.word
    out = list(word[:p])
    last = odd = 0
    for (z, after), (s, e, bodd) in zip(_leaf_parities(m), ext):
        out += mw[last:z]
        out += word[s:e]
        last = z + 1
        odd ^= after & bodd
    out += mw[last:]
    out += word[q:]
    return (-1 if odd else 1), _monomial(
        tuple(out), t.arity, t.degree - rdeg + m.degree,
        t.weight - rsize + m.weight)


# ---------------------------------------------------------------------------
# Linear combinations
# ---------------------------------------------------------------------------

class HomogeneityError(ValueError):
    pass


class OperadElement:
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

    def _admit(self, t: TreeMonomial):
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
        if isinstance(c, int):
            c = Coefficient.rational(c)
        return OperadElement({t: c})

    @staticmethod
    def generator(gen: Generator, c: Coefficient | int = 1) -> "OperadElement":
        return OperadElement.single(TreeMonomial.corolla(gen), c)

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
            if out.arity is None:
                out.arity, out.degree = x.arity, x.degree
            elif (x.arity, x.degree) != (out.arity, out.degree):
                raise HomogeneityError(
                    f"mixed (arity, degree): ({out.arity},{out.degree}) vs "
                    f"({x.arity},{x.degree})")
            unit = unit_sign(c)
            if not unit:
                c = as_coefficient(c)
            for t, w in x.terms.items():
                add_into(acc, t, w if unit == 1 else -w if unit else w * c)
        if not acc:
            out.arity = out.degree = None
        return out

    def __add__(self, other: "OperadElement") -> "OperadElement":
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return OperadElement.sum(((1, self), (1, other)))

    def __neg__(self) -> "OperadElement":
        out = OperadElement()
        out.arity, out.degree = self.arity, self.degree
        out.terms = {t: -c for t, c in self.terms.items()}
        return out

    def __sub__(self, other: "OperadElement") -> "OperadElement":
        return OperadElement.sum(((1, self), (-1, other)))

    def scale(self, c) -> "OperadElement":
        unit = unit_sign(c)
        if unit == 1:
            return self
        if unit == -1:
            return -self
        c = as_coefficient(c)
        if c.is_zero() or self.is_zero():
            return OperadElement()
        out = OperadElement()
        out.arity, out.degree = self.arity, self.degree
        out.terms = {t: w * c for t, w in self.terms.items()}
        return out

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

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
    k = len(arities)
    for slots in itertools.combinations(range(1, m_arity + 1), k):
        shift = 0
        idx = []
        for a, l in zip(slots, arities):
            idx.append(a + shift)
            shift += l - 1
        yield tuple(idx)


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


def extend_derivation(images: Mapping[Generator, OperadElement],
                      x: OperadElement) -> OperadElement:
    """Degree -1 derivation determined by generator images.

    Acts on a monomial as the signed sum over vertices, the sign being
    (-1)**(total degree of vertices preceding the vertex in planar order),
    followed by the Koszul reordering of the substituted decoration tensor.
    """
    if x.is_zero():
        return OperadElement.zero()
    acc: dict[TreeMonomial, Coefficient] = {}
    for t, c in x.terms.items():
        prefix = 0
        for v, gen in enumerate(t.gens):
            try:
                img = images[gen]
            except KeyError:
                raise KeyError(f"no derivation image for generator {gen.symbol}")
            if not img.is_zero():
                for m_mono, m_coeff in img.terms.items():
                    sign, new_t = replace_region(t, {v}, m_mono)
                    if prefix % 2:
                        sign = -sign
                    w = c * m_coeff
                    add_into(acc, new_t, -w if sign < 0 else w)
            prefix += gen.degree
    return OperadElement(acc)
