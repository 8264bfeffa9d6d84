"""The operad of weighted differential algebras and its dg resolution.

Generators of the resolution: m_n (arity n, degree n-2, n >= 2) and d_n
(arity n, degree n-1, n >= 1).  The differential on generators is

  diff(m_n) = sum_{j=2}^{n-1} sum_{i=1}^{n-j+1} (-1)^(i+j(n-i)) m_{n-j+1} o_i m_j

  diff(d_n) = - sum_{j=2}^{n} sum_i (-1)^(i+j(n-i)) d_{n-j+1} o_i m_j
              - sum (-1)^xi L^(q-1) (...((m_p o_{k_1} d_{l_1}) o d_{l_2}) ...)

with xi = sum_s (l_s-1)(p-k_s), the second sum running over
2 <= p <= n, 1 <= q <= p, 1 <= k_1 < ... < k_q <= p, l_t >= 1 and
l_1+...+l_q+p-q = n, the t-th insertion happening at input
k_t + l_1 + ... + l_{t-1} - t + 1.

The degree-zero part is the free operad on m_2, d_1; the quotient by the
associativity and weighted Leibniz relations is computed by a rewriting
normalizer (`DifRewriter`), which rewrites raw cells keyed by word.
"""

from __future__ import annotations

import itertools
import os
from functools import cache, lru_cache
from typing import Optional, Sequence

from .coeffs import Coefficient, LAMBDA, Rat, compositions
from .free_operad import (
    OperadElement,
    TreeMonomial,
    add_cells,
    d_square_residuals,
    derivation_into,
    image_terms,
    partial_compose,
    region_splicer,
    replace_region,
)
from .trees import Generator, Word, gen_id, subtree_end, two_level_word

DEFAULT_REWRITE_STEPS = 100_000


class InternalInvariantError(RuntimeError):
    """An identity the construction guarantees failed; signals a bug."""


@lru_cache(maxsize=None)
def m_gen(n: int) -> Generator:
    if n < 2:
        raise ValueError("m_n requires n >= 2")
    return Generator(f"m{n}", n, n - 2)


@lru_cache(maxsize=None)
def d_gen(n: int) -> Generator:
    if n < 1:
        raise ValueError("d_n requires n >= 1")
    return Generator(f"d{n}", n, n - 1)


def parse_generator(symbol: str) -> Generator:
    if symbol.startswith("m") and symbol[1:].isdigit():
        return m_gen(int(symbol[1:]))
    if symbol.startswith("d") and symbol[1:].isdigit():
        return d_gen(int(symbol[1:]))
    raise ValueError(f"unknown generator {symbol!r}")


def alphabet(max_arity: int) -> list[Generator]:
    gens: list[Generator] = [d_gen(1)]
    for n in range(2, max_arity + 1):
        gens.append(m_gen(n))
        gens.append(d_gen(n))
    return gens


class Difinfty:
    """The dg operad of homotopy weighted differential algebras.

    `lam` is the weight: the generic polynomial variable by default, or any
    rational constant via Coefficient.rational.  `_diff_m` and `_diff_d`
    give the images as raw cells {(word, power of L): rational}, from which
    `diff` makes the element once.  `raw_diff(gen)`, the form of the images
    that `derivation_into` splices in, is `image_terms(diff(gen))`, its
    leaf pieces read once; it is a `functools.cache`, so each
    `derivation_into` call looks an image up once per generator.
    """

    def __init__(self, lam: Coefficient = LAMBDA):
        self.lam = lam
        self._diff_cache: dict[Generator, OperadElement] = {}
        self.raw_diff = cache(lambda gen: image_terms(self.diff(gen)))

    def diff(self, gen: Generator) -> OperadElement:
        out = self._diff_cache.get(gen)
        if out is None:
            cells = {"m": self._diff_m, "d": self._diff_d}.get(gen.symbol[0])
            if cells is None:
                raise ValueError(f"foreign generator {gen.symbol}")
            out = self._diff_cache[gen] = OperadElement.from_cells(
                cells(gen.arity).items())
        return out

    # Every graft below puts a corolla at a leaf of a corolla, right of the
    # grafts before it, so no vertex follows the leaf and no sign is paid.

    def _diff_m(self, n: int) -> dict:
        cells: dict[tuple, Rat] = {}
        for j in range(2, n):
            for i in range(1, n - j + 2):
                word = two_level_word(m_gen(n - j + 1), ((i, m_gen(j)),))
                cells[(word, 0)] = -1 if (i + j * (n - i)) & 1 else 1
        return cells

    def _diff_d(self, n: int) -> dict:
        cells: dict[tuple, Rat] = {}
        for j in range(2, n + 1):
            for i in range(1, n - j + 2):
                word = two_level_word(d_gen(n - j + 1), ((i, m_gen(j)),))
                cells[(word, 0)] = 1 if (i + j * (n - i)) & 1 else -1
        for p in range(2, n + 1):
            root = m_gen(p)
            for q in range(1, p + 1):
                rest = n - p + q
                if rest < q:
                    continue
                lam_q = self.lam ** (q - 1)
                for ks in itertools.combinations(range(1, p + 1), q):
                    for ls in compositions(rest, q):
                        word = two_level_word(root, zip(ks, map(d_gen, ls)))
                        xi = sum((ls[s] - 1) * (p - ks[s]) for s in range(q))
                        add_cells(cells, ((word, lam_q),), neg=not xi & 1)
        return cells

    def diff_element(self, x: OperadElement) -> OperadElement:
        acc: dict[tuple, Rat] = {}
        derivation_into(acc, self.raw_diff, x.terms.items())
        return OperadElement.from_cells(acc.items())

    def check_d_square(self, max_arity: int) -> list[tuple[str, OperadElement]]:
        """Residuals of diff(diff(gen)) for every generator up to max_arity.

        An empty list means the differential squares to zero there.
        """
        return d_square_residuals(self.raw_diff, {
            gen: self.diff(gen) for gen in alphabet(max_arity)})


# ---------------------------------------------------------------------------
# The degree-zero quotient: rewriting normalizer and the projection p
# ---------------------------------------------------------------------------

class RewriteLimitError(RuntimeError):
    pass


class DifRewriter:
    """Normalizer for the associativity / weighted-Leibniz rewriting system:

        m2 o_1 m2  ->  m2 o_2 m2
        d1 o_1 m2  ->  m2 o_1 d1 + m2 o_2 d1 + L (m2 o_1 d1) o_2 d1

    applied at leftmost-innermost redexes.  Two degree-zero elements are
    equal in the quotient iff their normal forms coincide.
    """

    def __init__(self, lam: Coefficient = LAMBDA, max_steps: Optional[int] = None):
        self.lam = lam
        if max_steps is None:
            max_steps = int(os.environ.get("OPERAD_FORGE_MAX_STEPS",
                                           DEFAULT_REWRITE_STEPS))
        self.max_steps = max_steps
        self._nf_cache: dict[Word, OperadElement] = {}
        m2, d1 = m_gen(2), d_gen(1)
        self._m2, self._d1 = gen_id(m2), gen_id(d1)
        assoc_rhs = partial_compose(
            OperadElement.generator(m2), 2, OperadElement.generator(m2)
        )
        md1 = partial_compose(OperadElement.generator(m2), 1,
                              OperadElement.generator(d1))
        md2 = partial_compose(OperadElement.generator(m2), 2,
                              OperadElement.generator(d1))
        mdd = partial_compose(md1, 2, OperadElement.generator(d1))
        self._rules = {"assoc": assoc_rhs,
                       "leibniz": md1 + md2 + mdd.scale(lam)}
        self._rhs = {kind: image_terms(x) for kind, x in self._rules.items()}
        if any(after for rhs in self._rhs.values() for (_, after), _ in rhs):
            raise InternalInvariantError("a degree-0 rewrite would splice "
                                         "with a sign")

    def _redex_positions(self, word: Word) -> list[tuple[int, int, str]]:
        """(token position, vertex index, kind) of each redex root: an m2
        or d1 token whose next token, its first input, is m2."""
        m2, d1 = self._m2, self._d1
        out = []
        v = -1
        for p in range(len(word) - 1):
            x = word[p]
            if not x:
                continue
            v += 1
            if word[p + 1] == m2 and (x == m2 or x == d1):
                out.append((p, v, "assoc" if x == m2 else "leibniz"))
        return out

    def find_redexes(self, t: TreeMonomial) -> list[tuple[int, int, str]]:
        """(vertex index, slot-1 child index, kind) for each redex root."""
        return [(v, v + 1, kind)
                for _, v, kind in self._redex_positions(t.word)]

    def _pick_redex(self, word: Word):
        """The leftmost innermost redex as (vertex, child, kind), or None.

        A redex is innermost when no other redex roots inside its subtree;
        the subtree is a slice of the word, so it suffices that the next
        redex to the right starts past the slice's end.
        """
        redexes = self._redex_positions(word)
        for (p, v, kind), nxt in zip(redexes, redexes[1:] + [None]):
            if nxt is None or nxt[0] >= subtree_end(word, p):
                return v, v + 1, kind
        return None

    def rewrite(self, t: TreeMonomial, redex: tuple) -> OperadElement:
        """The element that one rewrite of t at ``redex``, as
        `find_redexes` gives it, makes: a step of `normalize_monomial` on
        monomials."""
        v, w, kind = redex
        return OperadElement.sum(
            (c.scale(sign), OperadElement.single(new))
            for m, c in self._rules[kind]
            for sign, new in [replace_region(t, {v, w}, m)])

    def normalize_monomial(self, word: Word) -> OperadElement:
        """The normal form of the monomial ``word``, rewritten as flat raw
        cells {(word, power of L): rational}: a step rewrites one cell,
        splicing the rule's right-hand side into the work dict.  Those
        right-hand sides have degree-0 vertices only, so no splice costs
        a sign (checked once, on construction)."""
        cached = self._nf_cache.get(word)
        if cached is not None:
            return cached
        work: dict[tuple, Rat] = {(word, 0): 1}
        done: dict[tuple, Rat] = {}
        steps = 0
        while work:
            (cur, e), v = work.popitem()
            if not v:
                continue
            redex = self._pick_redex(cur)
            if redex is None:
                done[cur, e] = done.get((cur, e), 0) + v
                continue
            steps += 1
            if steps > self.max_steps:
                raise RewriteLimitError(
                    f"rewriting exceeded {self.max_steps} steps; "
                    "raise OPERAD_FORGE_MAX_STEPS if the input is this large"
                )
            root, child, kind = redex
            region_splicer(cur)((root, child))(work, self._rhs[kind],
                                               (((e, v),), ((e, -v),)))
        out = self._nf_cache[word] = OperadElement.from_cells(done.items())
        return out

    def normalize(self, x: OperadElement) -> OperadElement:
        if x.is_zero():
            return x
        if x.degree != 0:
            raise ValueError("rewriting only applies to degree-0 elements")
        return OperadElement.sum((cell, self.normalize_monomial(w))
                                 for w, cell in x.terms.items())


def project_p(x: OperadElement, rewriter: DifRewriter) -> OperadElement:
    """The surjection onto the quotient operad: defined on degree 0 only,
    where every decoration is m2 or d1 already."""
    if x.is_zero():
        return x
    if x.degree != 0:
        raise ValueError("p is defined on the degree-0 part only")
    return rewriter.normalize(x)


# ---------------------------------------------------------------------------
# Exhaustive monomial enumeration (bounded size)
# ---------------------------------------------------------------------------

def enumerate_monomials(max_arity: int, max_weight: int,
                        min_degree: Optional[int] = None,
                        max_degree: Optional[int] = None,
                        gens: Optional[Sequence[Generator]] = None
                        ) -> list[TreeMonomial]:
    """All decorated tree monomials with arity <= max_arity and
    weight <= max_weight, optionally filtered by total degree.

    Every monomial is produced exactly once: the enumeration mirrors the
    recursive tree structure (root generator, then each input slot either a
    leaf or a subtree)."""
    if gens is None:
        gens = alphabet(max_arity)
    usable = [g for g in gens if g.arity <= max_arity]

    def gen_trees(weight_budget: int, arity_budget: int):
        if weight_budget < 1 or arity_budget < 1:
            return
        for g in usable:
            if g.arity > arity_budget:
                continue
            head = (gen_id(g),)
            for children, w, a, deg in gen_children(
                g.arity, weight_budget - 1, arity_budget
            ):
                yield head + children, w + 1, a, deg + g.degree

    def gen_children(slots: int, weight_budget: int, arity_budget: int):
        if slots == 0:
            yield (), 0, 0, 0
            return
        if arity_budget < slots:
            return
        # first slot a leaf
        for rest, w, a, deg in gen_children(slots - 1, weight_budget,
                                            arity_budget - 1):
            yield (0,) + rest, w, a + 1, deg
        # first slot a subtree (remaining slots reserve one input each)
        for sub, sw, sa, sdeg in gen_trees(weight_budget,
                                           arity_budget - (slots - 1)):
            for rest, w, a, deg in gen_children(slots - 1, weight_budget - sw,
                                                arity_budget - sa):
                yield sub + rest, sw + w, sa + a, sdeg + deg

    out = []
    for word, w, a, deg in gen_trees(max_weight, max_arity):
        if min_degree is not None and deg < min_degree:
            continue
        if max_degree is not None and deg > max_degree:
            continue
        out.append(TreeMonomial.from_word(word, a, deg, w))
    out.sort(key=lambda t: (t.arity, t.weight, TreeMonomial.order_key(t)))
    return out
