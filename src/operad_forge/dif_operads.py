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
normalizer (`DifRewriter`).
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .coeffs import Coefficient, LAMBDA, add_into, sign_coeff
from .free_operad import (
    OperadElement,
    TreeMonomial,
    extend_derivation,
    partial_compose,
    replace_region,
)
from .trees import Generator, gen_id, subtree_end

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


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of `parts` positive integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


class Difinfty:
    """The dg operad of homotopy weighted differential algebras.

    `lam` is the weight: the generic polynomial variable by default, or any
    rational constant via Coefficient.rational.
    """

    def __init__(self, lam: Coefficient = LAMBDA):
        self.lam = lam
        self._diff_cache: dict[Generator, OperadElement] = {}

    def diff(self, gen: Generator) -> OperadElement:
        cached = self._diff_cache.get(gen)
        if cached is not None:
            return cached
        kind, n = gen.symbol[0], gen.arity
        if kind == "m":
            out = self._diff_m(n)
        elif kind == "d":
            out = self._diff_d(n)
        else:
            raise ValueError(f"foreign generator {gen.symbol}")
        self._diff_cache[gen] = out
        return out

    def _diff_m(self, n: int) -> OperadElement:
        return OperadElement.sum(
            (sign_coeff(i + j * (n - i)),
             partial_compose(OperadElement.generator(m_gen(n - j + 1)), i,
                             OperadElement.generator(m_gen(j))))
            for j in range(2, n) for i in range(1, n - j + 2))

    def _diff_d(self, n: int) -> OperadElement:
        terms = []
        for j in range(2, n + 1):
            outer = OperadElement.generator(d_gen(n - j + 1))
            inner = OperadElement.generator(m_gen(j))
            for i in range(1, n - j + 2):
                terms.append((sign_coeff(i + j * (n - i) + 1),
                              partial_compose(outer, i, inner)))
        lam_pow = Coefficient.one()
        lam_powers = [Coefficient.one()]
        for _ in range(n):
            lam_pow = lam_pow * self.lam
            lam_powers.append(lam_pow)
        for p in range(2, n + 1):
            for q in range(1, p + 1):
                rest = n - p + q
                if rest < q:
                    continue
                for ks in itertools.combinations(range(1, p + 1), q):
                    for ls in compositions(rest, q):
                        xi = sum((ls[s] - 1) * (p - ks[s]) for s in range(q))
                        term = OperadElement.generator(m_gen(p))
                        shift = 0
                        for t in range(q):
                            pos = ks[t] + shift
                            term = partial_compose(
                                term, pos, OperadElement.generator(d_gen(ls[t]))
                            )
                            shift += ls[t] - 1
                        terms.append((lam_powers[q - 1] * sign_coeff(xi + 1),
                                      term))
        return OperadElement.sum(terms)

    def _images_for(self, x: OperadElement) -> dict[Generator, OperadElement]:
        return {g: self.diff(g) for t in x.terms for g in t.gens}

    def diff_element(self, x: OperadElement) -> OperadElement:
        if x.is_zero():
            return x
        return extend_derivation(self._images_for(x), x)

    def check_d_square(self, max_arity: int) -> list[tuple[str, OperadElement]]:
        """Residuals of diff(diff(gen)) for every generator up to max_arity.

        An empty list means the differential squares to zero there.
        """
        bad = []
        for gen in alphabet(max_arity):
            residual = self.diff_element(self.diff(gen))
            if not residual.is_zero():
                bad.append((gen.symbol, residual))
        return bad


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
        self._nf_cache: dict[TreeMonomial, OperadElement] = {}
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
        self._assoc_rhs = assoc_rhs
        self._leibniz_rhs = md1 + md2 + mdd.scale(lam)

    def _redex_positions(self, t: TreeMonomial) -> list[tuple[int, int, str]]:
        """(token position, vertex index, kind) of each redex root: an m2
        or d1 token whose next token, its first input, is m2."""
        word, m2, d1 = t.word, self._m2, self._d1
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
        return [(v, v + 1, kind) for _, v, kind in self._redex_positions(t)]

    def _pick_redex(self, t: TreeMonomial):
        """The leftmost innermost redex as (vertex, child, kind), or None.

        A redex is innermost when no other redex roots inside its subtree;
        the subtree is a slice of the word, so it suffices that the next
        redex to the right starts past the slice's end.
        """
        redexes = self._redex_positions(t)
        for (p, v, kind), nxt in zip(redexes, redexes[1:] + [None]):
            if nxt is None or nxt[0] >= subtree_end(t.word, p):
                return v, v + 1, kind
        return None

    def normalize_monomial(self, t: TreeMonomial) -> OperadElement:
        cached = self._nf_cache.get(t)
        if cached is not None:
            return cached
        work: dict[TreeMonomial, Coefficient] = {t: Coefficient.one()}
        done: dict[TreeMonomial, Coefficient] = {}
        steps = 0
        while work:
            cur, ccur = work.popitem()
            redex = self._pick_redex(cur)
            if redex is None:
                add_into(done, cur, ccur)
                continue
            steps += 1
            if steps > self.max_steps:
                raise RewriteLimitError(
                    f"rewriting exceeded {self.max_steps} steps; "
                    "raise OPERAD_FORGE_MAX_STEPS if the input is this large"
                )
            v, w, kind = redex
            rhs = self._assoc_rhs if kind == "assoc" else self._leibniz_rhs
            for mono, mc in rhs.terms.items():
                sign, new_t = replace_region(cur, {v, w}, mono)
                if sign != 1:
                    raise InternalInvariantError("degree-0 rewrite produced a sign")
                add_into(work, new_t, ccur * mc)
        out = OperadElement(done)
        self._nf_cache[t] = out
        return out

    def normalize(self, x: OperadElement) -> OperadElement:
        if x.is_zero():
            return x
        if x.degree != 0:
            raise ValueError("rewriting only applies to degree-0 elements")
        return OperadElement.sum((c, self.normalize_monomial(t))
                                 for t, c in x.terms.items())

    def is_normal_form(self, t: TreeMonomial) -> bool:
        return not self.find_redexes(t)


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
