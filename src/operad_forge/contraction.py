"""The homotopy contraction on the resolution of the weighted
differential-algebra operad.

A *typical* divisor is a two-vertex divisor of the shape  base o_1 m2  where
``base`` is any generator; it is the leading monomial of the differential of
the generator one arity up (m_{n+1} for base m_n with leading coefficient
-1, d_{n+1} for base d_n with +1; both are recomputed and asserted, never
assumed).  A monomial is *effective* when it has a typical divisor whose
root-to-leftmost-leaf path carries no further typical divisors and no
positive-degree vertices besides possibly the divisor root, and every leaf
strictly to the left of that leftmost leaf sees only degree-zero,
divisor-free vertices on its root path.  The effective divisor is unique
(`Contraction.analyze_effective` shows why).

H replaces the effective divisor by its generator, with the sign
(-1)**omega, omega summing the degrees of all vertices strictly before the
divisor root in planar order, and recurses on the strictly smaller
remainder.  `verify` checks diff o H + H o diff = id monomial by monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .coeffs import Coefficient, add_into
from .dif_operads import (
    Difinfty,
    InternalInvariantError,
    d_gen,
    enumerate_monomials,
    m_gen,
)
from .free_operad import OperadElement, TreeMonomial, replace_region
from .trees import DEGREE, GENS, Generator, gen_id


@dataclass(frozen=True)
class EffectiveAnalysis:
    is_effective: bool
    divisor_root: Optional[int] = None
    divisor_child: Optional[int] = None
    s_generator: Optional[Generator] = None
    c_s: Optional[int] = None
    effective_leaf: Optional[int] = None
    omega: Optional[int] = None


_NOT_EFFECTIVE = EffectiveAnalysis(False)


def generator_above(base: Generator) -> Generator:
    """The generator whose differential has leading monomial base o_1 m2."""
    kind, n = base.symbol[0], base.arity
    return m_gen(n + 1) if kind == "m" else d_gen(n + 1)


class Contraction:
    def __init__(self, op: Difinfty):
        self.op = op
        self._typical: dict[Generator, tuple[TreeMonomial, int]] = {}
        self._eff: dict[TreeMonomial, EffectiveAnalysis] = {}
        self._h: dict[TreeMonomial, OperadElement] = {}
        self._tbar: dict[TreeMonomial, OperadElement] = {}
        self._m2 = gen_id(m_gen(2))

    # -- typical shapes ----------------------------------------------------

    def typical_info(self, s: Generator) -> tuple[TreeMonomial, int]:
        """Leading monomial of diff(s) and its coefficient, asserted +-1 and
        of the shape base o_1 m2."""
        cached = self._typical.get(s)
        if cached is not None:
            return cached
        lead, coeff = self.op.diff(s).leading()
        cval = coeff.coeffs
        if set(cval) != {0} or cval[0] not in (1, -1):
            raise InternalInvariantError(
                f"leading coefficient of diff({s.symbol}) is {coeff}, not +-1")
        c = int(cval[0])
        base = lead.gens[0]
        expected_kind = "m" if s.symbol[0] == "m" else "d"
        shape_ok = (
            lead.weight == 2
            and base.symbol[0] == expected_kind
            and base.arity == s.arity - 1
            and lead.word[1] == self._m2   # m2 is the root's first child
        )
        if not shape_ok:
            raise InternalInvariantError(
                f"leading monomial of diff({s.symbol}) is not typical: {lead!r}")
        self._typical[s] = (lead, c)
        return lead, c

    # -- effective divisors -------------------------------------------------

    def analyze_effective(self, t: TreeMonomial) -> EffectiveAnalysis:
        """Find the effective divisor in one pass over the word.

        A first-input path is a run of nonzero tokens, and the vertices on
        the root paths of the leaves left of a run's leaf are the nonzero
        tokens before the run.  While those are all of degree 0 and none is
        an m2 first input, a run's only candidate is the vertex above its
        last m2 past the run's head; it is effective when the tokens from
        that m2 to the leaf have degree 0.  After a candidate the prefix is
        no longer clean, which makes the effective divisor unique.
        """
        cached = self._eff.get(t)
        if cached is not None:
            return cached
        word, m2 = t.word, self._m2
        result = _NOT_EFFECTIVE
        s = 0
        zeros = (q for q, x in enumerate(word) if not x)
        for leaf, z in enumerate(zeros, 1):
            top = max((q for q in range(s + 1, z) if word[q] == m2),
                      default=None)
            if top is not None:
                if all(DEGREE[word[q]] == 0 for q in range(top, z)):
                    v = top - 1
                    root = v - (leaf - 1)   # planar index: zeros before v
                    s_gen = generator_above(GENS[word[v]])
                    _, c_s = self.typical_info(s_gen)
                    omega = sum(DEGREE[word[q]] for q in range(s, v))
                    result = EffectiveAnalysis(True, root, root + 1, s_gen,
                                               c_s, leaf, omega)
                break
            if any(DEGREE[word[q]] for q in range(s, z)):
                break
            s = z + 1
        self._eff[t] = result
        return result

    # -- the contraction ----------------------------------------------------

    def h_bar(self, t: TreeMonomial) -> OperadElement:
        an = self.analyze_effective(t)
        if not an.is_effective:
            raise ValueError(f"{t!r} is not effective")
        s_mono = TreeMonomial.corolla(an.s_generator)
        sign, replaced = replace_region(t, {an.divisor_root, an.divisor_child},
                                        s_mono)
        if sign != 1:
            raise InternalInvariantError("divisor-to-generator replacement "
                                         "should never reorder odd factors")
        scalar = an.c_s if an.omega % 2 == 0 else -an.c_s
        return OperadElement.single(replaced, Coefficient.rational(scalar))

    def _tbar_of(self, t: TreeMonomial) -> OperadElement:
        cached = self._tbar.get(t)
        if cached is not None:
            return cached
        an = self.analyze_effective(t)
        s_hat, c_s = self.typical_info(an.s_generator)
        repl = OperadElement.single(s_hat) - self.op.diff(an.s_generator).scale(
            Fraction(1, c_s))
        region = {an.divisor_root, an.divisor_child}
        acc: dict[TreeMonomial, Coefficient] = {}
        for mono, c in repl.terms.items():
            sign, new_t = replace_region(t, region, mono)
            add_into(acc, new_t, c if sign == 1 else -c)
        out = OperadElement(acc)
        self._tbar[t] = out
        return out

    def h_monomial(self, t: TreeMonomial) -> OperadElement:
        """H on a single monomial, by well-founded recursion on the order."""
        cache = self._h
        if t in cache:
            return cache[t]
        stack = [t]
        while stack:
            cur = stack[-1]
            if cur in cache:
                stack.pop()
                continue
            if not self.analyze_effective(cur).is_effective:
                cache[cur] = OperadElement.zero()
                stack.pop()
                continue
            tbar = self._tbar_of(cur)
            cur_key = cur.order_key()
            pending = []
            for mono in tbar.terms:
                if mono.order_key() >= cur_key:
                    raise InternalInvariantError(
                        f"recursion failed to decrease: {mono!r} vs {cur!r}")
                if mono not in cache:
                    pending.append(mono)
            if pending:
                stack.extend(pending)
                continue
            cache[cur] = OperadElement.sum(
                [(1, self.h_bar(cur))]
                + [(c, cache[mono]) for mono, c in tbar.terms.items()])
            stack.pop()
        return cache[t]

    def apply(self, x: OperadElement) -> OperadElement:
        return OperadElement.sum((c, self.h_monomial(t))
                                 for t, c in x.terms.items())

    # -- the main verification ---------------------------------------------

    def check_identity(self, t: TreeMonomial) -> OperadElement:
        """(diff H + H diff)(t) - t; zero iff the contraction identity holds."""
        x = OperadElement.single(t)
        lhs = self.op.diff_element(self.apply(x)) + self.apply(
            self.op.diff_element(x))
        return lhs - x

    def verify(self, max_arity: int, max_degree: int, max_weight: int
               ) -> tuple[int, list[tuple[TreeMonomial, OperadElement]]]:
        """Check diff H + H diff = id on every monomial with arity <=
        max_arity, weight <= max_weight, 1 <= degree <= max_degree."""
        monomials = enumerate_monomials(max_arity, max_weight,
                                        min_degree=1, max_degree=max_degree)
        violations = []
        for t in monomials:
            residual = self.check_identity(t)
            if not residual.is_zero():
                violations.append((t, residual))
        return len(monomials), violations


def _verify_slice(args):
    """Worker for parallel verification; re-enumerates deterministically."""
    max_arity, max_degree, max_weight, lam_coeffs, lo, hi = args
    lam = Coefficient(dict(lam_coeffs))
    contraction = Contraction(Difinfty(lam))
    monomials = enumerate_monomials(max_arity, max_weight,
                                    min_degree=1, max_degree=max_degree)
    bad = []
    for t in monomials[lo:hi]:
        residual = contraction.check_identity(t)
        if not residual.is_zero():
            bad.append((repr(t), repr(residual)))
    return len(monomials[lo:hi]), bad


def verify_parallel(max_arity: int, max_degree: int, max_weight: int,
                    lam: Coefficient, jobs: int):
    """Deterministic fan-out of `Contraction.verify` over worker processes."""
    monomials = enumerate_monomials(max_arity, max_weight,
                                    min_degree=1, max_degree=max_degree)
    total = len(monomials)
    if jobs <= 1 or total < 64:
        contraction = Contraction(Difinfty(lam))
        n, bad = contraction.verify(max_arity, max_degree, max_weight)
        return n, [(repr(t), repr(r)) for t, r in bad]
    from concurrent.futures import ProcessPoolExecutor

    lam_coeffs = tuple(sorted(lam.coeffs.items()))
    bounds = [round(k * total / jobs) for k in range(jobs + 1)]
    tasks = [(max_arity, max_degree, max_weight, lam_coeffs, lo, hi)
             for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    checked = 0
    bad: list[tuple[str, str]] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for n, b in pool.map(_verify_slice, tasks):
            checked += n
            bad.extend(b)
    return checked, bad
