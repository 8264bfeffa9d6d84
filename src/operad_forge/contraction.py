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

The memo of H values is the only cache that grows with the input; each
generator s also keeps its typical shape and the terms of
s_hat - diff(s) / c_s.  The memo keeps only nonzero values, keyed by the
monomial's word so that lookups hash and compare in C, with coefficients
drawn from one table of shared `Coefficient` objects.  A non-effective
monomial maps to one shared zero element that is never stored, so
`analyze_effective` finds it again on each occurrence, by tuple searches
and slices.  `Contraction.h_monomial` runs the recursion on an explicit
stack of frames: a frame holds its monomial, its order key, its analysis,
its generator term and its remainder, both spliced by `_split` through one
walk of the divisor region on the first visit, and is dropped when its H
value is stored.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

from .coeffs import Coefficient, add_into
from .dif_operads import (
    Difinfty,
    InternalInvariantError,
    d_gen,
    enumerate_monomials,
    m_gen,
)
from .free_operad import (OperadElement, TreeMonomial, region_splicer,
                          replace_region)
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

# H of every non-effective monomial; shared, so never changed in place
_ZERO = OperadElement()


def generator_above(base: Generator) -> Generator:
    """The generator whose differential has leading monomial base o_1 m2."""
    kind, n = base.symbol[0], base.arity
    return m_gen(n + 1) if kind == "m" else d_gen(n + 1)


class Contraction:
    def __init__(self, op: Difinfty):
        self.op = op
        self._typical: dict[Generator, tuple] = {}
        self._h: dict[tuple, OperadElement] = {}
        self._coefficients: dict[Coefficient, Coefficient] = {}
        self._m2 = gen_id(m_gen(2))

    # -- typical shapes ----------------------------------------------------

    def typical_info(self, s: Generator) -> tuple[TreeMonomial, int]:
        """Leading monomial of diff(s) and its coefficient, asserted +-1 and
        of the shape base o_1 m2.  The entry kept for s also holds the
        terms (monomial, c, -c) of s_hat - diff(s) / c_s."""
        cached = self._typical.get(s)
        if cached is not None:
            return cached[:2]
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
        repl = OperadElement.single(lead) - self.op.diff(s).scale(
            Fraction(1, c))
        self._typical[s] = (lead, c, tuple((m, w, -w)
                                           for m, w in repl.terms.items()))
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
        no longer clean, which makes the effective divisor unique.  The
        scans are tuple searches and slices, so they run in C.
        """
        word, m2 = t.word, self._m2
        if m2 not in word:
            return _NOT_EFFECTIVE
        degree = DEGREE.__getitem__
        s = 0
        for leaf in range(1, t.arity + 1):
            z = word.index(0, s)
            run = word[z - 1:s:-1]   # the run past its head, leaf first
            if m2 in run:
                top = z - 1 - run.index(m2)
                if any(map(degree, word[top:z])):
                    break
                v = top - 1
                root = v - (leaf - 1)   # planar index: zeros before v
                s_gen = generator_above(GENS[word[v]])
                _, c_s = self.typical_info(s_gen)
                omega = sum(map(degree, word[s:v]))
                return EffectiveAnalysis(True, root, root + 1, s_gen, c_s,
                                         leaf, omega)
            if any(map(degree, word[s:z])):
                break
            s = z + 1
        return _NOT_EFFECTIVE

    # -- the contraction ----------------------------------------------------

    def h_bar(self, t: TreeMonomial) -> OperadElement:
        an = self.analyze_effective(t)
        if not an.is_effective:
            raise ValueError(f"{t!r} is not effective")
        return self._generator_term(an, replace_region(
            t, {an.divisor_root, an.divisor_child},
            TreeMonomial.corolla(an.s_generator)))

    @staticmethod
    def _generator_term(an: EffectiveAnalysis, spliced) -> OperadElement:
        """(-1)**omega c_s times t with its divisor replaced by s, from the
        (sign, monomial) of that replacement."""
        sign, replaced = spliced
        if sign != 1:
            raise InternalInvariantError("divisor-to-generator replacement "
                                         "should never reorder odd factors")
        scalar = an.c_s if an.omega % 2 == 0 else -an.c_s
        return OperadElement.single(replaced, Coefficient.rational(scalar))

    def _split(self, t: TreeMonomial, an: EffectiveAnalysis
               ) -> tuple[OperadElement, dict[TreeMonomial, Coefficient]]:
        """h_bar(t) and tbar, t with its divisor replaced by
        s_hat - diff(s) / c_s, from one walk of the divisor region (the
        analysis has looked up the typical entry of s)."""
        splice = region_splicer(t, {an.divisor_root, an.divisor_child})
        acc: dict[TreeMonomial, Coefficient] = {}
        for mono, c, neg in self._typical[an.s_generator][2]:
            sign, new_t = splice(mono)
            add_into(acc, new_t, c if sign == 1 else neg)
        h_bar = self._generator_term(
            an, splice(TreeMonomial.corolla(an.s_generator)))
        return h_bar, acc

    def h_monomial(self, t: TreeMonomial) -> OperadElement:
        """H on a single monomial, by well-founded recursion on the order.

        A frame is (monomial, order key, analysis, h_bar, tbar).  The first
        visit splits the monomial, checks that every tbar monomial is
        smaller, drops the non-effective ones (their H is zero) and pushes
        the effective uncached ones with their keys and analyses; the
        revisit, once they are all done, sums and stores a nonzero value.
        """
        cache = self._h
        h = cache.get(t.word)
        if h is not None:
            return h
        an = self.analyze_effective(t)
        if not an.is_effective:
            return _ZERO
        intern = self._coefficients.setdefault
        stack = [(t, t.order_key(), an, None, None)]
        while stack:
            cur, key, an, h_bar, tbar = stack[-1]
            if tbar is not None:
                stack.pop()
                h = OperadElement.sum(
                    [(1, h_bar)]
                    + [(c, cache.get(w, _ZERO)) for w, c in tbar])
                if h.terms:
                    h.terms = {m: intern(c, c) for m, c in h.terms.items()}
                    cache[cur.word] = h
                continue
            if cur.word in cache:
                stack.pop()
                continue
            h_bar, split = self._split(cur, an)
            tbar = []
            stack[-1] = (cur, key, an, h_bar, tbar)
            for mono, c in split.items():
                mono_key = mono.order_key()
                if mono_key >= key:
                    raise InternalInvariantError(
                        f"recursion failed to decrease: {mono!r} vs {cur!r}")
                w = mono.word
                if w not in cache:
                    mono_an = self.analyze_effective(mono)
                    if not mono_an.is_effective:
                        continue
                    stack.append((mono, mono_key, mono_an, None, None))
                tbar.append((w, c))
        return cache.get(t.word, _ZERO)

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
        return len(monomials), self.violations(monomials)

    def violations(self, monomials: list[TreeMonomial]
                   ) -> list[tuple[TreeMonomial, OperadElement]]:
        """(t, residual) for each of ``monomials`` where the identity
        fails, in their order."""
        out = []
        for t in monomials:
            residual = self.check_identity(t)
            if not residual.is_zero():
                out.append((t, residual))
        return out


def max_workers(jobs: int, tasks: int) -> int:
    """The worker processes for ``jobs`` requested over ``tasks`` tasks: no
    more than the tasks or the CPUs this process may run on, because a
    ProcessPoolExecutor starts all its workers at the first submit."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(jobs, tasks, cpus)


def map_in_order(fn, tasks: list, workers: int) -> list:
    """[fn(t) for t in tasks]: in this process for at most one worker, else
    on a pool of ``workers`` processes (imported here, so a test can stand
    in its own pool)."""
    if workers <= 1:
        return list(map(fn, tasks))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _verify_slice(lam: Coefficient, monomials: list[TreeMonomial]):
    """Worker for parallel verification: the identity on one slice of the
    enumeration, handed over by `verify_parallel`."""
    bad = Contraction(Difinfty(lam)).violations(monomials)
    return len(monomials), [(repr(t), repr(r)) for t, r in bad]


def verify_parallel(max_arity: int, max_degree: int, max_weight: int,
                    lam: Coefficient, jobs: int):
    """Deterministic fan-out of `Contraction.verify` over worker processes,
    at most ``jobs`` of them (see `max_workers`)."""
    monomials = enumerate_monomials(max_arity, max_weight,
                                    min_degree=1, max_degree=max_degree)
    total = len(monomials)
    workers = max(max_workers(jobs, total), 1) if total >= 64 else 1
    bounds = [round(k * total / workers) for k in range(workers + 1)]
    slices = [monomials[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    checked = 0
    bad: list[tuple[str, str]] = []
    for n, b in map_in_order(partial(_verify_slice, lam), slices, workers):
        checked += n
        bad.extend(b)
    return checked, bad
