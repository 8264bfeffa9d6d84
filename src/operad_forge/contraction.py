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
generator s also keeps its typical shape and the image terms of s_hat -
diff(s) / c_s and of its corolla.  `_split` walks the divisor region of
a word once (`free_operad.region_splicer`) and splices both images from
that walk straight into the raw cells of tbar and h_bar.  The memo keeps
only nonzero values, keyed by the monomial's word, each one flat tuple
(w1, e1, v1, w2, e2, v2, ...) of raw Q[L] cells v * L**e * w, w a word,
with its rationals from one intern table.  `_h_value` runs the recursion
on an explicit stack of frames that hold words, which `analyze_effective`
reads (a non-effective word has no memo entry, so it is analysed again on
each occurrence).  `check_identity` sums diff(H t) + H(diff t) - t as raw cells
in one dict, the differentials through `free_operad.derivation_into` on
the operad's one cache of generator images (`Difinfty.raw_diff`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

from .coeffs import Coefficient, Rat
from .dif_operads import (
    Difinfty,
    InternalInvariantError,
    d_gen,
    enumerate_monomials,
    m_gen,
)
from .formats import format_tree
from .free_operad import (OperadElement, TreeMonomial, derivation_into,
                          image_terms, region_splicer, replace_region)
from .trees import (DEGREE, GENS, Generator, Word, decode, gen_id,
                    leaf_keys_from, smaller_from)


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


def _add_scaled(acc: dict, h: tuple, e: int, v: Rat) -> None:
    """acc += v * L**e * h, h a flat memo value, in raw cells."""
    for i in range(0, len(h), 3):
        key = (h[i], h[i + 1] + e)
        acc[key] = acc.get(key, 0) + v * h[i + 2]


class Contraction:
    def __init__(self, op: Difinfty):
        self.op = op
        self._typical: dict[Generator, tuple] = {}
        self._h: dict[tuple, tuple] = {}
        self._rationals: dict[Rat, Rat] = {}
        self._m2 = gen_id(m_gen(2))

    # -- typical shapes ----------------------------------------------------

    def typical_info(self, s: Generator) -> tuple[TreeMonomial, int]:
        """Leading monomial of diff(s) and its coefficient, asserted +-1 and
        of the shape base o_1 m2.  The entry kept for s also holds the
        degree and the image terms (`image_terms`) of s_hat - diff(s) /
        c_s, and those of the corolla of s."""
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
        self._typical[s] = (lead, c, repl.degree, image_terms(repl),
                            image_terms(OperadElement.generator(s)))
        return lead, c

    # -- effective divisors -------------------------------------------------

    def analyze_effective(self, word: Word) -> EffectiveAnalysis:
        """Find the effective divisor in one pass over a monomial's word.

        A first-input path is a run of nonzero tokens, and the vertices on
        the root paths of the leaves left of a run's leaf are the nonzero
        tokens before the run.  While those are all of degree 0 and none is
        an m2 first input, a run's only candidate is the vertex above its
        last m2 past the run's head; it is effective when the tokens from
        that m2 to the leaf have degree 0.  After a candidate the prefix is
        no longer clean, which makes the effective divisor unique.  The
        scans are tuple searches and slices, so they run in C.
        """
        m2 = self._m2
        if m2 not in word:
            return _NOT_EFFECTIVE
        degree = DEGREE.__getitem__
        s = 0
        for leaf in range(1, word.count(0) + 1):
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
        an = self.analyze_effective(t.word)
        if not an.is_effective:
            raise ValueError(f"{t!r} is not effective")
        sign, m = replace_region(t, {an.divisor_root, an.divisor_child},
                                 TreeMonomial.corolla(an.s_generator))
        return OperadElement.single(m, self._generator_coefficient(
            an, sign < 0))

    @staticmethod
    def _generator_coefficient(an: EffectiveAnalysis, odd: bool) -> int:
        """(-1)**omega c_s, the coefficient of t with its divisor replaced
        by s; that replacement must not reorder odd factors."""
        if odd:
            raise InternalInvariantError("divisor-to-generator replacement "
                                         "should never reorder odd factors")
        return an.c_s if an.omega % 2 == 0 else -an.c_s

    def _split(self, word: Word, an: EffectiveAnalysis
               ) -> tuple[tuple, dict[tuple, Rat], int]:
        """h_bar and tbar of ``word`` (with its divisor replaced by s_hat -
        diff(s) / c_s, which must have the divisor's degree) as raw cells,
        both spliced from one walk of the divisor region, and the position
        of the divisor root's token, before which every tbar word agrees."""
        splice = region_splicer(word)((an.divisor_root, an.divisor_child))
        _, _, degree, repl, corolla = self._typical[an.s_generator]
        if degree != splice.degree:
            raise InternalInvariantError(
                f"recursion left its (arity, degree) block at "
                f"{format_tree(decode(word))}")
        tbar: dict[tuple, Rat] = {}
        splice(tbar, repl)
        h_bar: dict[tuple, Rat] = {}
        splice(h_bar, corolla)
        (key, sign), = h_bar.items()
        return (key, self._generator_coefficient(an, sign < 0)), tbar, \
            splice.start

    def _h_value(self, word: Word) -> tuple:
        """H of the monomial ``word`` as its memo value, () for zero, by
        well-founded recursion.

        A frame is (word, analysis, h_bar, tbar).  The first visit splits
        the monomial, checks that every tbar word is smaller, drops the
        non-effective ones (their H is zero) and pushes the effective
        uncached ones with their analyses; the revisit, once they are all
        done, sums and stores a nonzero value.  A tbar word shares the
        monomial's tokens before the divisor root, so the order comparison
        resumes there (`leaf_keys_from` once per split, `smaller_from` per
        tbar word).
        """
        memo = self._h
        h = memo.get(word)
        if h is not None:
            return h
        an = self.analyze_effective(word)
        if not an.is_effective:
            return ()
        intern = self._rationals.setdefault
        stack = [(word, an, None, None)]
        while stack:
            cur, an, h_bar, tbar = stack[-1]
            if tbar is not None:
                stack.pop()
                acc = dict([h_bar])
                for w, e, v in tbar:
                    _add_scaled(acc, memo.get(w, ()), e, v)
                flat = [x for (m, e), v in acc.items() if v
                        for x in (m, e, intern(v, v))]
                if flat:
                    memo[cur] = tuple(flat)
                continue
            if cur in memo:
                stack.pop()
                continue
            h_bar, split, p = self._split(cur, an)
            keys = leaf_keys_from(cur, p)
            tbar = []
            stack[-1] = (cur, an, h_bar, tbar)
            for (w, e), v in split.items():
                if not v:
                    continue
                if not smaller_from(w, p, keys):
                    raise InternalInvariantError(
                        f"recursion failed to decrease: "
                        f"{format_tree(decode(w))} vs "
                        f"{format_tree(decode(cur))}")
                if w not in memo:
                    w_an = self.analyze_effective(w)
                    if not w_an.is_effective:
                        continue
                    stack.append((w, w_an, None, None))
                tbar.append((w, e, v))
        return memo.get(word, ())

    def h_monomial(self, t: TreeMonomial) -> OperadElement:
        """H on a single monomial, built from its memo value."""
        h = self._h_value(t.word)
        return OperadElement.from_cells(zip(zip(h[::3], h[1::3]), h[2::3])) \
            if h else _ZERO

    def apply(self, x: OperadElement) -> OperadElement:
        """H on an element, summed from the memo values as raw cells."""
        acc: dict[tuple, Rat] = {}
        for w, cell in x.terms.items():
            for e, v in cell.items():
                _add_scaled(acc, self._h_value(w), e, v)
        return OperadElement.from_cells(acc.items())

    # -- the main verification ---------------------------------------------

    def check_identity(self, t: TreeMonomial) -> OperadElement:
        """(diff H + H diff)(t) - t, summed as raw cells in one dict; zero
        iff the contraction identity holds."""
        h = self._h_value(t.word)
        acc: dict[tuple, Rat] = {(t.word, 0): -1}
        derivation_into(acc, self.op.raw_diff, (
            (h[i], {h[i + 1]: h[i + 2]}) for i in range(0, len(h), 3)))
        dt: dict[tuple, Rat] = {}
        derivation_into(dt, self.op.raw_diff, ((t.word, {0: 1}),))
        for (w, e), v in dt.items():
            if v:
                _add_scaled(acc, self._h_value(w), e, v)
        return OperadElement.from_cells(acc.items())

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
