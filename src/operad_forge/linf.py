"""The L-infinity structure on the deformation space of a graded space V.

Elements live in C(V) = Hom(T(sV), sV) + Hom(T(sV), V) with arity support
>= 1; the first summand is the "alg" part (stored as maps (sV)^n -> sV),
the second the "do" part (maps (sV)^n -> V).  Degrees are map degrees.

The brackets, for alg components written sf and do components g (with
sg = s o g their target suspension):

  (i)   l_2(sf, sg')        = [sf, sg']_G                        (alg part)
  (ii)  l_2(sf, g)          = (-1)^{|sf|} s^-1 [sf, sg]_G        (do part)
  (iii) l_{m+1}(sf, g_1..g_m), m >= 2:
           L^{m-1} sum_{sigma in S_m} chi(sigma; g*)
           (-1)^{m|sf| + sum_{k<m} sum_{j<=k} |g_{sigma(j)}|}
           s^-1 ( sf{ sg_{sigma(1)}, ..., sg_{sigma(m)} } )
  (iv)  moving sf from slot k+1 to the front costs
           (-1)^{|sf| (|g_1|+...+|g_k|) + k}
  (v)   everything else vanishes (including l_1 and any component with two
        alg arguments in arity >= 3).

So whether a component vanishes depends on its parts (arity, ALG|DO)
alone, and `component_part` is that rule, written once: at width 2 one
alg part is enough, and the part is (a + b - 1, ALG if both are alg else
DO); at width n >= 3 it takes exactly one alg part sf, with the other
n - 1 parts do and n - 1 <= arity of sf, and the part is (sum of the
arities - (n - 1), DO).  `live_components` applies it to every product of
the arguments' parts, so a bracket walks only the components it keeps,
and `jacobi_residual` builds an inner bracket l_i(x_S) only when the outer
l(l_i(x_S), x_rest) has a live component on the inner's predicted parts
(`live_parts`): every term it drops is exactly zero.

Item (iii) is not summed ordering by ordering: a `hom_complex.Walk` places
the g's in one left-to-right pass over sf's inputs, whose nodes are the
subsets of placed maps (2^m of them instead of m! orderings).  Placing g_t
after the set S of maps already placed adds #{s in S: s > t} (the
permutation's inversions), #{s in S: s > t, |g_s| and |g_t| odd} (chi's
Koszul part) and (m-1-|S|)|g_t| to the sign exponent, so the total over a
whole ordering is chi(sigma; g*) times the exponent displayed in (iii).
Every component of a bracket, and every bracket of a sum (the Jacobi sum,
l_n^alpha, the Maurer-Cartan equation), adds its terms with their signs,
powers of L and scalars to one walk per output part, walked at once into
that part's raw cells, which are the table of the result: no Coefficient
is built for a cell, here or in the dictionary with plain algebra tables
below.  Coefficients remain as the weight and the scalars of a sum.

Maurer-Cartan elements of degree -1 over a degree-0 space V are exactly
weighted differential algebra structures; twisting by them recovers the
classical cochain complexes (see the cochain module for the comparison).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import factorial
from typing import Iterable, Mapping, Optional, Sequence

from .algebras import DifAlgebraData
from .coeffs import Coefficient, Rat, chi_sign, normalize, shuffles
from .hom_complex import (
    GradedSpace,
    MapFamily,
    MultiMap,
    add_term,
    compose_sum,
    desuspend_target,
    gerstenhaber_terms,
    iso1_down,
    iso1_up,
    iso2_down,
    iso2_up,
    suspend_target,
)

ALG = "alg"
DO = "do"


class CdaElement(MapFamily):
    """Finitely supported element: parts keyed by (arity, ALG|DO), on the
    plain space V."""

    __slots__ = ()

    def __init__(self, space: GradedSpace,
                 parts: Optional[Mapping[tuple[int, str], MultiMap]] = None):
        super().__init__(space, parts)
        for (n, flag), mm in self.parts.items():
            if mm.arity != n or mm.source != space.shift(1):
                raise ValueError("component shape mismatch")
            if mm.target != (mm.source if flag == ALG else space):
                raise ValueError(f"{flag} component must land in "
                                 f"{'sV' if flag == ALG else 'V'}")

    def degrees(self) -> set[int]:
        return {mm.degree for mm in self.parts.values()}

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError(f"element not homogeneous: degrees {degs}")
        return next(iter(degs))

    def __repr__(self):
        if not self.parts:
            return "CdaElement(0)"
        bits = [f"{flag}_{n}[deg {mm.degree}]"
                for (n, flag), mm in sorted(self.parts.items())]
        return "CdaElement(" + ", ".join(bits) + ")"


@cache
def component_part(parts: tuple[tuple[int, str], ...]
                   ) -> Optional[tuple[int, str]]:
    """The part (arity, ALG|DO) a component of l_n on arguments with the
    given parts can have, None if it vanishes by shape (items (iii) and
    (v)); the arity is the sum of theirs less n - 1 either way."""
    n = len(parts)
    algs = [a for a, flag in parts if flag == ALG]
    if n == 2 and algs or n > 2 and len(algs) == 1 and algs[0] >= n - 1:
        return (sum(a for a, _ in parts) - n + 1,
                ALG if len(algs) == 2 else DO)
    return None


def live_components(parts: Sequence[Iterable[tuple[int, str]]]):
    """(combination, part) for every combination of one part per argument
    that `component_part` keeps, with the part it lands in."""
    for combo in itertools.product(*parts):
        part = component_part(combo)
        if part is not None:
            yield combo, part


@cache
def live_parts(parts: tuple[tuple[tuple[int, str], ...], ...]
               ) -> tuple[tuple[int, str], ...]:
    """The parts l_n can have on arguments with the given parts (one tuple
    per argument), sorted; empty if it vanishes by shape."""
    return tuple(sorted({part for _, part in live_components(parts)}))


def _component_into(walks: dict, lam: Coefficient, c,
                    comps: Sequence[tuple[str, MultiMap]]) -> None:
    """Add c times one multilinear component of l_n, which
    `component_part` keeps, to ``walks``; a do part is walked on the
    suspended maps sg."""
    flags = [f for f, _ in comps]
    if flags.count(ALG) == 2:
        for term in gerstenhaber_terms(c, comps[0][1], comps[1][1]):
            add_term(walks, ALG, *term)
        return
    k = flags.index(ALG)
    sf = comps[k][1]
    gs = [mm for f, mm in comps if f == DO]
    gdeg = [mm.degree for mm in gs]
    # item (iv): move the alg component to the front
    exp_iv = sf.degree * sum(gdeg[:k]) + k
    m = len(gs)
    sgs = [suspend_target(g) for g in gs]
    # items (ii) and (iii) with item (iv)'s sign folded into the scalar
    if (exp_iv + m * sf.degree) % 2:
        c = -c
    if m == 1:
        for term in gerstenhaber_terms(c, sf, sgs[0]):
            add_term(walks, DO, *term)
        return
    # item (iii), with L^(m-1) folded into the scalar and step[S][t] the
    # sign exponent of placing g_t after the set S (see the module
    # docstring)
    c = c * lam ** (m - 1)
    odd = sum(1 << t for t, d in enumerate(gdeg) if d % 2)
    step = []
    for placed in range(1 << m):
        left = m - 1 - placed.bit_count()
        row = []
        for t, d in enumerate(gdeg):
            later = placed >> (t + 1)
            row.append(later.bit_count() + left * d
                       + (d % 2) * (later & (odd >> (t + 1))).bit_count())
        step.append(row)
    add_term(walks, DO, c, sf, sgs, step)


def _component_bracket(space: GradedSpace, lam: Coefficient,
                       comps: Sequence[tuple[str, MultiMap]]
                       ) -> Optional[tuple[str, MultiMap]]:
    """One multilinear component of l_n, as `cda_bracket` computes it on
    single-part arguments; None encodes zero."""
    x = cda_bracket(space, lam, [CdaElement(space, {(mm.arity, flag): mm})
                                 for flag, mm in comps])
    return next(((flag, mm) for (_, flag), mm in x.parts.items()), None)


def _bracket_sum(space: GradedSpace, lam: Coefficient,
                 terms: Iterable[tuple]) -> CdaElement:
    """sum of c * l_n(args) over (c, args) terms, l_n extended
    multilinearly over the components of each argument.  Each bracket adds
    its components to one walk per output part (arity, ALG|DO), walked at
    once into that part's raw cells, which become the part's table as they
    are; a do part is desuspended there."""
    walks: dict = {}
    for c, args in terms:
        for combo, _ in live_components([a.parts for a in args]):
            _component_into(walks, lam, c, [
                (key[1], a.parts[key]) for a, key in zip(args, combo)])
        for walk in walks.values():
            walk.walk()
    return CdaElement(space, {part: walk.result() if part[1] == ALG
                              else desuspend_target(walk.result())
                              for part, walk in walks.items()})


def cda_bracket(space: GradedSpace, lam: Coefficient,
                args: Sequence[CdaElement]) -> CdaElement:
    """l_n extended multilinearly over the components of each argument."""
    return _bracket_sum(space, lam, [(1, args)])


def jacobi_residual(space: GradedSpace, lam: Coefficient,
                    args: Sequence[CdaElement]) -> CdaElement:
    """The generalized Jacobi sum; zero iff the identity holds on args.
    A term whose outer bracket has no live component on the inner
    bracket's `live_parts` is zero, and its inner bracket is not built."""
    n = len(args)
    if any(a.is_zero() for a in args):
        return CdaElement(space)
    degs = [a.degree() for a in args]
    parts = [tuple(a.parts) for a in args]
    # i = 1 and i = n give l_1 terms, and l_1 = 0
    return _bracket_sum(space, lam, (
        (chi_sign(degs, sigma) * (-1) ** (i * (n - i)),
         [cda_bracket(space, lam, [args[t] for t in sigma[:i]])]
         + [args[t] for t in sigma[i:]])
        for i in range(2, n) for sigma in shuffles(i, n - i)
        if live_parts((live_parts(tuple(parts[t] for t in sigma[:i])),
                       *(parts[t] for t in sigma[i:])))))


def antisymmetry_residual(space: GradedSpace, lam: Coefficient,
                          args: Sequence[CdaElement],
                          sigma: Sequence[int]) -> CdaElement:
    if any(a.is_zero() for a in args):
        return CdaElement(space)
    degs = [a.degree() for a in args]
    return _bracket_sum(space, lam, [(1, [args[s] for s in sigma]),
                                     (-chi_sign(degs, sigma), args)])


# ---------------------------------------------------------------------------
# Seeded sampling (used by the jacobi checker and the CLI)
# ---------------------------------------------------------------------------

def random_multimap(rng, source: GradedSpace, target: GradedSpace, arity: int,
                    degree: int, density: float = 0.6,
                    values=(-1, 1, 2)) -> MultiMap:
    table = {}
    for key in itertools.product(source.basis(), repeat=arity):
        in_deg = sum(source.degree_of(i) for i in key)
        row = {}
        for b in target.basis():
            if target.degree_of(b) == in_deg + degree and rng.random() < density:
                row[b] = {0: rng.choice(values)}
        if row:
            table[key] = row
    return MultiMap(source, target, arity, degree, table, check=False)


def random_component(rng, space: GradedSpace, flag: str,
                     max_arity: int = 3) -> Optional[CdaElement]:
    """A homogeneous single-component element with a random legal degree."""
    s_space = space.shift(1)
    n = rng.randint(1, max_arity)
    target = s_space if flag == ALG else space
    degrees = set()
    for key in itertools.product(s_space.degrees, repeat=n):
        for b in target.basis():
            degrees.add(target.degree_of(b) - sum(key))
    degree = rng.choice(sorted(degrees))
    mm = random_multimap(rng, s_space, target, n, degree)
    if mm.is_zero():
        return None
    return CdaElement(space, {(n, flag): mm})


#: flag patterns per bracket width; chosen so every defining case of the
#: brackets is exercised, including ones that vanish identically.  On a
#: pattern with one alg part every Jacobi term vanishes by shape
#: (`live_parts`), so `jacobi_residual` builds no inner bracket there.
JACOBI_PATTERNS = {
    1: [(ALG,), (DO,)],
    2: [(ALG, ALG), (ALG, DO), (DO, ALG), (DO, DO)],
    3: [(ALG, ALG, DO), (ALG, DO, DO), (DO, ALG, DO), (DO, DO, DO)],
    4: [(ALG, ALG, DO, DO), (ALG, DO, DO, DO), (DO, DO, ALG, DO)],
    5: [(ALG, ALG, DO, DO, DO), (ALG, DO, DO, DO, DO),
        (DO, ALG, DO, ALG, DO)],
}


def jacobi_check(space: GradedSpace, lam: Coefficient, n: int, trials: int,
                 seed: int, max_arity: int = 3) -> dict:
    """Seeded check of the generalized Jacobi identity at width n.

    Returns {"checked": int, "failures": [repr, ...], "seed": seed}.
    """
    import random as _random

    rng = _random.Random(seed)
    patterns = JACOBI_PATTERNS.get(n)
    if patterns is None:
        patterns = [tuple(rng.choice([ALG, DO]) for _ in range(n))]
    checked = 0
    failures = []
    while checked < trials:
        pattern = patterns[checked % len(patterns)]
        args = [random_component(rng, space, f, max_arity) for f in pattern]
        if any(a is None for a in args):
            continue
        checked += 1
        residual = jacobi_residual(space, lam, args)
        if not residual.is_zero():
            failures.append(f"pattern {pattern}: residual {residual!r}")
    return {"checked": checked, "failures": failures, "seed": seed}


# ---------------------------------------------------------------------------
# Maurer-Cartan elements and twisting
# ---------------------------------------------------------------------------

def mc_residual(space: GradedSpace, lam: Coefficient,
                alpha: CdaElement) -> CdaElement:
    """sum_n 1/n! (-1)^(n(n-1)/2) l_n(alpha^n), cut at the exact width
    `twist_width(alpha, [])`."""
    if alpha.is_zero():
        return CdaElement(space)
    if alpha.degree() != -1:
        raise ValueError("Maurer-Cartan candidates must have degree -1")
    cap = twist_width(alpha, [])
    out = _bracket_sum(space, lam, (
        (Fraction((-1) ** (n * (n - 1) // 2), factorial(n)), [alpha] * n)
        for n in range(2, cap + 1)))
    extra = cda_bracket(space, lam, [alpha] * (cap + 1))
    if not extra.is_zero():
        raise AssertionError("MC cutoff bound violated")
    return out


def twist_width(alpha: CdaElement, args: Sequence[CdaElement]) -> int:
    """The largest width n + i at which l_{n+i}(alpha^i, args) has a live
    component (`live_parts`), 1 if none has (l_1 = 0).  A live component
    of width w >= 3 braces w - 1 maps into an alg part, so the search
    starts at 1 + the largest arity A of an alg part (at 2 if A < 2)."""
    n, a = len(args), tuple(alpha.parts)
    parts = tuple(tuple(x.parts) for x in args)
    top = max(2, 1 + max((k for x in [alpha, *args]
                          for k, flag in x.parts if flag == ALG), default=0))
    return next((w for w in range(top, max(n, 2) - 1, -1)
                 if live_parts((a,) * (w - n) + parts)), 1)


def twisted_bracket(space: GradedSpace, lam: Coefficient, alpha: CdaElement,
                    args: Sequence[CdaElement]) -> CdaElement:
    """l_n^alpha(args) = sum_i 1/i! (-1)^(in + i(i-1)/2)
    l_{n+i}(alpha^i, args), summed up to the width `twist_width`."""
    n = len(args)
    return _bracket_sum(space, lam, (
        (normalize(Fraction((-1) ** (i * n + i * (i - 1) // 2),
                            factorial(i))), [alpha] * i + list(args))
        for i in range(max(0, 2 - n), twist_width(alpha, args) - n + 1)))


def twisted_l1(space: GradedSpace, lam: Coefficient, alpha: CdaElement,
               x: CdaElement) -> CdaElement:
    return twisted_bracket(space, lam, alpha, [x])


# ---------------------------------------------------------------------------
# Dictionary with plain algebra data
# ---------------------------------------------------------------------------

def algebra_space(alg: DifAlgebraData) -> GradedSpace:
    """The algebra's underlying space, in degree 0: one shared space per
    dimension, so its shifts are built once (a space is never changed)."""
    return _space_in_degree_zero(alg.dim)


@cache
def _space_in_degree_zero(dim: int) -> GradedSpace:
    return GradedSpace({0: dim})


def table_to_multimap(alg: DifAlgebraData, table, arity: int) -> MultiMap:
    """The degree-0 map on `algebra_space(alg)` of a plain table {basis
    tuple: coordinate vector or sparse row {basis index: rational}}."""
    space = algebra_space(alg)
    return MultiMap(space, space, arity, 0, {
        key: {b: {0: c} for b, c in
              (row.items() if isinstance(row, dict) else enumerate(row))}
        for key, row in table.items()})


def multimap_to_table(mm: MultiMap):
    """The rows of mm's constant terms, as a `cochain.Table`."""
    rows = {key: {b: cell[0] for b, cell in row.items() if 0 in cell}
            for key, row in mm.table.items()}
    return {key: row for key, row in rows.items() if row}


@cache
def algebra_maps(alg: DifAlgebraData) -> tuple[MultiMap, MultiMap]:
    """The plain maps m: A^2 -> A and d: A -> A of the algebra's tables,
    built once per algebra (a map is never changed)."""
    pairs = itertools.product(range(alg.dim), repeat=2)
    mult = {(i, j): alg.mult[i][j] for i, j in pairs}
    d = {(i,): row for i, row in enumerate(alg.d)}
    return table_to_multimap(alg, mult, 2), table_to_multimap(alg, d, 1)


def mc_from_algebra(alg: DifAlgebraData) -> tuple[GradedSpace, CdaElement]:
    """The degree -1 element (m, tau) encoding multiplication and operator."""
    space = algebra_space(alg)
    m, d = algebra_maps(alg)
    return space, CdaElement(space, {(2, ALG): iso1_up(m),
                                     (1, DO): iso2_up(d)})


def algebra_from_mc(space: GradedSpace, alpha: CdaElement,
                    lam: Rat) -> DifAlgebraData:
    """Inverse of mc_from_algebra on degree-0 spaces."""
    if set(space.dims) - {0}:
        raise ValueError("only degree-0 spaces translate to plain algebras")
    for key in alpha.parts:
        if key not in ((2, ALG), (1, DO)):
            raise ValueError(f"unexpected component {key}")
    dim = space.dim()

    def rows(key, down):
        mm = alpha.parts.get(key)
        return {} if mm is None else multimap_to_table(down(mm))

    def vec(row):
        return [row.get(k, 0) for k in range(dim)]

    m, d = rows((2, ALG), iso1_down), rows((1, DO), iso2_down)
    return DifAlgebraData.build(
        [[vec(m.get((i, j), {})) for j in range(dim)] for i in range(dim)],
        [vec(d.get((i,), {})) for i in range(dim)], lam)


def mc_residual_of_algebra(alg: DifAlgebraData) -> CdaElement:
    space, alpha = mc_from_algebra(alg)
    lam = Coefficient.rational(alg.lam)
    return mc_residual(space, lam, alpha)


# ---------------------------------------------------------------------------
# The dg Lie algebra on the operator part over a fixed associative algebra
# ---------------------------------------------------------------------------

class CdoDgla:
    """Once the multiplication is fixed (as the MC element beta = (m, 0)),
    the operator part closes under the twisted brackets and they vanish in
    arity >= 3, leaving a dg Lie algebra.  Each of its sums (l1 - l2 in the
    twisted differential and the MC residual) is one bracket sum."""

    def __init__(self, alg: DifAlgebraData):
        self.alg = alg
        self.space = algebra_space(alg)
        self.lam = Coefficient.rational(alg.lam)
        self.beta = CdaElement(self.space,
                               {(2, ALG): iso1_up(algebra_maps(alg)[0])})

    def _do_sum(self, terms, arity: int, degree: int) -> MultiMap:
        """The do part of the given arity of the sum of c * l(beta, *gs)
        over the (c, gs) terms, which must be its only part; the zero map
        of the given degree if the sum vanishes."""
        x = _bracket_sum(self.space, self.lam, [
            (c, [self.beta] + [CdaElement(self.space, {(g.arity, DO): g})
                               for g in gs]) for c, gs in terms])
        if set(x.parts) - {(arity, DO)}:
            raise AssertionError("operator part escaped")
        return x.parts.get((arity, DO)) or MultiMap.zero(
            self.space.shift(1), self.space, arity, degree)

    def l1(self, g: MultiMap) -> MultiMap:
        return self._do_sum([(-1, [g])], g.arity + 1, g.degree - 1)

    def l2(self, g: MultiMap, h: MultiMap) -> MultiMap:
        return self._do_sum([(1, [g, h])], g.arity + h.arity,
                            g.degree + h.degree)

    def mc_residual_of(self, tau: MultiMap) -> MultiMap:
        """l1(tau) - 1/2 l2(tau, tau) for a degree -1 operator candidate."""
        return self._do_sum([(-1, [tau]), (Fraction(-1, 2), [tau, tau])],
                            tau.arity + 1, tau.degree - 1)

    def twisted_l1(self, tau: MultiMap, g: MultiMap) -> MultiMap:
        """l1(g) - l2(tau, g)."""
        return self._do_sum([(-1, [g]), (-1, [tau, g])], g.arity + 1,
                            g.degree - 1)


def remark_bracket(alg: DifAlgebraData, f_plain: MultiMap, g_plain: MultiMap
                   ) -> MultiMap:
    """The explicit Lie bracket on operator cochains of an associative
    algebra, as displayed:

      [f,g](a_1..a_{n+k}) = (-1)^n L f(a_1..a_n) g(a_{n+1}..)
                          + (-1)^(nk+k+1) L g(a_1..a_k) f(a_{k+1}..)

    for plain (degree-0 inputs) cochains of arities n and k.  This display
    agrees with the transported twisted bracket only when n = k mod 2;
    see transported_do_bracket for the form that holds in general."""
    n, k = f_plain.arity, g_plain.arity
    space, m, lam = algebra_space(alg), algebra_maps(alg)[0], alg.lam
    return compose_sum(space, space, n + k, 0, [
        ((-1) ** n * lam, m, [f_plain, g_plain]),
        ((-1) ** (n * k + k + 1) * lam, m, [g_plain, f_plain])])


def transported_do_bracket(alg: DifAlgebraData, f_plain: MultiMap,
                           g_plain: MultiMap) -> MultiMap:
    """The bracket the twisted structure actually induces on plain operator
    cochains:

      [f,g](a_1..a_{n+k}) = (-1)^(nk) L f(a_1..a_n) g(a_{n+1}..)
                          - L g(a_1..a_k) f(a_{k+1}..)

    equal to the displayed remark_bracket when n = k mod 2; the difference
    in general is the Koszul sign of evaluating the suspended tensor maps,
    machine-checked against the twisted bracket for arities <= 3."""
    n, k = f_plain.arity, g_plain.arity
    space, m, lam = algebra_space(alg), algebra_maps(alg)[0], alg.lam
    return compose_sum(space, space, n + k, 0, [
        ((-1) ** (n * k) * lam, m, [f_plain, g_plain]),
        (-lam, m, [g_plain, f_plain])])
