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

Maurer-Cartan elements of degree -1 over a degree-0 space V are exactly
weighted differential algebra structures; twisting by them recovers the
classical cochain complexes (see the cochain module for the comparison).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, Optional, Sequence

from .algebras import DifAlgebraData
from .coeffs import (Coefficient, LAMBDA, add_into, as_coefficient,
                     chi_sign, shuffles, unit_sign)
from .hom_complex import (
    GradedSpace,
    MultiMap,
    brace_sum,
    desuspend_target,
    hom_gerstenhaber,
    iso1_down,
    iso1_up,
    iso2_down,
    iso2_up,
    sum_maps,
    suspend_target,
)

ALG = "alg"
DO = "do"


class CdaElement:
    """Finitely supported element: parts keyed by (arity, ALG|DO)."""

    __slots__ = ("space", "parts")

    def __init__(self, space: GradedSpace,
                 parts: Optional[Mapping[tuple[int, str], MultiMap]] = None):
        self.space = space              # the plain space V
        self.parts: dict[tuple[int, str], MultiMap] = {}
        if parts:
            s_space = space.shift(1)
            for (n, flag), mm in parts.items():
                if mm.is_zero():
                    continue
                if mm.arity != n or mm.source != s_space:
                    raise ValueError("component shape mismatch")
                want = s_space if flag == ALG else space
                if mm.target != want:
                    raise ValueError(f"{flag} component must land in "
                                     f"{'sV' if flag == ALG else 'V'}")
                self.parts[(n, flag)] = mm

    @staticmethod
    def zero(space: GradedSpace) -> "CdaElement":
        return CdaElement(space)

    def is_zero(self) -> bool:
        return not self.parts

    def degrees(self) -> set[int]:
        return {mm.degree for mm in self.parts.values()}

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError(f"element not homogeneous: degrees {degs}")
        return next(iter(degs))

    def max_arity(self) -> int:
        return max((n for n, _ in self.parts), default=0)

    @staticmethod
    def sum(space: GradedSpace, pairs: Iterable[tuple]) -> "CdaElement":
        """sum of c * x over (c, x) pairs of elements on ``space``, each
        part accumulated row by row into one fresh table."""
        def families():
            for c, x in pairs:
                if x.space != space:
                    raise ValueError("mixed spaces")
                yield c, x.parts

        out = CdaElement(space)
        out.parts = sum_maps(families())
        return out

    def __add__(self, other: "CdaElement") -> "CdaElement":
        return CdaElement.sum(self.space, [(1, self), (1, other)])

    def __neg__(self) -> "CdaElement":
        out = CdaElement(self.space)
        out.parts = {k: -mm for k, mm in self.parts.items()}
        return out

    def __sub__(self, other: "CdaElement") -> "CdaElement":
        return CdaElement.sum(self.space, [(1, self), (-1, other)])

    def scale(self, c) -> "CdaElement":
        unit = unit_sign(c)
        if unit == 1:
            return self
        if unit == -1:
            return -self
        c = as_coefficient(c)
        out = CdaElement(self.space)
        if not c.is_zero():
            out.parts = {k: mm.scale(c) for k, mm in self.parts.items()}
        return out

    def __eq__(self, other):
        if not isinstance(other, CdaElement):
            return NotImplemented
        return self.space == other.space and self.parts == other.parts

    def __repr__(self):
        if not self.parts:
            return "CdaElement(0)"
        bits = [f"{flag}_{n}[deg {mm.degree}]"
                for (n, flag), mm in sorted(self.parts.items())]
        return "CdaElement(" + ", ".join(bits) + ")"

    @staticmethod
    def alg_part(space: GradedSpace, mm: MultiMap) -> "CdaElement":
        return CdaElement(space, {(mm.arity, ALG): mm})

    @staticmethod
    def do_part(space: GradedSpace, mm: MultiMap) -> "CdaElement":
        return CdaElement(space, {(mm.arity, DO): mm})


def _component_bracket(space: GradedSpace, lam: Coefficient,
                       comps: Sequence[tuple[str, MultiMap]]
                       ) -> Optional[tuple[str, MultiMap]]:
    """One multilinear component of l_n; None encodes zero."""
    n = len(comps)
    flags = [f for f, _ in comps]
    n_alg = flags.count(ALG)
    if n == 2 and n_alg == 2:
        sf, sg = comps[0][1], comps[1][1]
        return (ALG, hom_gerstenhaber(sf, sg))
    if n_alg != 1 or n < 2:
        return None
    k = flags.index(ALG)
    sf = comps[k][1]
    gs = [mm for f, mm in comps if f == DO]
    gdeg = [mm.degree for mm in gs]
    # item (iv): move the alg component to the front
    exp_iv = sf.degree * sum(gdeg[:k]) + k
    m = len(gs)
    if m == 1:
        g = gs[0]
        bracket = hom_gerstenhaber(sf, suspend_target(g))
        out = desuspend_target(bracket)
        exp = exp_iv + sf.degree
        return (DO, out if exp % 2 == 0 else -out)
    # item (iii), with item (iv)'s sign and L^(m-1) folded into every term
    lam_pow = Coefficient.one()
    for _ in range(m - 1):
        lam_pow = lam_pow * lam
    sgs = [suspend_target(g) for g in gs]
    terms = []
    for sigma in itertools.permutations(range(m)):
        chi = chi_sign(gdeg, sigma)
        exp = exp_iv + m * sf.degree + sum(
            (m - 1 - j) * gdeg[sigma[j]] for j in range(m - 1))
        sign = -chi if exp % 2 else chi
        terms.append((lam_pow if sign > 0 else -lam_pow, sf,
                      [sgs[s] for s in sigma]))
    total = brace_sum(terms)
    if total.is_zero():
        return None
    return (DO, desuspend_target(total))


def cda_bracket(space: GradedSpace, lam: Coefficient,
                args: Sequence[CdaElement]) -> CdaElement:
    """l_n extended multilinearly over the components of each argument."""
    n = len(args)
    if n < 2 or any(a.is_zero() for a in args):
        return CdaElement.zero(space)
    terms = []
    for combo in itertools.product(*[list(a.parts.items()) for a in args]):
        res = _component_bracket(space, lam,
                                 [(flag, mm) for (_, flag), mm in combo])
        if res is not None:
            flag, mm = res
            terms.append((1, CdaElement(space, {(mm.arity, flag): mm})))
    return CdaElement.sum(space, terms)


def jacobi_residual(space: GradedSpace, lam: Coefficient,
                    args: Sequence[CdaElement]) -> CdaElement:
    """The generalized Jacobi sum; zero iff the identity holds on args."""
    n = len(args)
    degs = [a.degree() for a in args]

    def terms():
        for i in range(1, n + 1):
            outer_sign = -1 if (i * (n - i)) % 2 else 1
            for sigma in shuffles(i, n - i):
                inner = cda_bracket(space, lam,
                                    [args[sigma[t]] for t in range(i)])
                if inner.is_zero():
                    continue
                rest = [args[sigma[t]] for t in range(i, n)]
                yield (chi_sign(degs, sigma) * outer_sign,
                       cda_bracket(space, lam, [inner] + rest))

    return CdaElement.sum(space, terms())


def antisymmetry_residual(space: GradedSpace, lam: Coefficient,
                          args: Sequence[CdaElement],
                          sigma: Sequence[int]) -> CdaElement:
    degs = [a.degree() for a in args]
    chi = chi_sign(degs, sigma)
    lhs = cda_bracket(space, lam, [args[s] for s in sigma])
    rhs = cda_bracket(space, lam, args).scale(chi)
    return lhs - rhs


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
                row[b] = Coefficient.rational(rng.choice(values))
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
#: brackets is exercised, including ones that vanish identically.
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


def _jacobi_width_worker(task):
    """Process-pool entry: rebuilds the inputs so results merge in width
    order, independent of scheduling."""
    dims, lam_items, n, trials, seed, max_arity = task
    return jacobi_check(GradedSpace(dims), Coefficient(dict(lam_items)), n,
                        trials, seed, max_arity)


# ---------------------------------------------------------------------------
# Maurer-Cartan elements and twisting
# ---------------------------------------------------------------------------

def mc_residual(space: GradedSpace, lam: Coefficient,
                alpha: CdaElement) -> CdaElement:
    """sum_n 1/n! (-1)^(n(n-1)/2) l_n(alpha^n), with the structurally exact
    cutoff n <= max arity + 1 (components with two alg arguments vanish)."""
    if alpha.is_zero():
        return CdaElement.zero(space)
    if alpha.degree() != -1:
        raise ValueError("Maurer-Cartan candidates must have degree -1")
    cap = max(2, alpha.max_arity() + 1)
    out = CdaElement.sum(space, (
        (Fraction((-1) ** ((n * (n - 1) // 2) % 2), factorial(n)),
         cda_bracket(space, lam, [alpha] * n))
        for n in range(2, cap + 1)))
    extra = cda_bracket(space, lam, [alpha] * (cap + 1))
    if not extra.is_zero():
        raise AssertionError("MC cutoff bound violated")
    return out


def twisted_bracket(space: GradedSpace, lam: Coefficient, alpha: CdaElement,
                    args: Sequence[CdaElement]) -> CdaElement:
    """l_n^alpha(args) = sum_i 1/i! (-1)^(in + i(i-1)/2)
    l_{n+i}(alpha^i, args)."""
    n = len(args)
    cap = max(a.max_arity() for a in list(args) + [alpha]) + 2
    return CdaElement.sum(space, (
        (Fraction((-1) ** ((i * n + i * (i - 1) // 2) % 2), factorial(i)),
         cda_bracket(space, lam, [alpha] * i + list(args)))
        for i in range(max(0, 2 - n), cap + 1)))


def twisted_l1(space: GradedSpace, lam: Coefficient, alpha: CdaElement,
               x: CdaElement) -> CdaElement:
    return twisted_bracket(space, lam, alpha, [x])


# ---------------------------------------------------------------------------
# Dictionary with plain algebra data
# ---------------------------------------------------------------------------

def algebra_space(alg: DifAlgebraData) -> GradedSpace:
    return GradedSpace({0: alg.dim})


def _mult_map(alg: DifAlgebraData, space: GradedSpace) -> MultiMap:
    table = {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            row = {k: Coefficient.rational(c)
                   for k, c in enumerate(alg.mult[i][j]) if c}
            if row:
                table[(i, j)] = row
    return MultiMap(space, space, 2, 0, table)


def _d_map(alg: DifAlgebraData, space: GradedSpace) -> MultiMap:
    table = {}
    for i in range(alg.dim):
        row = {k: Coefficient.rational(c)
               for k, c in enumerate(alg.d[i]) if c}
        if row:
            table[(i,)] = row
    return MultiMap(space, space, 1, 0, table)


def mc_from_algebra(alg: DifAlgebraData) -> tuple[GradedSpace, CdaElement]:
    """The degree -1 element (m, tau) encoding multiplication and operator."""
    space = algebra_space(alg)
    m = iso1_up(_mult_map(alg, space))
    tau = iso2_up(_d_map(alg, space))
    parts = {}
    if not m.is_zero():
        parts[(2, ALG)] = m
    if not tau.is_zero():
        parts[(1, DO)] = tau
    return space, CdaElement(space, parts)


def algebra_from_mc(space: GradedSpace, alpha: CdaElement,
                    lam: Fraction) -> DifAlgebraData:
    """Inverse of mc_from_algebra on degree-0 spaces."""
    if set(space.dims) - {0}:
        raise ValueError("only degree-0 spaces translate to plain algebras")
    dim = space.dim()
    zero = [Fraction(0)] * dim
    mult = [[list(zero) for _ in range(dim)] for _ in range(dim)]
    d = [list(zero) for _ in range(dim)]
    m = alpha.parts.get((2, ALG))
    if m is not None:
        plain = iso1_down(m)
        for (i, j), out in plain.table.items():
            for k, c in out.items():
                mult[i][j][k] = c.constant_term()
    tau = alpha.parts.get((1, DO))
    if tau is not None:
        plain = iso2_down(tau)
        for (i,), out in plain.table.items():
            for k, c in out.items():
                d[i][k] = c.constant_term()
    for key in alpha.parts:
        if key not in ((2, ALG), (1, DO)):
            raise ValueError(f"unexpected component {key}")
    return DifAlgebraData.build(mult, d, lam)


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
    arity >= 3, leaving a dg Lie algebra."""

    def __init__(self, alg: DifAlgebraData):
        self.alg = alg
        self.space = algebra_space(alg)
        self.lam = Coefficient.rational(alg.lam)
        m = iso1_up(_mult_map(alg, self.space))
        self.beta = CdaElement(self.space, {(2, ALG): m} if not m.is_zero()
                               else {})

    def _wrap(self, g: MultiMap) -> CdaElement:
        return CdaElement.do_part(self.space, g)

    def l1(self, g: MultiMap) -> MultiMap:
        out = cda_bracket(self.space, self.lam,
                          [self.beta, self._wrap(g)]).scale(-1)
        return self._do_of(out, g.arity + 1, g.degree - 1)

    def l2(self, g: MultiMap, h: MultiMap) -> MultiMap:
        out = cda_bracket(self.space, self.lam,
                          [self.beta, self._wrap(g), self._wrap(h)])
        return self._do_of(out, g.arity + h.arity, g.degree + h.degree - 1)

    def _do_of(self, x: CdaElement, arity: int, degree: int) -> MultiMap:
        for (n, flag), mm in x.parts.items():
            if flag != DO:
                raise AssertionError("operator part escaped")
        mm = x.parts.get((arity, DO))
        if mm is None:
            return MultiMap.zero(self.space.shift(1), self.space, arity,
                                 degree)
        return mm

    def mc_residual_of(self, tau: MultiMap) -> MultiMap:
        """l1(tau) - 1/2 l2(tau, tau) for a degree -1 operator candidate."""
        return self.l1(tau) - self.l2(tau, tau).scale(Fraction(1, 2))

    def twisted_l1(self, tau: MultiMap, g: MultiMap) -> MultiMap:
        return self.l1(g) - self.l2(tau, g)


def concat_product(alg: DifAlgebraData, a: MultiMap, b: MultiMap,
                   sign_exp: int, lam: Coefficient) -> MultiMap:
    """(a . b)(x_1..x_{n+k}) = +-L a(x_1..x_n) b(x_{n+1}..), multiplied in
    the algebra, for plain degree-0 cochains."""
    space = algebra_space(alg)
    table: dict[tuple, dict[int, Coefficient]] = {}
    for ka, outa in a.table.items():
        for kb, outb in b.table.items():
            row: dict[int, Coefficient] = {}
            for ia, ca in outa.items():
                va = alg.unit_vec(ia)
                for ib, cb in outb.items():
                    prod = alg.product(va, alg.unit_vec(ib))
                    for t, pc in enumerate(prod):
                        if pc == 0:
                            continue
                        c = ca * cb * Coefficient.rational(pc) * lam
                        add_into(row, t, -c if sign_exp % 2 else c)
            add_into(table, ka + kb, row)
    return MultiMap(space, space, a.arity + b.arity, 0, table, check=False)


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
    lam = Coefficient.rational(alg.lam)
    return concat_product(alg, f_plain, g_plain, n, lam) + \
        concat_product(alg, g_plain, f_plain, n * k + k + 1, lam)


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
    lam = Coefficient.rational(alg.lam)
    return concat_product(alg, f_plain, g_plain, n * k, lam) + \
        concat_product(alg, g_plain, f_plain, 1, lam)
