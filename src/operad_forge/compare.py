"""Side-by-side comparisons between the twisted deformation brackets and
the classical cochain complexes, on concrete algebras.

The dictionary: a level-n pair (f: A^n -> M, g: A^(n-1) -> M) with M = A
regular corresponds to the element with alg part the input-output
suspension of f (arity n) and do part the input suspension of g (arity
n-1).  Twisting by the algebra's Maurer-Cartan element turns the width-1
bracket into minus the total differential; fixing the multiplication only
turns the operator part into a dg Lie algebra whose twisted differential
is the operator differential.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebras import DifAlgebraData
from .cochain import CochainComplexes, DaCochain
from .coeffs import Coefficient
from .hom_complex import MultiMap, iso1_up, iso2_down, iso2_up
from .linf import (
    ALG,
    DO,
    CdaElement,
    CdoDgla,
    algebra_space,
    mc_from_algebra,
    remark_bracket,
    transported_do_bracket,
    twisted_l1,
)


def _rows_to_multimap(alg: DifAlgebraData, rows, arity: int) -> MultiMap:
    space = algebra_space(alg)
    return MultiMap(space, space, arity, 0, {
        key: {b: Coefficient.rational(c) for b, c in row.items()}
        for key, row in rows.items()})


def table_to_multimap(alg: DifAlgebraData, table, arity: int) -> MultiMap:
    """The map of a plain table {basis tuple: coordinate vector}."""
    return _rows_to_multimap(alg, {key: {b: c for b, c in enumerate(vec) if c}
                                   for key, vec in table.items()}, arity)


def multimap_to_table(alg: DifAlgebraData, mm: MultiMap):
    """The rows of mm's constant terms, as a `cochain.Table`."""
    rows = {key: {b: c.constant_term() for b, c in row.items()
                  if c.constant_term()} for key, row in mm.table.items()}
    return {key: row for key, row in rows.items() if row}


def da_cochain_to_cda(alg: DifAlgebraData, x: DaCochain) -> CdaElement:
    parts = {(x.level, ALG): iso1_up(_rows_to_multimap(alg, x.f, x.level))}
    if x.g:
        parts[(x.level - 1, DO)] = iso2_up(
            _rows_to_multimap(alg, x.g, x.level - 1))
    return CdaElement(algebra_space(alg), parts)


def da_twist_mismatches(alg: DifAlgebraData, max_level: int) -> list[str]:
    """Twisted width-1 bracket vs the translation of minus the total
    differential, on every basis cochain at levels 1..max_level."""
    cx = CochainComplexes(alg)
    space, alpha = mc_from_algebra(alg)
    lam = Coefficient.rational(alg.lam)
    bad = []
    for n in range(1, max_level + 1):
        for basis_cochain in cx._da_basis(n):
            lhs = twisted_l1(space, lam, alpha,
                             da_cochain_to_cda(alg, basis_cochain))
            rhs = da_cochain_to_cda(alg, cx.da_diff(basis_cochain)).scale(-1)
            if lhs != rhs:
                bad.append(f"level {n}: twisted l1 != -dDA on a basis cochain")
    return bad


def do_twist_mismatches(alg: DifAlgebraData, max_level: int) -> list[str]:
    """(l_1^beta)^tau vs the operator differential at levels 1..max_level."""
    cx = CochainComplexes(alg)
    dgla = CdoDgla(alg)
    tau = iso2_up(table_to_multimap(alg, {(i,): alg.d[i]
                                          for i in range(alg.dim)}, 1))
    bad = []
    for n in range(1, max_level + 1):
        for key in itertools.product(range(alg.dim), repeat=n):
            for x in range(alg.dim):
                unit = {key: {x: Fraction(1)}}
                g = iso2_up(_rows_to_multimap(alg, unit, n))
                lhs = multimap_to_table(alg, iso2_down(dgla.twisted_l1(tau, g)))
                if lhs != cx.do_diff(n, unit):
                    bad.append(f"level {n}: (l1^beta)^tau != dDO at {key}, x{x}")
    return bad


def do_bracket_mismatches(alg: DifAlgebraData, max_arity: int,
                          corrected: bool, rng=None,
                          samples: int = 4) -> list[str]:
    """The explicit operator bracket vs the twisted width-2 bracket.

    corrected=False uses the displayed formula (exact for n = k mod 2
    only); corrected=True uses the transported form, exact everywhere.
    """
    import random as _random

    rng = rng or _random.Random(0)
    dgla = CdoDgla(alg)
    formula = transported_do_bracket if corrected else remark_bracket
    bad = []
    for nf in range(1, max_arity + 1):
        for ng in range(1, max_arity + 1):
            for _ in range(samples):
                ftab = {}
                for key in itertools.product(range(alg.dim), repeat=nf):
                    vec = tuple(Fraction(rng.choice([-1, 0, 1]))
                                for _ in range(alg.dim))
                    if any(vec):
                        ftab[key] = vec
                gtab = {}
                for key in itertools.product(range(alg.dim), repeat=ng):
                    vec = tuple(Fraction(rng.choice([-1, 0, 1]))
                                for _ in range(alg.dim))
                    if any(vec):
                        gtab[key] = vec
                f_plain = table_to_multimap(alg, ftab, nf)
                g_plain = table_to_multimap(alg, gtab, ng)
                lhs = iso2_down(dgla.l2(iso2_up(f_plain), iso2_up(g_plain)))
                rhs = formula(alg, f_plain, g_plain)
                if multimap_to_table(alg, lhs) != multimap_to_table(alg, rhs):
                    bad.append(f"bracket mismatch at arities ({nf},{ng})")
                    break
    return bad
