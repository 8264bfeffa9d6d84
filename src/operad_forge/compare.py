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

from .algebras import DifAlgebraData
from .cochain import CochainComplexes, DaCochain
from .coeffs import Coefficient
from .hom_complex import MultiMap, iso1_up, iso2_down, iso2_up
from .linf import (
    ALG,
    DO,
    CdaElement,
    CdoDgla,
    algebra_maps,
    algebra_space,
    mc_from_algebra,
    multimap_to_table,
    remark_bracket,
    table_to_multimap,
    transported_do_bracket,
    twisted_l1,
)


def random_plain_map(rng, alg: DifAlgebraData, arity: int) -> MultiMap:
    """A plain map A^arity -> A whose coordinates are drawn from -1, 0, 1,
    one vector per basis tuple in lexicographic order."""
    return table_to_multimap(alg, {
        key: [rng.choice((-1, 0, 1)) for _ in range(alg.dim)]
        for key in itertools.product(range(alg.dim), repeat=arity)}, arity)


def da_cochain_to_cda(alg: DifAlgebraData, x: DaCochain) -> CdaElement:
    parts = {(x.level, ALG): iso1_up(table_to_multimap(alg, x.f, x.level))}
    if x.g:
        parts[(x.level - 1, DO)] = iso2_up(
            table_to_multimap(alg, x.g, x.level - 1))
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
            image = cx.da_diff(basis_cochain)    # negated on its plain rows
            rhs = da_cochain_to_cda(alg, DaCochain(n + 1, *(
                {key: {t: -c for t, c in row.items()}
                 for key, row in table.items()}
                for table in (image.f, image.g))))
            if lhs != rhs:
                bad.append(f"level {n}: twisted l1 != -dDA on a basis cochain")
    return bad


def do_twist_mismatches(alg: DifAlgebraData, max_level: int) -> list[str]:
    """(l_1^beta)^tau vs the operator differential at levels 1..max_level."""
    cx = CochainComplexes(alg)
    dgla = CdoDgla(alg)
    tau = iso2_up(algebra_maps(alg)[1])
    bad = []
    for n in range(1, max_level + 1):
        for key in itertools.product(range(alg.dim), repeat=n):
            for x in range(alg.dim):
                unit = {key: {x: 1}}
                g = iso2_up(table_to_multimap(alg, unit, n))
                lhs = multimap_to_table(iso2_down(dgla.twisted_l1(tau, g)))
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
                f_plain = random_plain_map(rng, alg, nf)
                g_plain = random_plain_map(rng, alg, ng)
                lhs = iso2_down(dgla.l2(iso2_up(f_plain), iso2_up(g_plain)))
                rhs = formula(alg, f_plain, g_plain)
                if multimap_to_table(lhs) != multimap_to_table(rhs):
                    bad.append(f"bracket mismatch at arities ({nf},{ng})")
                    break
    return bad
