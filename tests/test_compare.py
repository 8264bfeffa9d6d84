import itertools
from fractions import Fraction

import pytest

from operad_forge import compare, hda
from operad_forge.algebras import DifAlgebraData
from operad_forge.cochain import CochainComplexes, DaCochain, echelon
from operad_forge.coeffs import Coefficient
from operad_forge.compare import (
    da_twist_mismatches,
    do_bracket_mismatches,
    do_twist_mismatches,
    multimap_to_table,
    random_plain_map,
    table_to_multimap,
)
from operad_forge.hom_complex import GradedSpace, MultiMap, iso2_down, iso2_up
from operad_forge.linf import (
    CdaElement,
    CdoDgla,
    algebra_maps,
    transported_do_bracket,
)
from test_cochain import (
    DUAL_NUMBERS,
    GAUGE_DUAL_NUMBERS,
    ORACLE_CASES,
    TABLE_ALGEBRAS,
)

IDEMPOTENT = DifAlgebraData.build([[[1]]], [[-1]], 1)
TWO_DIM = DifAlgebraData.build(
    [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [[-1, 0], [0, -1]], 1)
HALF_WEIGHT = DifAlgebraData.build([[[1]]], [[-2]], "1/2")

ALGEBRAS = [IDEMPOTENT, TWO_DIM, HALF_WEIGHT]
# the unital dual numbers, in a basis where d is diagonal and in one where
# it is not
DUAL = [DUAL_NUMBERS, GAUGE_DUAL_NUMBERS]


@pytest.mark.parametrize("alg", ALGEBRAS)
def test_twisted_l1_is_minus_total_differential(alg):
    assert da_twist_mismatches(alg, 4) == []


def test_twisted_l1_is_minus_total_differential_at_level_five():
    # the benchmark's dim-2 idempotent algebra (d = -id, L = 1); twisting
    # feeds item (iii) up to seven copies of tau at this level
    assert da_twist_mismatches(TWO_DIM, 5) == []


@pytest.mark.parametrize("alg", DUAL)
def test_twisted_l1_of_dual_numbers_at_level_five(alg):
    assert da_twist_mismatches(alg, 5) == []


@pytest.mark.parametrize("alg", ALGEBRAS + DUAL)
def test_operator_twist_is_operator_differential(alg):
    assert do_twist_mismatches(alg, 4) == []


@pytest.mark.parametrize("alg", ALGEBRAS + DUAL)
def test_transported_bracket_matches_everywhere(alg):
    assert do_bracket_mismatches(alg, 3, corrected=True) == []


@pytest.mark.xfail(
    strict=True,
    reason="the displayed operator-cochain bracket drops the Koszul sign of "
           "evaluating the suspended tensor map, so it disagrees with the "
           "twisted width-2 bracket when the arities have opposite parity; "
           "the corrected form (tested above) holds everywhere")
def test_remark_bracket_verbatim_at_mixed_parity():
    assert do_bracket_mismatches(IDEMPOTENT, 2, corrected=False) == []


def test_remark_bracket_on_equal_parity_arities():
    # restricted to n = k mod 2 the displayed formula is the transported one
    import random

    from operad_forge.linf import remark_bracket

    rng = random.Random(2)
    for alg in (IDEMPOTENT, TWO_DIM):
        dgla = CdoDgla(alg)
        for n, k in ((1, 1), (2, 2), (1, 3), (3, 1), (3, 3)):
            for _ in range(3):
                f = random_plain_map(rng, alg, n)
                g = random_plain_map(rng, alg, k)
                lhs = iso2_down(dgla.l2(iso2_up(f), iso2_up(g)))
                rhs = remark_bracket(alg, f, g)
                assert multimap_to_table(lhs) == \
                    multimap_to_table(rhs)


def basis_operator_maps(alg, max_arity):
    """Every plain operator map A^n -> A with one entry 1 at (key, x), for
    n up to max_arity."""
    return [table_to_multimap(alg, {key: {x: 1}}, n)
            for n in range(1, max_arity + 1)
            for key in itertools.product(range(alg.dim), repeat=n)
            for x in range(alg.dim)]


@pytest.mark.parametrize("alg", [TWO_DIM, DUAL_NUMBERS])
def test_transported_bracket_on_every_pair_of_basis_maps(alg):
    # both sides are bilinear, so agreement on all 28 * 28 pairs of basis
    # maps of arity <= 3 proves it on every pair of such maps
    dgla = CdoDgla(alg)
    maps = basis_operator_maps(alg, 3)
    assert len(maps) == 28
    bad = []
    for f, g in itertools.product(maps, repeat=2):
        lhs = iso2_down(dgla.l2(iso2_up(f), iso2_up(g)))
        if (multimap_to_table(lhs)
                != multimap_to_table(transported_do_bracket(alg, f, g))):
            bad.append((f.table, g.table))
    assert bad == []


def displayed_bracket(alg, tf, tg, n, k, fg_sign, gf_sign):
    """fg_sign L f(a_1..a_n) g(a_{n+1}..) + gf_sign L g(a_1..a_k) f(a_{k+1}..)
    on every basis tuple, for plain tables tf, tg {key: vector}, multiplied
    by the algebra's own product on coordinate vectors."""
    zero = (0,) * alg.dim
    out = {}
    for key in itertools.product(range(alg.dim), repeat=n + k):
        fg = alg.product(tf.get(key[:n], zero), tg.get(key[n:], zero))
        gf = alg.product(tg.get(key[:k], zero), tf.get(key[k:], zero))
        row = {x: alg.lam * (fg_sign * a + gf_sign * b)
               for x, (a, b) in enumerate(zip(fg, gf))}
        row = {x: v for x, v in row.items() if v}
        if row:
            out[key] = row
    return out


@pytest.mark.parametrize("alg", [TWO_DIM] + DUAL)
def test_operator_bracket_formulas_pointwise(alg):
    # both displayed formulas, evaluated on every basis tuple with the
    # algebra's product, against the tables of remark_bracket and
    # transported_do_bracket
    import random

    from operad_forge.linf import remark_bracket

    rng = random.Random(25)

    def plain_table(n):
        return {key: tuple(rng.choice((-1, 0, 1)) for _ in range(alg.dim))
                for key in itertools.product(range(alg.dim), repeat=n)}

    for n, k in itertools.product(range(1, 4), repeat=2):
        for _ in range(2):
            tf, tg = plain_table(n), plain_table(k)
            f, g = table_to_multimap(alg, tf, n), table_to_multimap(alg, tg, k)
            assert multimap_to_table(remark_bracket(alg, f, g)) == \
                displayed_bracket(alg, tf, tg, n, k, (-1) ** n,
                                  (-1) ** (n * k + k + 1))
            assert multimap_to_table(
                transported_do_bracket(alg, f, g)) == \
                displayed_bracket(alg, tf, tg, n, k, (-1) ** (n * k), -1)


# -- the float guard ---------------------------------------------------------

def scalars(obj):
    """The scalars stored in ``obj``, through dicts, lists, tuples and the
    cochain and Q[L] types."""
    if isinstance(obj, Coefficient):
        obj = obj.coeffs
    elif isinstance(obj, MultiMap):
        obj = obj.table
    elif isinstance(obj, CdaElement):
        obj = obj.parts
    elif isinstance(obj, DaCochain):
        obj = (obj.f, obj.g or {})
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        yield obj
        return
    for x in obj:
        yield from scalars(x)


def assert_exact(obj):
    """Every scalar is an int (not a bool) or a Fraction: a float slipped
    into exact arithmetic can still give the right ranks and equalities,
    so no other test need see it."""
    for x in scalars(obj):
        assert type(x) in (int, Fraction), repr(x)


def assert_normal_tables(*tables):
    """Tables and weights hold an int wherever the value is integral."""
    for x in scalars(tables):
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1), \
            repr(x)


def checking(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that every value it returns is checked."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        assert_exact(out)
        return out

    monkeypatch.setattr(owner, name, wrapper)


def descent_structure(alg):
    """A in degrees 0 and 1, with m_1 = d_A from the degree-1 copy to the
    degree-0 one and d_1 = d_A on both copies."""
    n = alg.dim
    space = GradedSpace({0: n, 1: n})

    def rows(src, dst):
        return {(i + src,): {k + dst: Coefficient.rational(c)
                             for k, c in enumerate(alg.d[i]) if c}
                for i in range(n) if any(alg.d[i])}

    return hda.HdaStructure(
        space, Coefficient.rational(alg.lam), 2,
        {1: MultiMap(space, space, 1, -1, rows(n, 0))},
        {1: MultiMap(space, space, 1, 0, {**rows(0, 0), **rows(n, n)})})


GUARDED = {name: (alg, None) for name, alg in TABLE_ALGEBRAS.items()}
GUARDED.update(ORACLE_CASES)


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_no_float_enters_the_cochain_routes(name, monkeypatch):
    alg, bim = GUARDED[name]
    assert_normal_tables(alg.mult, alg.d, alg.lam)
    try:
        cx = CochainComplexes(alg, bim)
    except ValueError:
        assert name == "noncommutative invalid"
        return
    for b in (cx.bim, cx.vdash_bim):
        assert_normal_tables(b.left, b.right, b.d)
    checking(monkeypatch, CochainComplexes, "da_diff")
    checking(monkeypatch, CochainComplexes, "do_diff")
    columns = [cx.da_matrix(n) for n in range(4)]
    assert_exact(columns)
    for cols in columns:
        assert_exact(echelon(sorted(cols, key=len)))
    for m in algebra_maps(alg):
        assert_exact(multimap_to_table(m))
    checking(monkeypatch, hda, "echelon")
    assert hda.homology_descent(descent_structure(alg))["cycles_preserved"]
    if bim is not None:
        return
    for fn in ("da_cochain_to_cda", "twisted_l1", "iso2_down",
               "multimap_to_table", "transported_do_bracket"):
        checking(monkeypatch, compare, fn)
    assert da_twist_mismatches(alg, 2) == []
    assert do_twist_mismatches(alg, 2) == []
    assert do_bracket_mismatches(alg, 2, corrected=True, samples=2) == []
