import pytest

from operad_forge.coeffs import Coefficient, LAMBDA
from operad_forge.dif_operads import Difinfty, d_gen, m_gen
from operad_forge.koszul_dual import (
    CoopGenerator,
    TypeI,
    TypeII,
    cobar_differential,
    cross_check_cobar,
    delta,
    delta_table,
    sdif_cobar_d_square,
    shapes_for_arity,
)

ONE = Coefficient.one()


def test_generator_degrees():
    assert CoopGenerator("mt", 4).degree == 0
    assert CoopGenerator("dt", 4).degree == 1
    assert CoopGenerator("sm", 4).degree == 3
    assert CoopGenerator("sd", 4).degree == 4


def test_shape_validation():
    with pytest.raises(ValueError):
        TypeI(3, 4, 1)
    with pytest.raises(ValueError):
        TypeII(2, (1,), (2,))       # q = 1 is not a type II shape
    with pytest.raises(ValueError):
        TypeII(2, (2, 1), (1, 1))   # slots must increase


def test_delta_mt3_example():
    rows = delta(CoopGenerator("mt", 3), TypeI(3, 2, 1))
    assert rows == [(ONE, (CoopGenerator("mt", 2), CoopGenerator("mt", 2)))]


def test_delta_dt1_example():
    rows = delta(CoopGenerator("dt", 1), TypeI(1, 1, 1))
    assert rows == [
        (ONE, (CoopGenerator("dt", 1), CoopGenerator("mt", 1))),
        (ONE, (CoopGenerator("mt", 1), CoopGenerator("dt", 1))),
    ]


def test_delta_sd2_alpha_sign_example():
    rows = delta(CoopGenerator("sd", 2), TypeII(2, (1, 2), (1, 1)))
    assert rows == [(-LAMBDA,
                     (CoopGenerator("sm", 2), CoopGenerator("sd", 1),
                      CoopGenerator("sd", 1)))]


def test_delta_sm_type_i_sign():
    for n in range(1, 6):
        for j in range(1, n + 1):
            for i in range(1, n - j + 2):
                rows = delta(CoopGenerator("sm", n), TypeI(n, j, i))
                coeff, decs = rows[0]
                want = -1 if ((j - 1) * (n - i - j + 1)) % 2 else 1
                assert coeff == Coefficient.rational(want)
                assert decs == (CoopGenerator("sm", n - j + 1),
                                CoopGenerator("sm", j))


def test_counit_decomposes_only_on_the_two_vertex_tree():
    mt1 = CoopGenerator("mt", 1)
    rows = delta_table(mt1)
    assert rows == [(TypeI(1, 1, 1), ONE, (mt1, mt1))]


def test_delta_degree_is_weight_minus_two():
    for kind in ("mt", "dt", "sm", "sd"):
        for n in range(1, 6):
            c = CoopGenerator(kind, n)
            for shape, coeff, decs in delta_table(c):
                tensor_degree = sum(x.degree for x in decs)
                assert tensor_degree - c.degree == shape.weight - 2


def test_cobar_of_mt2_vanishes():
    assert cobar_differential(CoopGenerator("mt", 2)).is_zero()


def test_cobar_of_mt_n_is_sum_of_braces():
    # cobar(mt_n) = - sum_{j=2}^{n-1} mu_{n-j+1}{mu_j}
    from operad_forge.free_operad import OperadElement, brace
    from operad_forge.koszul_dual import mu_gen

    for n in (3, 4, 5):
        want = OperadElement.zero()
        for j in range(2, n):
            want = want - brace(OperadElement.generator(mu_gen(n - j + 1)),
                                [OperadElement.generator(mu_gen(j))])
        assert cobar_differential(CoopGenerator("mt", n)) == want


def test_cobar_counit_rejected():
    with pytest.raises(ValueError):
        cobar_differential(CoopGenerator("mt", 1))
    with pytest.raises(ValueError):
        cobar_differential(CoopGenerator("sm", 1))


def test_cobar_matches_difinfty_small():
    op = Difinfty()
    assert cobar_differential(CoopGenerator("sd", 2)) == op.diff(d_gen(2))
    assert cobar_differential(CoopGenerator("sm", 3)) == op.diff(m_gen(3))


def test_cross_check_to_arity_six():
    assert cross_check_cobar(6) == []


def test_cross_check_specialized_weight():
    assert cross_check_cobar(5, Coefficient.rational(7)) == []


def test_sdif_cobar_squares_to_zero():
    assert sdif_cobar_d_square(5) == []


def test_shapes_for_arity_counts():
    shapes = list(shapes_for_arity(3))
    type_i = [s for s in shapes if isinstance(s, TypeI)]
    type_ii = [s for s in shapes if isinstance(s, TypeII)]
    # j=1: i in 1..3; j=2: i in 1..2; j=3: i = 1
    assert len(type_i) == 6
    # p=2,q=2: ls sum to 3: (1,2),(2,1); p=3,q=2: ks 3 choices, ls=(1,1);
    # p=3,q=3: ls=(1,1,1)
    assert len(type_ii) == 2 + 3 + 1


def test_shape_monomial_words_match_nested_grafting():
    # the old definition: graft the upper corollas into the root one by one
    from operad_forge.free_operad import TreeMonomial
    from operad_forge.koszul_dual import mu_gen, nu_gen
    from operad_forge.trees import two_level_word
    from oracles import corolla, graft

    def grafted(shape, gens):
        if isinstance(shape, TypeI):
            return graft(corolla(gens[0]), shape.i, corolla(gens[1]))
        node, shift = corolla(gens[0]), 0
        for t, (k, l) in enumerate(zip(shape.ks, shape.ls)):
            node = graft(node, k + shift, corolla(gens[1 + t]))
            shift += l - 1
        return node

    checked = 0
    for n in range(1, 6):
        for shape in shapes_for_arity(n):
            if isinstance(shape, TypeI):
                arities = [n - shape.j + 1, shape.j]
            else:
                arities = [shape.p, *shape.ls]
            for m_of, d_of in ((m_gen, d_gen), (mu_gen, nu_gen)):
                # mix the two kinds of vertex, so degrees 0 and 1 both occur
                gens = [m_of(a) if a >= 2 and (t + n) % 2 else d_of(a)
                        for t, a in enumerate(arities)]
                ks = (shape.i,) if isinstance(shape, TypeI) else shape.ks
                got = two_level_word(gens[0], zip(ks, gens[1:]))
                assert got == TreeMonomial(grafted(shape, gens)).word
                checked += 1
    assert checked > 100
