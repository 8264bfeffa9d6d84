import random
from fractions import Fraction

import pytest

from operad_forge.coeffs import Coefficient, LAMBDA
from operad_forge.hda import (
    HdaStructure,
    _leibniz_rhs_terms,
    br_b_residual,
    br_r_residual,
    check_identities,
    dump_structure,
    embed_algebra,
    eta_sign_exponent,
    eta_sign_exponent_long,
    from_br,
    homology_descent,
    load_structure,
    mc_element,
    mc_equivalence_report,
    random_structure,
    stasheff_residual,
    to_br,
    weighted_leibniz_residual,
)
from operad_forge.hom_complex import GradedSpace, MultiMap

ONE = Coefficient.one()


def genuine_structure(lam=Fraction(1)):
    return embed_algebra([[[1]]], [[-1]], Coefficient.rational(lam))


def test_zero_structure_passes():
    s = HdaStructure(GradedSpace({0: 2}), LAMBDA, 4)
    assert check_identities(s) == []


def test_genuine_algebra_passes_all_arities():
    s = genuine_structure()
    assert check_identities(s) == []


def test_stasheff_reduces_to_associativity():
    s = embed_algebra([[[0, 1], [0, 0]], [[1, 0], [0, 1]]],
                      [[0, 0], [0, 0]], LAMBDA)
    assert not stasheff_residual(s, 3).is_zero()
    assert stasheff_residual(s, 1).is_zero()


def test_leibniz_n1_is_chain_map_condition():
    # d1 m1 - m1 d1 on a graded space
    v = GradedSpace({0: 1, 1: 1})
    m1 = MultiMap(v, v, 1, -1, {(1,): {0: ONE}})
    d1_bad = MultiMap(v, v, 1, 0, {(1,): {1: ONE}})   # not a chain map
    s = HdaStructure(v, LAMBDA, 2, {1: m1}, {1: d1_bad})
    assert not weighted_leibniz_residual(s, 1).is_zero()
    d1_good = MultiMap(v, v, 1, 0, {(0,): {0: ONE}, (1,): {1: ONE}})
    s2 = HdaStructure(v, LAMBDA, 2, {1: m1}, {1: d1_good})
    assert weighted_leibniz_residual(s2, 1).is_zero()


def test_leibniz_n2_matches_weight_rule_defect():
    # pure differential algebra data: residual = defect of the weight rule
    s = embed_algebra([[[1]]], [[1]], Coefficient.rational(1))
    r = weighted_leibniz_residual(s, 2)
    assert r.table == {(0, 0): {0: Coefficient.rational(-2)}}


def test_eta_expressions_agree_up_to_six():
    for n in range(1, 7):
        for q, p, ls, js in _leibniz_rhs_terms(n):
            short = eta_sign_exponent(ls, js)
            long = eta_sign_exponent_long(n, p, ls, js)
            assert (short - long) % 2 == 0


def test_degree_validation():
    v = GradedSpace({0: 1})
    with pytest.raises(ValueError):
        HdaStructure(v, LAMBDA, 2,
                     {2: MultiMap(v, v, 2, 0, {(0, 0): {0: ONE}}),
                      1: MultiMap(v, v, 2, 0, {(0, 0): {0: ONE}})})


def test_br_translation_roundtrip_and_degrees():
    rng = random.Random(1)
    s = random_structure(rng, {0: 1, 1: 1}, 3, LAMBDA)
    bs, rs = to_br(s)
    for mm in list(bs.values()) + list(rs.values()):
        assert mm.degree == -1
    back = from_br(s.space, s.lam, s.bound, bs, rs)
    assert back.m == s.m and back.d == s.d


def test_br_identities_iff_residuals():
    rng = random.Random(2)
    for trial in range(12):
        s = random_structure(rng, {0: 1}, 3, Coefficient.rational(1),
                             density=0.7)
        bs, rs = to_br(s)
        for n in range(1, s.bound + 1):
            assert br_b_residual(s.space, bs, n).is_zero() == \
                stasheff_residual(s, n).is_zero()
            assert br_r_residual(s.space, s.lam, bs, rs, n).is_zero() == \
                weighted_leibniz_residual(s, n).is_zero()
    # and on a genuine structure both vanish
    s = genuine_structure()
    bs, rs = to_br(s)
    for n in range(1, 5):
        assert br_b_residual(s.space, bs, n).is_zero()
        assert br_r_residual(s.space, s.lam, bs, rs, n).is_zero()


def test_mc_element_degree():
    s = genuine_structure()
    assert mc_element(s).degree() == -1


def test_mc_equivalence_on_genuine_and_random():
    s = genuine_structure()
    assert all(r["match"] for r in mc_equivalence_report(s))
    rng = random.Random(3)
    for _ in range(10):
        s = random_structure(rng, {0: 1}, 4, Coefficient.rational(1))
        assert all(r["match"] for r in mc_equivalence_report(s))


def test_perturbed_d2_shows_matching_nonzero_pattern():
    # a d2 perturbation on top of an associative product first bites in the
    # arity-3 identity, and the Maurer-Cartan component flags the same spot
    v2 = GradedSpace({0: 1, 1: 1})
    m2 = MultiMap(v2, v2, 2, 0, {(0, 0): {0: ONE}, (1, 0): {1: ONE}})
    d2 = MultiMap(v2, v2, 2, 1, {(0, 0): {1: ONE}})
    s2 = HdaStructure(v2, LAMBDA, 3, {2: m2}, {2: d2})
    rep = mc_equivalence_report(s2)
    assert all(r["match"] for r in rep)
    by_arity = {r["arity"]: r for r in rep}
    assert by_arity[1]["leibniz_zero"] and by_arity[2]["leibniz_zero"]
    assert not by_arity[3]["leibniz_zero"]
    assert not by_arity[3]["mc_do_zero"]


def test_structure_file_roundtrip():
    rng = random.Random(4)
    s = random_structure(rng, {0: 1, 1: 1}, 3, LAMBDA)
    text = dump_structure(s)
    back = load_structure(text)
    assert back.space == s.space and back.lam == s.lam
    assert back.m == s.m and back.d == s.d
    assert dump_structure(back) == text


def test_homology_descent_example():
    v = GradedSpace({0: 2, 1: 1})
    m1 = MultiMap(v, v, 1, -1, {(2,): {0: ONE}})
    d1 = MultiMap(v, v, 1, 0, {(0,): {0: ONE}, (1,): {1: ONE},
                               (2,): {2: ONE}})
    s = HdaStructure(v, Coefficient.rational(1), 3, {1: m1}, {1: d1})
    assert check_identities(s) == []
    out = homology_descent(s)
    assert out["cycles_preserved"] and out["boundaries_preserved"]
    assert out["homology_dim"] == 1


def test_echelon_nullity_and_rank_match_dense_oracle():
    from operad_forge.cochain import rank_dense_oracle
    from operad_forge.hda import _echelon

    rng = random.Random(61)
    for _ in range(60):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 6)
        dense = [[Fraction(rng.choice([0, 0, 0, 1, -1, 2, 3]),
                           rng.choice([1, 1, 2, 3]))
                  for _ in range(ncols)] for _ in range(nrows)]
        if nrows >= 2 and rng.random() < 0.4:
            # a dependent row, so that elimination must cancel to zero
            dense.append([a - 2 * b for a, b in zip(dense[0], dense[1])])
        rows = [{c: v for c, v in enumerate(r) if v} for r in dense]
        pivots, kernel = _echelon(rows, ncols)
        rank = rank_dense_oracle(dense)
        assert len(pivots) == rank
        assert len(kernel) == ncols - rank
        for vec in kernel:
            for r in rows:
                assert sum(v * vec.get(c, 0) for c, v in r.items()) == 0
        assert rank_dense_oracle([[vec.get(c, 0) for c in range(ncols)]
                                  for vec in kernel]) == len(kernel)


def test_homology_descent_matches_dense_oracle():
    # with A = m_1 and D = d_1 as matrices (columns = inputs): cycles are
    # preserved iff ker A lies in ker AD, i.e. rank [A; AD] = rank A;
    # boundaries iff im DA lies in im A, i.e. rank [A | DA] = rank A
    from operad_forge.cochain import rank_dense_oracle

    def matrix(mm, n):
        out = [[Fraction(0)] * n for _ in range(n)]
        for (i,), row in (mm.table.items() if mm else ()):
            for b, c in row.items():
                out[b][i] = c.constant_term()
        return out

    def mul(a, b):
        return [[sum(a[r][k] * b[k][c] for k in range(len(b)))
                 for c in range(len(b[0]))] for r in range(len(a))]

    rng = random.Random(62)
    seen = set()
    for _ in range(80):
        dims = rng.choice([{0: 2, 1: 1}, {0: 1, 1: 2}, {-1: 1, 0: 2, 1: 1}])
        s = random_structure(rng, dims, 1, Coefficient.rational(1),
                             density=0.5, values=(-1, 1, 2))
        n = s.space.dim()
        a, d = matrix(s.m_at(1), n), matrix(s.d_at(1), n)
        rank_a = rank_dense_oracle(a)
        ad, da = mul(a, d), mul(d, a)
        want = {
            "cycles_preserved": rank_dense_oracle(a + ad) == rank_a,
            "boundaries_preserved": rank_dense_oracle(
                [ra + rb for ra, rb in zip(a, da)]) == rank_a,
            "homology_dim": n - 2 * rank_a,
        }
        assert homology_descent(s) == want
        seen.add((want["cycles_preserved"], want["boundaries_preserved"]))
    assert len(seen) >= 3
