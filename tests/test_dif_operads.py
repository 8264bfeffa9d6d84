import itertools
from fractions import Fraction

import pytest

from operad_forge.coeffs import Coefficient, LAMBDA, sign_coeff
from operad_forge.dif_operads import (
    Difinfty,
    DifRewriter,
    alphabet,
    compositions,
    d_gen,
    enumerate_monomials,
    m_gen,
    parse_generator,
    project_p,
)
from operad_forge.formats import parse_tree
from operad_forge.free_operad import (
    OperadElement,
    TreeMonomial,
    partial_compose,
)
from oracles import _parents, is_normal_form, vertex_labels


def el(s):
    return OperadElement.single(TreeMonomial(parse_tree(s)))


@pytest.fixture(scope="module")
def op():
    return Difinfty()


@pytest.fixture(scope="module")
def rw():
    return DifRewriter()


def test_generator_degrees():
    assert (m_gen(2).degree, m_gen(5).degree) == (0, 3)
    assert (d_gen(1).degree, d_gen(4).degree) == (0, 3)
    with pytest.raises(ValueError):
        m_gen(1)
    with pytest.raises(ValueError):
        parse_generator("x3")


def test_diff_closed_generators(op):
    assert op.diff(m_gen(2)).is_zero()
    assert op.diff(d_gen(1)).is_zero()


def test_diff_m3_matches_displayed_formula(op):
    want = el("(m2 _ (m2 _ _))") - el("(m2 (m2 _ _) _)")
    assert op.diff(m_gen(3)) == want


def test_diff_d2_matches_displayed_formula(op):
    want = (el("(d1 (m2 _ _))") - el("(m2 (d1 _) _)") - el("(m2 _ (d1 _))")
            - el("(m2 (d1 _) (d1 _))").scale(LAMBDA))
    assert op.diff(d_gen(2)) == want


def test_diff_element_leibniz_with_closed_inner(op):
    x = partial_compose(OperadElement.generator(m_gen(3)), 1,
                        OperadElement.generator(m_gen(2)))
    want = partial_compose(op.diff(m_gen(3)), 1,
                           OperadElement.generator(m_gen(2)))
    assert op.diff_element(x) == want


def test_diff_squared_on_d3_element(op):
    assert op.diff_element(op.diff(d_gen(3))).is_zero()


@pytest.mark.parametrize("max_arity", [2, 3, 6])
def test_d_square_reports_empty(op, max_arity):
    assert op.check_d_square(max_arity) == []


def test_d_square_vanishes_on_composite_monomials(op):
    # the generator check plus the Leibniz rule imply this; testing the
    # composite path directly exercises the substitution signs
    for t in enumerate_monomials(4, 3, min_degree=1):
        x = OperadElement.single(t)
        assert op.diff_element(op.diff_element(x)).is_zero(), repr(t)


def test_d_square_at_specialized_weight():
    for lam in (Coefficient.rational(0), Coefficient.rational(1),
                Coefficient.rational(-2)):
        assert Difinfty(lam).check_d_square(4) == []


def test_normalize_associativity(rw):
    got = rw.normalize(el("(m2 (m2 _ _) _)"))
    assert got == el("(m2 _ (m2 _ _))")


def test_normalize_confluence_spot_check(rw):
    # d1 o1 (m2 o1 m2): reduce the inner assoc redex first or the leibniz
    # redex first; both orders give one normal form
    x = el("(d1 (m2 (m2 _ _) _))")
    via_assoc = rw.normalize(el("(d1 (m2 _ (m2 _ _)))"))
    assert rw.normalize(x) == via_assoc


def test_normalize_irreducible(rw):
    x = el("(d1 (d1 _))")
    assert rw.normalize(x) == x


def test_normalize_rejects_positive_degree(rw):
    with pytest.raises(ValueError):
        rw.normalize(el("(m3 _ _ _)"))


def test_project_p_identifies_associators(op, rw):
    a = project_p(el("(m2 (m2 _ _) _)"), rw)
    b = project_p(el("(m2 _ (m2 _ _))"), rw)
    assert a == b


def test_project_p_relation(op, rw):
    lhs = el("(d1 (m2 _ _))")
    rhs = (el("(m2 (d1 _) _)") + el("(m2 _ (d1 _))")
           + el("(m2 (d1 _) (d1 _))").scale(LAMBDA))
    assert (project_p(lhs, rw) - project_p(rhs, rw)).is_zero()
    # equivalently p(diff d2) = 0
    assert project_p(op.diff(d_gen(2)), rw).is_zero()


def test_p_kills_differentials_of_degree_one_monomials(op, rw):
    for t in enumerate_monomials(5, 4, min_degree=1, max_degree=1):
        img = op.diff_element(OperadElement.single(t))
        assert project_p(img, rw).is_zero(), repr(t)


def test_p_no_redex_example(rw):
    x = el("(d1 (d1 _))")
    assert project_p(x, rw) == x


def test_local_confluence_up_to_five_vertices(rw):
    deg0 = enumerate_monomials(8, 5, min_degree=0, max_degree=0,
                               gens=[m_gen(2), d_gen(1)])
    for t in deg0:
        redexes = rw.find_redexes(t)
        if len(redexes) < 2:
            continue
        normal_forms = set()
        for redex in redexes:
            nf = rw.normalize(rw.rewrite(t, redex))
            normal_forms.add(tuple(sorted((repr(k), str(c)) for k, c in nf)))
        assert len(normal_forms) == 1, repr(t)


def test_normalize_idempotent_and_terminal_up_to_six_vertices(rw):
    deg0 = enumerate_monomials(8, 6, min_degree=0, max_degree=0,
                               gens=[m_gen(2), d_gen(1)])
    assert len(deg0) > 2000
    for t in deg0:
        nf = rw.normalize_monomial(t.word)
        assert nf == rw.normalize(nf)
        for mono, _ in nf:
            assert is_normal_form(rw, mono)


def test_p_surjective_on_normal_form_basis(rw):
    # every irreducible degree-0 monomial with <= 6 vertices is its own
    # image under p
    deg0 = enumerate_monomials(8, 6, min_degree=0, max_degree=0,
                               gens=[m_gen(2), d_gen(1)])
    seen = 0
    for t in deg0:
        if is_normal_form(rw, t):
            seen += 1
            assert rw.normalize_monomial(t.word) == OperadElement.single(t)
    assert seen > 100


def test_rewrite_step_bound(monkeypatch):
    rw = DifRewriter(max_steps=1)
    from operad_forge.dif_operads import RewriteLimitError

    x = el("(d1 (m2 (m2 _ _) _))")
    with pytest.raises(RewriteLimitError):
        rw.normalize(x)


def test_enumerate_monomials_counts():
    # weight-1 positive-degree monomials with arity <= 5, degree <= 3
    singles = enumerate_monomials(5, 1, min_degree=1, max_degree=3)
    assert sorted(t.gens[0].symbol for t in singles) == \
        ["d2", "d3", "d4", "m3", "m4", "m5"]
    # no duplicates at a larger size
    all_w3 = enumerate_monomials(4, 3)
    assert len({t.node for t in all_w3}) == len(all_w3)


def _redexes_by_definition(node):
    """(root, child, kind) of every redex of the nested tree, and the
    leftmost of those with no other redex root below them."""
    parents = _parents(node)
    labels = vertex_labels(node)
    first_child = {}
    counter = 0

    def walk(n):
        nonlocal counter
        me = counter
        counter += 1
        for i, c in enumerate(n[1]):
            if c is not None:
                if i == 0:
                    first_child[me] = counter
                walk(c)

    walk(node)
    kinds = {"m2": "assoc", "d1": "leibniz"}
    redexes = [(v, w, kinds[labels[v].symbol])
               for v, w in sorted(first_child.items())
               if labels[w].symbol == "m2" and labels[v].symbol in kinds]

    def below(u, v):
        while u is not None and u != v:
            u = parents[u]
        return u == v

    inner = [r for r in redexes
             if not any(o[0] != r[0] and below(o[0], r[0]) for o in redexes)]
    return redexes, (inner[0] if inner else None)


def test_redexes_match_definition(rw):
    for t in enumerate_monomials(6, 5, min_degree=0, max_degree=0,
                                 gens=[m_gen(2), d_gen(1)]):
        redexes, picked = _redexes_by_definition(t.node)
        assert rw.find_redexes(t) == redexes
        assert rw._pick_redex(t.word) == picked


def _diff_by_partial_compose(op, gen):
    """The generator differential built as before the word kernel: every
    composite a chain of `partial_compose` on one-term elements."""
    kind, n = gen.symbol[0], gen.arity
    g = OperadElement.generator
    terms = []
    outer_of = m_gen if kind == "m" else d_gen
    for j in range(2, n if kind == "m" else n + 1):
        for i in range(1, n - j + 2):
            exp = i + j * (n - i) + (kind == "d")
            terms.append((sign_coeff(exp), partial_compose(
                g(outer_of(n - j + 1)), i, g(m_gen(j)))))
    if kind == "d":
        for p in range(2, n + 1):
            for q in range(1, p + 1):
                if n - p + q < q:
                    continue
                for ks in itertools.combinations(range(1, p + 1), q):
                    for ls in compositions(n - p + q, q):
                        xi = sum((ls[s] - 1) * (p - ks[s]) for s in range(q))
                        term, shift = g(m_gen(p)), 0
                        for k, a in zip(ks, ls):
                            term = partial_compose(term, k + shift, g(d_gen(a)))
                            shift += a - 1
                        lam_pow = Coefficient.one()
                        for _ in range(q - 1):
                            lam_pow = lam_pow * op.lam
                        terms.append((lam_pow * sign_coeff(xi + 1), term))
    return OperadElement.sum(terms)


@pytest.mark.parametrize("lam", [LAMBDA, Coefficient.rational(Fraction(1, 2))],
                         ids=["generic", "half"])
def test_diff_equals_partial_compose_construction(lam):
    op = Difinfty(lam)
    for gen in alphabet(8):
        assert op.diff(gen) == _diff_by_partial_compose(op, gen), gen.symbol
