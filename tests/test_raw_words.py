"""The word -> monomial boundary of the tree kernels.

The derivation checks sum raw cells {(word, power of L): rational} and
regroup them by word into an element only at the end
(`OperadElement.from_cells`).  On the working operad every residual is
zero, so here one raw generator image is corrupted and each check must
report exactly what the element route (`oracles.extend_derivation`) gives
for the same corrupted images.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from operad_forge import koszul_dual
from operad_forge.coeffs import Coefficient
from operad_forge.dif_operads import (Difinfty, alphabet, enumerate_monomials,
                                      m_gen)
from operad_forge.free_operad import OperadElement
from operad_forge.koszul_dual import (CoopGenerator, cobar_differential,
                                      cross_check_cobar, mu_gen, nu_gen,
                                      sdif_cobar_d_square)
from oracles import extend_derivation

MAX_ARITY = 5


def _flip_first_cell(cells: dict) -> tuple:
    """Negate the first cell of ``cells`` in place; returns (key, old value)."""
    key = next(iter(cells))
    old = cells[key]
    cells[key] = -old
    return key, old


def _corrupt_diff_d3(monkeypatch) -> list:
    """Make `Difinfty` build diff(d3) with its first raw cell negated;
    the list receives (key, old value) once it is built."""
    flipped = []
    build = Difinfty._diff_d

    def corrupted(self, n):
        cells = build(self, n)
        if n == 3:
            flipped.append(_flip_first_cell(cells))
        return cells

    monkeypatch.setattr(Difinfty, "_diff_d", corrupted)
    return flipped


def _residuals_by_oracle(images: dict) -> list:
    """(symbol, d(d(gen))) for each generator with a nonzero one, through
    the element route, in the order of ``images``."""
    out = []
    for gen, img in images.items():
        residual = extend_derivation(images, img)
        if not residual.is_zero():
            out.append((gen.symbol, residual))
    return out


def test_check_d_square_residual_is_the_oracle_one(monkeypatch):
    _corrupt_diff_d3(monkeypatch)
    op = Difinfty()
    got = op.check_d_square(MAX_ARITY)
    want = _residuals_by_oracle({g: op.diff(g) for g in alphabet(MAX_ARITY)})
    # d3 itself, and the generators whose images have a d3 vertex
    assert {"d3", "d4", "d5"} <= {symbol for symbol, _ in want}
    assert got == want


def test_sdif_cobar_d_square_residual_is_the_oracle_one(monkeypatch):
    build = koszul_dual.cobar_cells

    def corrupted(c, lam=koszul_dual.LAMBDA):
        cells = build(c, lam)
        if c == CoopGenerator("dt", 3):
            _flip_first_cell(cells)
        return cells

    monkeypatch.setattr(koszul_dual, "cobar_cells", corrupted)
    images = {}
    for n in range(1, MAX_ARITY + 1):
        if n >= 2:
            images[mu_gen(n)] = cobar_differential(CoopGenerator("mt", n))
        images[nu_gen(n)] = cobar_differential(CoopGenerator("dt", n))
    want = _residuals_by_oracle(images)
    assert "nu3" in {symbol for symbol, _ in want}
    assert sdif_cobar_d_square(MAX_ARITY) == want


def test_cross_check_names_the_corrupted_generator_exactly(monkeypatch):
    flipped = _corrupt_diff_d3(monkeypatch)
    got = cross_check_cobar(MAX_ARITY)
    (key, old), = flipped
    # the cobar side is intact: cobar - corrupted = old - (-old) at key
    assert got == [("d3", OperadElement.from_cells([(key, 2 * old)]))]


# -- from_cells inverts the boundary reader ---------------------------------

BLOCKS = {}
for _t in enumerate_monomials(4, 3):
    BLOCKS.setdefault((_t.arity, _t.degree), []).append(_t)
BLOCK_LIST = sorted(BLOCKS.values(), key=len)[-6:]

rationals = st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)))
coefficients = st.dictionaries(st.integers(0, 3), rationals, min_size=1,
                               max_size=3).map(Coefficient)


@st.composite
def elements(draw):
    block = draw(st.sampled_from(BLOCK_LIST))
    chosen = draw(st.lists(st.sampled_from(block), min_size=1, max_size=6,
                           unique_by=lambda t: t.word))
    return OperadElement({t: draw(coefficients) for t in chosen})


@settings(max_examples=60, derandomize=True, deadline=None)
@given(elements())
def test_from_cells_inverts_the_boundary_reader(x):
    cells = [((t.word, e), v) for t, c in x for e, v in c.items()]
    zeros = [((word, e + 9), 0) for (word, e), _ in cells]
    y = OperadElement.from_cells(cells + zeros)
    assert y == x == OperadElement(dict(y))
    assert (y.arity, y.degree) == (x.arity, x.degree)
    for t, _ in y:
        assert (t.arity, t.degree, t.weight) == next(
            (s.arity, s.degree, s.weight) for s, _ in x if s == t)


def test_from_cells_of_zero_cells_is_zero():
    word = OperadElement.generator(m_gen(2)).leading()[0].word
    assert OperadElement.from_cells([((word, 0), 0)]) == OperadElement()
