import itertools
import json
import random
from fractions import Fraction

import pytest

from operad_forge.algebras import (
    DifAlgebraData,
    DifBimoduleData,
    bimodule_defects,
    dump_algebra,
    load_algebra,
    load_bimodule,
    regular_bimodule,
)
from operad_forge.cochain import (
    CochainComplexes,
    DaCochain,
    echelon,
    rank_dense_oracle,
)
from cochain_oracle import GatherComplexes, SubsetComplexes, eval_table

IDEMPOTENT = DifAlgebraData.build([[[1]]], [[-1]], 1)
SQUARE_ZERO = DifAlgebraData.build([[[0]]], [[0]], 0)
TWO_DIM = DifAlgebraData.build(
    [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [[-1, 0], [0, -1]], 1)


def rand_table(rng, dim, arity, out_dim):
    out = {}
    for key in itertools.product(range(dim), repeat=arity):
        draws = [rng.randint(-2, 2) for _ in range(out_dim)]
        row = {t: Fraction(c) for t, c in enumerate(draws) if c}
        if row:
            out[key] = row
    return out


def test_hochschild_level_zero():
    cx = CochainComplexes(TWO_DIM)
    x = {(): {0: Fraction(1)}}
    out = cx.hochschild_diff(0, x)
    # d0(x)(a) = -a x + x a; for the commutative product this vanishes
    assert not out


def test_hochschild_level_one_formula():
    # a f(b) - f(ab) + f(a) b, checked against a brute instantiation
    cx = CochainComplexes(TWO_DIM)
    rng = random.Random(1)
    f = rand_table(rng, 2, 1, 2)
    out = cx.hochschild_diff(1, f)
    alg = TWO_DIM
    for i, j in itertools.product(range(2), repeat=2):
        a, b = alg.unit_vec(i), alg.unit_vec(j)
        want = alg.product(a, eval_table(f, [b], 2))
        want = tuple(
            w - m + r for w, m, r in zip(
                want,
                eval_table(f, [alg.product(a, b)], 2),
                alg.product(eval_table(f, [a], 2), b)))
        got = out.get((i, j), {})
        assert tuple(got.get(t, 0) for t in range(2)) == want


def test_hochschild_squares_to_zero():
    rng = random.Random(2)
    for alg in (IDEMPOTENT, TWO_DIM):
        cx = CochainComplexes(alg)
        for n in (0, 1, 2):
            for _ in range(4):
                f = rand_table(rng, alg.dim, n, alg.dim)
                assert not cx.hochschild_diff(n + 1, cx.hochschild_diff(n, f))


def test_vdash_actions():
    # d_A = 0 reduces the shifted actions to the plain ones
    alg = DifAlgebraData.build([[[1]]], [[0]], 5)
    cx = CochainComplexes(alg)
    assert cx.vdash_bim.left == cx.bim.left
    assert cx.vdash_bim.right == cx.bim.right
    # lambda = 0 likewise (square-zero product with the derivation d(x)=x)
    alg0 = DifAlgebraData.build([[[0]]], [[1]], 0)
    cx0 = CochainComplexes(alg0)
    assert cx0.vdash_bim.left == cx0.bim.left
    # the idempotent with d(e) = -e at weight 1: e |- x = (e + d e) x = 0
    cx1 = CochainComplexes(IDEMPOTENT)
    assert cx1.vdash_bim.left[0][0] == (Fraction(0),)


def test_do_diff_reduces_to_hochschild_when_d_vanishes():
    alg = DifAlgebraData.build([[[1]]], [[0]], 3)
    cx = CochainComplexes(alg)
    rng = random.Random(3)
    for n in (0, 1, 2):
        f = rand_table(rng, 1, n, 1)
        assert cx.do_diff(n, f) == cx.hochschild_diff(n, f)


def test_do_diff_squares_to_zero():
    rng = random.Random(4)
    cx = CochainComplexes(TWO_DIM)
    for n in (0, 1, 2):
        for _ in range(4):
            f = rand_table(rng, 2, n, 2)
            assert not cx.do_diff(n + 1, cx.do_diff(n, f))


def test_phi_level_zero_and_one():
    cx = CochainComplexes(IDEMPOTENT)
    x = {(): {0: Fraction(1)}}
    out = cx.phi(0, x)
    assert out == {(): {0: Fraction(1)}}      # -d_M(e) = e
    f = {(0,): {0: Fraction(1)}}
    out = cx.phi(1, f)
    # f(d a) - d f(a) = f(-e) - d(e) = -e + e = 0
    assert not out


def test_phi_vanishes_without_operator():
    alg = DifAlgebraData.build([[[1]]], [[0]], 2)
    cx = CochainComplexes(alg)
    rng = random.Random(5)
    for n in (0, 1, 2):
        f = rand_table(rng, 1, n, 1)
        assert not cx.phi(n, f)


def test_phi_is_chain_map():
    rng = random.Random(6)
    for alg in (IDEMPOTENT, TWO_DIM):
        cx = CochainComplexes(alg)
        for n in (0, 1, 2):
            for _ in range(4):
                f = rand_table(rng, alg.dim, n, alg.dim)
                lhs = cx.phi(n + 1, cx.hochschild_diff(n, f))
                rhs = cx.do_diff(n, cx.phi(n, f))
                assert lhs == rhs


def test_da_diff_squares_to_zero():
    rng = random.Random(7)
    for alg in (IDEMPOTENT, TWO_DIM):
        cx = CochainComplexes(alg)
        for level in (0, 1, 2, 3):
            for _ in range(3):
                f = rand_table(rng, alg.dim, level, alg.dim)
                g = None if level == 0 else rand_table(rng, alg.dim,
                                                       level - 1, alg.dim)
                x = DaCochain(level, f, g)
                dd = cx.da_diff(cx.da_diff(x))
                assert not dd.f and not (dd.g or {})


def test_level_zero_differential_pair():
    cx = CochainComplexes(IDEMPOTENT)
    x = DaCochain(0, {(): {0: Fraction(1)}}, None)
    out = cx.da_diff(x)
    assert out.level == 1
    assert not out.f                           # commutator of e vanishes
    assert out.g == {(): {0: Fraction(-1)}}    # -Phi^0(e) = d(e) = -e


def test_cohomology_square_zero():
    cx = CochainComplexes(SQUARE_ZERO)
    assert cx.cohomology_ranks(4) == [1, 2, 2, 2, 2]
    assert cx.cohomology_ranks(4, rank_fn=rank_dense_oracle) == \
        [1, 2, 2, 2, 2]


def test_cohomology_idempotent_lambda_zero():
    alg = DifAlgebraData.build([[[1]]], [[0]], 0)
    cx = CochainComplexes(alg)
    dims = cx.cohomology_ranks(2)
    assert dims == cx.cohomology_ranks(2, rank_fn=rank_dense_oracle)


def test_zero_bimodule():
    bim = DifBimoduleData.build([[] ], [], [], basis=())
    # dim-0 bimodule: all cochain spaces collapse
    cx = CochainComplexes(IDEMPOTENT, bim)
    assert cx.cohomology_ranks(3) == [0, 0, 0, 0]


def test_invalid_data_rejected():
    alg = DifAlgebraData.build(
        [[[0, 1], [0, 0]], [[1, 0], [0, 1]]], [[0, 0], [0, 0]], 1)
    with pytest.raises(ValueError):
        CochainComplexes(alg)


def rank_sparse(matrix) -> int:
    """Rank over Q by `echelon` on the nonzero entries of each row; each
    pivot row must read exactly 1 at its column (as `echelon` promises)
    and hold no float."""
    pivots = echelon({c: x for c, x in enumerate(row) if x}
                     for row in matrix)
    for pc, prow in pivots:
        assert prow[pc] == 1
        assert all(type(x) in (int, Fraction) for x in prow.values())
    return len(pivots)


def test_rank_routines_agree_on_random_matrices():
    rng = random.Random(8)
    matrices = []
    for _ in range(25):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        matrices.append([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(cols)] for _ in range(rows)])

    def entry():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 6),
                        rng.randint(1, 97))

    for density in (0.2, 0.6):
        for _ in range(40):
            nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
            m = [[entry() if rng.random() < density else Fraction(0)
                  for _ in range(ncols)] for _ in range(nrows)]
            # rational combinations of other rows, so that elimination
            # must cancel to exact zeros
            for _ in range(rng.randint(0, 12 - nrows)):
                parts = rng.sample(m, rng.randint(1, min(3, len(m))))
                coeffs = [entry() for _ in parts]
                m.append([sum(c * row[j] for c, row in zip(coeffs, parts))
                          for j in range(ncols)])
            rng.shuffle(m)
            matrices.append(m)
    # integer matrices, with pivots 1, -1 and others
    matrices += [[[1, -2, 3]], [[-1, 2, -3]], [[-1, 4], [3, -1]],
                 [[2, 4, -6]], [[3, 1], [6, 5]], [[0, -1, 2], [5, 0, 1]]]
    rng = random.Random(9)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        m = [[rng.choice([0, 0, 1, -1, 2, -3, 7]) for _ in range(ncols)]
             for _ in range(nrows)]
        for _ in range(rng.randint(0, 3)):   # integer combinations
            a, b = rng.choice(m), rng.choice(m)
            k = rng.choice([-2, -1, 1, 3])
            m.append([x + k * y for x, y in zip(a, b)])
        rng.shuffle(m)
        matrices.append(m)
    deficient = 0
    for m in matrices:
        transpose = [list(col) for col in zip(*m)]
        rank = rank_dense_oracle(m)
        assert rank_sparse(m) == rank_sparse(transpose) == rank
        deficient += rank < min(len(m), len(m[0]))
    assert deficient >= 20 + 14   # rational cases + integer ones
    # a pivot of -1 keeps an integer row integral; a pivot of 2 divides
    # it through a Fraction
    (_, unit), = echelon([{0: -1, 1: 2, 2: -3}])
    assert unit == {0: 1, 1: -2, 2: 3}
    assert all(type(x) is int for x in unit.values())
    (_, halved), = echelon([{1: 2, 2: 3}])
    assert halved == {1: 1, 2: Fraction(3, 2)}
    assert all(type(x) is Fraction for x in halved.values())


def test_algebra_json_roundtrip():
    text = dump_algebra(TWO_DIM)
    assert load_algebra(text) == TWO_DIM


@pytest.mark.parametrize("bad", ["0.5", "1.0", "null", "true", '"1/0"',
                                 '"x"'])
@pytest.mark.parametrize("field", ["mult", "d", "lambda"])
def test_algebra_files_with_inexact_scalars_are_refused(field, bad):
    # a float would load as its binary value, 0.1 as 3602879701896397/2^55
    obj = json.loads(dump_algebra(TWO_DIM))
    if field == "mult":
        obj["mult"][1][0] = ["0", "@"]
    elif field == "d":
        obj["d"][0] = ["@", "0"]
    else:
        obj["lambda"] = "@"
    with pytest.raises(ValueError):
        load_algebra(json.dumps(obj).replace('"@"', bad))


@pytest.mark.parametrize("bad", ["0.5", "1.0", "null", "true"])
@pytest.mark.parametrize("field", ["left", "right", "d"])
def test_bimodule_files_with_inexact_scalars_are_refused(field, bad):
    alg = json.loads(dump_algebra(TWO_DIM))
    bim = {"dim": 2, "basis": alg["basis"], "left": alg["mult"],
           "right": alg["mult"], "d": alg["d"]}
    assert load_bimodule(json.dumps(bim)) == regular_bimodule(TWO_DIM)
    if field == "d":
        bim["d"] = [["@", "0"], alg["d"][1]]
    else:
        bim[field] = [alg["mult"][0], [["0", "@"], alg["mult"][1][1]]]
    with pytest.raises(ValueError):
        load_bimodule(json.dumps(bim).replace('"@"', bad))


def test_bimodule_axiom_checker_flags_bad_data():
    alg = IDEMPOTENT
    bim = DifBimoduleData.build([[[Fraction(1)]]], [[[Fraction(1)]]],
                                [[Fraction(0)]])
    assert bimodule_defects(alg, bim)


# -- push form against the gather-form oracle ------------------------------

# Unital, with d(x) = x at weight 1: the dual numbers k[x]/(x^2).
DUAL_NUMBERS = DifAlgebraData.build(
    [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [[0, 0], [0, 1]], 1)
# The dual numbers in the basis (1 + x, 2x), the change of basis
# P = [[1, 1], [0, 2]]: d(e_0) = e_1 / 2 and d(e_1) = e_1, so d is not
# diagonal and e_1 has two d-preimages.
GAUGE_DUAL_NUMBERS = DifAlgebraData.build(
    [[[1, Fraction(1, 2)], [0, 1]], [[0, 1], [0, 0]]],
    [[0, Fraction(1, 2)], [0, 1]], 1)


def doubled_bimodule(alg):
    """A + A, with A acting on each copy as on the regular bimodule."""
    n, m = alg.dim, 2 * alg.dim

    def block(vec, copy):
        out = [Fraction(0)] * m
        out[copy * n:(copy + 1) * n] = vec
        return out

    left = [[block(alg.mult[i][x % n], x // n) for x in range(m)]
            for i in range(n)]
    right = [[block(alg.mult[x % n][i], x // n) for i in range(n)]
             for x in range(m)]
    d = [block(alg.d[x % n], x // n) for x in range(m)]
    return DifBimoduleData.build(left, right, d)


ORACLE_CASES = {
    "idempotent": (IDEMPOTENT, None),
    "square zero": (SQUARE_ZERO, None),
    "two dim": (TWO_DIM, None),
    "two dim, L = 1/2, d = -2 id": (DifAlgebraData.build(
        [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [[-2, 0], [0, -2]],
        Fraction(1, 2)), None),
    "two dim, d = 0, L = 3": (DifAlgebraData.build(
        [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [[0, 0], [0, 0]], 3), None),
    "two dim in A + A": (TWO_DIM, doubled_bimodule(TWO_DIM)),
    "dual numbers": (DUAL_NUMBERS, None),
    "dual numbers, gauge P = [[1, 1], [0, 2]]": (GAUGE_DUAL_NUMBERS, None),
    # weight 0 with d(x) = x: Phi is the one-position sum
    "dual numbers, L = 0": (DifAlgebraData.build(
        DUAL_NUMBERS.mult, DUAL_NUMBERS.d, 0), None),
}


def oracle_pair(name):
    alg, bim = ORACLE_CASES[name]
    return CochainComplexes(alg, bim), GatherComplexes(alg, bim)


def rational_table(rng, dim, arity, out_dim, density):
    """Keys drawn with the given density; entries are small rationals, and
    the empty row of an all-zero draw is kept."""
    out = {}
    for key in itertools.product(range(dim), repeat=arity):
        if rng.random() < density:
            draws = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                     for _ in range(out_dim)]
            out[key] = {t: c for t, c in enumerate(draws) if c}
    return out


def test_doubled_bimodule_is_a_differential_bimodule():
    bim = ORACLE_CASES["two dim in A + A"][1]
    assert bim.dim == 4
    assert not bimodule_defects(TWO_DIM, bim)
    assert bim.left != CochainComplexes(TWO_DIM).bim.left


@pytest.mark.parametrize("density", [0.2, 0.6, 1.0])
@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_push_form_equals_gather_form(name, density):
    push, gather = oracle_pair(name)
    dim_a, dim_m = push.alg.dim, push.bim.dim
    rng = random.Random(f"{name}/{density}")
    for n in range(4):
        for _ in range(3):
            f = rational_table(rng, dim_a, n, dim_m, density)
            assert push.hochschild_diff(n, f) == gather.hochschild_diff(n, f)
            assert push.do_diff(n, f) == gather.do_diff(n, f)
            assert push.phi(n, f) == gather.phi(n, f)
            g = None if n == 0 else rational_table(rng, dim_a, n - 1, dim_m,
                                                   density)
            x = DaCochain(n, f, g)
            assert push.da_diff(x) == gather.da_diff(x)


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_push_form_equals_gather_form_on_cancelling_inputs(name):
    """Coboundaries and sums with their negatives: the push form's sparse
    rows must cancel to exactly what the gather form finds."""
    push, gather = oracle_pair(name)
    dim_a, dim_m = push.alg.dim, push.bim.dim
    rng = random.Random(name)
    for n in range(1, 4):
        h = rational_table(rng, dim_a, n - 1, dim_m, 1.0)
        b, c = gather.hochschild_diff(n - 1, h), gather.do_diff(n - 1, h)
        assert not push.hochschild_diff(n, b)
        assert not push.do_diff(n, c)
        for f in (b, c):
            assert push.hochschild_diff(n, f) == gather.hochschild_diff(n, f)
            assert push.do_diff(n, f) == gather.do_diff(n, f)
            assert push.phi(n, f) == gather.phi(n, f)
        # Phi is a chain map: Phi(d f) = d_DO(Phi(f))
        assert push.phi(n, b) == push.do_diff(n - 1, push.phi(n - 1, h))
        # D(D(x)) cancels everywhere
        x = gather.da_diff(DaCochain(n - 1, h, None if n == 1 else
                                     rational_table(rng, dim_a, n - 2,
                                                    dim_m, 1.0)))
        assert push.da_diff(x) == gather.da_diff(x)
        assert push.da_diff(x).is_zero()


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_da_matrix_equals_gather_form(name):
    push, gather = oracle_pair(name)
    top = 4 if name in ("two dim", "dual numbers") else 3
    for n in range(top + 1):
        assert push.da_matrix(n) == gather.da_matrix(n)


@pytest.mark.parametrize("name", ["two dim", "dual numbers",
                                  "dual numbers, gauge P = [[1, 1], [0, 2]]",
                                  "dual numbers, L = 0"])
def test_sigma_form_equals_subset_and_gather_forms(name):
    """Phi through sigma = id + L d (or at L = 0 through d at one
    position) against the subset form and the gather form, on seeded
    tables at levels <= 5, and on the whole total differential: at levels
    <= 5 against the subset form and <= 4 against the gather form, whose
    level-5 matrix alone takes about 4 s."""
    alg, bim = ORACLE_CASES[name]
    push = CochainComplexes(alg, bim)
    subset, gather = SubsetComplexes(alg, bim), GatherComplexes(alg, bim)
    rng = random.Random(name)
    for n in range(6):
        f = rational_table(rng, alg.dim, n, alg.dim, 0.5)
        g = None if n == 0 else rational_table(rng, alg.dim, n - 1, alg.dim,
                                               0.5)
        x = DaCochain(n, f, g)
        for oracle in (subset, gather):
            assert push.phi(n, f) == oracle.phi(n, f)
            assert push.da_diff(x) == oracle.da_diff(x)
        matrix = push.da_matrix(n)
        assert matrix == subset.da_matrix(n)
        if n <= 4:
            assert matrix == gather.da_matrix(n)


def rescale(alg, c):
    """(A, d, L) -> (A, c d, L / c): d' has weight L' and sigma = id + L' d'
    is unchanged, so (f, g) -> (f, c g) maps the total complex of alg onto
    that of the result."""
    return DifAlgebraData.build(alg.mult, [[c * x for x in row]
                                           for row in alg.d],
                                Fraction(alg.lam) / c)


@pytest.mark.parametrize("c", [2, -1, Fraction(1, 3)], ids=str)
@pytest.mark.parametrize("alg", [TWO_DIM, DUAL_NUMBERS, GAUGE_DUAL_NUMBERS],
                         ids=["two dim", "dual numbers",
                              "gauge dual numbers"])
def test_rescaling_keeps_the_cohomology(alg, c):
    cx, scaled = CochainComplexes(alg), CochainComplexes(rescale(alg, c))
    assert scaled.alg.lam == Fraction(alg.lam) / c
    assert scaled.cohomology_ranks(5) == cx.cohomology_ranks(5)
    for n in range(4):
        for b in cx._da_basis(n):
            image = cx.da_diff(b)
            scaled_g = None if b.g is None else {
                key: {t: c * y for t, y in row.items()}
                for key, row in b.g.items()}
            assert scaled.da_diff(DaCochain(n, b.f, scaled_g)) == DaCochain(
                n + 1, image.f, {key: {t: c * y for t, y in row.items()}
                                 for key, row in image.g.items()})


def _composes_to_zero(outer, inner) -> bool:
    """outer . inner == 0 exactly, for matrices given as sparse columns:
    each inner column, pushed through the outer columns, cancels."""
    for col in inner:
        image = {}
        for k, c in col.items():
            for i, y in outer[k].items():
                image[i] = image.get(i, 0) + c * y
        if any(image.values()):
            return False
    return True


@pytest.mark.parametrize("alg, dims, oracle_top", [
    (TWO_DIM, [0] * 7, 6),
    (SQUARE_ZERO, [1, 2, 2, 2, 2, 2], 5),
    (DUAL_NUMBERS, [1, 2, 1, 0, 0, 0, 0], 6),
    (GAUGE_DUAL_NUMBERS, [1, 2, 1, 0, 0, 0], 5),
    (TWO_DIM, [0] * 9, 5),
    (DUAL_NUMBERS, [1, 2, 1] + [0] * 6, 5),
    (GAUGE_DUAL_NUMBERS, [1, 2, 1] + [0] * 5, 5),
], ids=["two dim", "square zero", "dual numbers", "gauge dual numbers",
        "two dim to 8", "dual numbers to 8", "gauge dual numbers to 7"])
def test_frontier_level_five_and_d_squared(alg, dims, oracle_top):
    """Pinned dims to level 5 and beyond (8, or 7 for the gauge dual
    numbers, whose ranks cost most), the same dims from the dense oracle's
    ranks up to level oracle_top, and D_(n+1) D_n = 0 at every level."""
    cx = CochainComplexes(alg)
    top = len(dims) - 1
    columns = [cx.da_matrix(n) for n in range(top + 1)]
    assert cx.cohomology_dims(columns) == dims
    assert cx.dims_from_ranks([
        cx.level_rank(n, columns[n], rank_dense_oracle)
        for n in range(oracle_top + 1)]) == dims[:oracle_top + 1]
    for n in range(top):
        assert len(columns[n + 1]) == cx.da_dim(n + 1)
        assert all(i < cx.da_dim(n + 1) for col in columns[n] for i in col)
        assert _composes_to_zero(columns[n + 1], columns[n])


# -- the table actions and the shapes of the input tables -------------------

TABLE_ALGEBRAS = {name: alg for name, (alg, _) in ORACLE_CASES.items()}
TABLE_ALGEBRAS.update({
    f"one dim, d = 0, L = {lam}": DifAlgebraData.build([[[1]]], [[0]], lam)
    for lam in (0, 2, 3, 5)})
TABLE_ALGEBRAS["one dim, product 0, d = id"] = DifAlgebraData.build(
    [[[0]]], [[1]], 0)
# not associative, and e_0 e_1 != e_1 e_0
TABLE_ALGEBRAS["noncommutative invalid"] = DifAlgebraData.build(
    [[[0, 1], [0, 0]], [[1, 0], [0, 1]]], [[0, 0], [0, 0]], 1)


@pytest.mark.parametrize("name", sorted(TABLE_ALGEBRAS))
def test_regular_bimodule_acts_by_the_product(name):
    alg = TABLE_ALGEBRAS[name]
    bim = regular_bimodule(alg)
    r = range(alg.dim)
    rng = random.Random(name)
    vectors = [alg.unit_vec(i) for i in r] + [
        tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in r)
        for _ in range(4)]
    for u in vectors:
        assert bim.apply_d(u) == alg.apply_d(u) == tuple(
            sum(u[i] * alg.d[i][k] for i in r) for k in r)
        for v in vectors:
            want = alg.product(u, v)
            assert want == tuple(sum(u[i] * v[j] * alg.mult[i][j][k]
                                     for i in r for j in r) for k in r)
            assert bim.act_left(u, v) == want
            assert bim.act_right(u, v) == want


@pytest.mark.parametrize("mult, d, basis", [
    ([[[1, 0], [0, 0]]], [[0, 0], [0, 0]], None),   # d longer than mult
    ([[[1, 0]], [[0, 0], [0, 1]]], [[0, 0], [0, 0]], None),
    ([[[1, 0], [0]], [[0, 0], [0, 1]]], [[0, 0], [0, 0]], None),
    ([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [[0, 0], [0]], None),
    ([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [[0, 0]], None),
    ([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [[0, 0], [0, 0]], ["e"]),
    ([[[1, 0], [0, 0]], [[0, 0], "01"]], [[0, 0], [0, 0]], None),
])
def test_algebra_tables_of_the_wrong_shape_are_refused(mult, d, basis):
    with pytest.raises(ValueError):
        DifAlgebraData.build(mult, d, 1, basis)


@pytest.mark.parametrize("left, right, d, basis", [
    ([[[1]], [[1]]], [[[1]]], [[0]], None),   # right row too short
    ([[[1]], [[1, 0]]], [[[1], [1]]], [[0]], None),   # left vector too long
    ([[[1]], [[1]]], [[[1], [1]], [[1], [1]]], [[0]], None),
    ([[[1]], [[1]]], [[[1], [1]]], [[0, 0]], None),
    ([[[1]], [[1]]], [[[1], [1]]], [[0]], ["x", "y"]),
])
def test_bimodule_tables_of_the_wrong_shape_are_refused(left, right, d,
                                                        basis):
    DifBimoduleData.build([[[1]], [[1]]], [[[1], [1]]], [[0]])   # well formed
    with pytest.raises(ValueError):
        DifBimoduleData.build(left, right, d, basis)


def test_declared_dims_must_match_the_tables():
    alg = json.loads(dump_algebra(TWO_DIM))
    bim = {"dim": 2, "basis": alg["basis"], "left": alg["mult"],
           "right": alg["mult"], "d": alg["d"]}
    assert load_algebra(alg) == TWO_DIM
    assert load_bimodule(bim) == regular_bimodule(TWO_DIM)
    for obj, load in ((alg, load_algebra), (bim, load_bimodule)):
        for dim in (1, 3, "2"):
            with pytest.raises(ValueError):
                load(dict(obj, dim=dim))


def test_bimodule_over_an_algebra_of_another_dimension_is_refused():
    bim = regular_bimodule(IDEMPOTENT)
    assert not bimodule_defects(IDEMPOTENT, bim)
    with pytest.raises(ValueError, match="dimension 1, not 2"):
        CochainComplexes(TWO_DIM, bim)
