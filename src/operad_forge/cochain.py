"""Cochain complexes of a weighted differential algebra with coefficients
in a differential bimodule: the Hochschild complex of the underlying
algebra, the operator complex (Hochschild with the weight-shifted actions
a |- x = (a + L d(a)) x), the comparison map Phi between them, the total
complex, and exact cohomology ranks over Q by sparse exact elimination
(with an independent dense oracle).

A level-n cochain in the total complex is a pair (f, g): f is an n-linear
map A^n -> M, g an (n-1)-linear map (absent at level 0).  A table is a dict
of sparse rows, {basis tuple of A: {basis index of M: coefficient}}, with
no zeros stored.  A coefficient is an int or a Fraction, never a float:
the algebra's tables and weight hold ints wherever they are integral (see
`algebras`), so on an integral algebra the differentials and `echelon`
run in integer arithmetic until a pivot other than +-1 divides.

The differentials are evaluated entry by entry, in push form: each entry
(key, x, c) is sent, through the nonzero structure constants, to the output
keys its terms reach, and summed there into the output rows by
`coeffs.add_into`.  The cost is entries x terms, not output keys x table
entries.  The matrix of the total differential at level n is the list of
images of the basis cochains, each a sparse {coordinate: coefficient}
vector, and its rank is the rank of `echelon` on those images.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebras import (
    DifAlgebraData,
    DifBimoduleData,
    Vec,
    add_vec,
    associativity_defects,
    bimodule_defects,
    leibniz_defects,
    regular_bimodule,
    scale_vec,
)
from .coeffs import Rat, add_into

Table = dict[tuple, dict[int, Rat]]   # sparse rows, as above


def _nonzero(vec: Vec) -> tuple[tuple[int, Rat], ...]:
    """The (index, coefficient) pairs of the nonzero coordinates."""
    return tuple((i, c) for i, c in enumerate(vec) if c)


@dataclass
class DaCochain:
    level: int
    f: Table                 # arity = level
    g: Optional[Table]       # arity = level - 1; None at level 0

    def is_zero(self) -> bool:
        return not self.f and not self.g


class CochainComplexes:
    """All three differentials for a fixed algebra and bimodule.

    The algebra and bimodule axioms are validated eagerly; every theorem
    below presupposes them and silent bad data is the main failure mode.
    """

    def __init__(self, alg: DifAlgebraData, bim: Optional[DifBimoduleData] = None):
        self.alg = alg
        self.bim = bim if bim is not None else regular_bimodule(alg)
        if len(self.bim.left) != alg.dim:
            raise ValueError(f"the bimodule is over an algebra of dimension "
                             f"{len(self.bim.left)}, not {alg.dim}")
        problems = [f"algebra: {d}" for d in associativity_defects(alg)]
        problems += [f"algebra leibniz: {d}" for d in leibniz_defects(alg)]
        problems += bimodule_defects(alg, self.bim)
        if problems:
            raise ValueError("invalid input data:\n  " +
                             "\n  ".join(map(str, problems[:10])))
        self.vdash_bim = self._shifted_bimodule()
        # by the basis e_k they reach: e_p e_q = c e_k + ..., d(e_a) = c e_k
        r = range(alg.dim)
        self._mult_pre = [[(p, q, alg.mult[p][q][k]) for p in r for q in r
                           if alg.mult[p][q][k]] for k in r]
        self._d_pre = [[(a, alg.d[a][k]) for a in r if alg.d[a][k]]
                       for k in r]
        actions = []
        for bim in (self.bim, self.vdash_bim):
            left = [[(a, _nonzero(bim.left[a][x])) for a in r
                     if any(bim.left[a][x])] for x in range(bim.dim)]
            right = [[(a, _nonzero(row[a])) for a in r if any(row[a])]
                     for row in bim.right]
            actions.append((left, right))
        self._bim_actions, self._vdash_actions = actions

    def _shifted_bimodule(self) -> DifBimoduleData:
        """The actions a |- x = (a + L d_A(a)) x and x -| a."""
        alg, bim = self.alg, self.bim
        shifted = [add_vec(alg.unit_vec(i), scale_vec(alg.lam, alg.d[i]))
                   for i in range(alg.dim)]
        left = [[bim.act_left(shifted[i], bim.unit_vec(x))
                 for x in range(bim.dim)] for i in range(alg.dim)]
        right = [[bim.act_right(bim.unit_vec(x), shifted[i])
                  for i in range(alg.dim)] for x in range(bim.dim)]
        return DifBimoduleData.build(left, right, list(bim.d), basis=bim.basis)

    # -- the three differentials -------------------------------------------

    def _hochschild(self, rows: Table, n: int, f: Table, actions,
                    sign: int = 1) -> Table:
        """Add sign * d(f) into rows, for the level-n cochain f:

          d(f)(a_0..a_n) = (-1)^(n+1) a_0 f(a_1..a_n)
              + sum_i (-1)^(n+1-i) f(.. a_{i-1} a_i ..) + f(a_0..a_{n-1}) a_n.
        """
        left, right = actions   # per x_x: the (a, pairs) that act on it
        first = sign * (-1 if (n + 1) % 2 else 1)
        for key, row in f.items():
            entries = row.items()
            for x, c in entries:
                for a, pairs in left[x]:
                    add_into(rows, (a,) + key,
                             {t: first * c * y for t, y in pairs})
                for a, pairs in right[x]:
                    add_into(rows, key + (a,),
                             {t: sign * c * y for t, y in pairs})
            for i in range(1, n + 1):
                s_i = sign * (-1 if (n + 1 - i) % 2 else 1)
                for p, q, c in self._mult_pre[key[i - 1]]:
                    add_into(rows, key[:i - 1] + (p, q) + key[i:],
                             {t: s_i * c * y for t, y in entries})
        return rows

    def _phi(self, rows: Table, n: int, f: Table, sign: int = 1) -> Table:
        """Add sign * Phi(f) into rows (see `phi`); at L = 0 only the
        subsets of one position contribute."""
        for key, row in f.items():
            entries = row.items()
            for x, c in entries:
                add_into(rows, key, {t: -sign * c * y
                                     for t, y in _nonzero(self.bim.d[x])})
            for k in range(1, n + 1 if self.alg.lam else 2):
                for subset in itertools.combinations(range(n), k):
                    for choice in itertools.product(
                            *(self._d_pre[key[i]] for i in subset)):
                        out, s = list(key), sign * self.alg.lam ** (k - 1)
                        for i, (a, c) in zip(subset, choice):
                            out[i] = a
                            s *= c
                        add_into(rows, tuple(out),
                                 {t: s * y for t, y in entries})
        return rows

    def hochschild_diff(self, n: int, f: Table) -> Table:
        return self._hochschild({}, n, f, self._bim_actions)

    def do_diff(self, n: int, g: Table) -> Table:
        return self._hochschild({}, n, g, self._vdash_actions)

    def phi(self, n: int, f: Table) -> Table:
        """Phi(f)(a_1..a_n) = sum_k L^{k-1} sum_{i_1<..<i_k}
        f(.. d(a_{i_t}) ..) - d_M(f(a_1..a_n))."""
        return self._phi({}, n, f)

    def da_diff(self, x: DaCochain) -> DaCochain:
        """D(f, g) = (d f, -Phi(f) - d_DO(g))."""
        new_g = self._phi({}, x.level, x.f, -1)
        if x.g is not None:
            self._hochschild(new_g, x.level - 1, x.g, self._vdash_actions, -1)
        return DaCochain(x.level + 1, self.hochschild_diff(x.level, x.f),
                         new_g)

    # -- dimensions and ranks ------------------------------------------------

    def alg_dim(self, n: int) -> int:
        return self.bim.dim * self.alg.dim ** n

    def da_dim(self, n: int) -> int:
        if n == 0:
            return self.bim.dim
        return self.alg_dim(n) + self.bim.dim * self.alg.dim ** (n - 1)

    def _da_basis(self, n: int):
        """Basis cochains of the level-n total complex, in coordinate order:
        unit rows {key: {x: 1}}, f part first."""
        dim_a, dim_m = self.alg.dim, self.bim.dim
        out = []
        for key in itertools.product(range(dim_a), repeat=n):
            for x in range(dim_m):
                out.append(DaCochain(n, {key: {x: 1}}, {} if n else None))
        if n >= 1:
            for key in itertools.product(range(dim_a), repeat=n - 1):
                for x in range(dim_m):
                    out.append(DaCochain(n, {}, {key: {x: 1}}))
        return out

    def _coords(self, x: DaCochain) -> dict[int, Rat]:
        """The sparse coordinates of x in the order of `_da_basis`: a key's
        index is its mixed-radix rank in `itertools.product` order, and the
        g part follows the alg_dim(level) slots of the f part."""
        dim_a, dim_m = self.alg.dim, self.bim.dim
        coords = {}
        for table, offset in ((x.f, 0), (x.g or {}, self.alg_dim(x.level))):
            for key, row in table.items():
                index = 0
                for i in key:
                    index = index * dim_a + i
                for t, c in row.items():
                    coords[offset + index * dim_m + t] = c
        return coords

    def da_matrix(self, n: int) -> list[dict[int, Rat]]:
        """The level-n total differential as the sparse images of the basis
        cochains, in basis order: column j is {row index: entry}."""
        return [self._coords(self.da_diff(b)) for b in self._da_basis(n)]

    def cohomology_ranks(self, max_level: int, rank_fn=None) -> list[int]:
        """Dimensions of the total cohomology H^0..H^max_level over Q."""
        return self.cohomology_dims(
            [self.da_matrix(n) for n in range(max_level + 1)], rank_fn)

    def cohomology_dims(self, columns, rank_fn=None) -> list[int]:
        """Dimensions of H^0..H^top from ``columns[n] = da_matrix(n)``,
        which are only read, one `level_rank` per level."""
        return self.dims_from_ranks([self.level_rank(n, cols, rank_fn)
                                     for n, cols in enumerate(columns)])

    def level_rank(self, n: int, cols, rank_fn=None) -> int:
        """The rank of the level-n total differential from its columns
        ``cols = da_matrix(n)``, which are only read: the number of
        `echelon` pivots of the columns fed shortest first (a matrix and
        its transpose have the same rank); a `rank_fn` is given the dense
        matrix instead, one row per coordinate of level n + 1."""
        if rank_fn is None:
            return len(echelon(sorted(cols, key=len)))
        return rank_fn([[col.get(i, 0) for col in cols]
                        for i in range(self.da_dim(n + 1))])

    def dims_from_ranks(self, ranks: list[int]) -> list[int]:
        """Dimensions of H^0..H^top from the ranks of levels 0..top."""
        return [self.da_dim(n) - ranks[n] - (ranks[n - 1] if n else 0)
                for n in range(len(ranks))]


# ---------------------------------------------------------------------------
# Exact ranks
# ---------------------------------------------------------------------------

def echelon(rows) -> list[tuple[int, dict[int, Rat]]]:
    """Gaussian elimination on sparse rational rows {column: value}.

    Returns the pivots, as (column, row) with the row reduced against the
    earlier pivots and scaled to 1 at its column, so that their number is
    the rank.  A row whose pivot is 1 is kept and one whose pivot is -1
    negated, so integer rows stay integer; any other row is divided
    through a Fraction, never by int / int.
    """
    pivots: list[tuple[int, dict[int, Rat]]] = []
    for row in rows:
        row = dict(row)
        for pc, prow in pivots:
            factor = row.get(pc)
            if factor:
                for c, val in prow.items():
                    add_into(row, c, -factor * val)
        if row:
            pc = min(row)
            scale = row[pc]
            if scale == -1:
                row = {c: -val for c, val in row.items()}
            elif scale != 1:
                scale = Fraction(scale)
                row = {c: val / scale for c, val in row.items()}
            pivots.append((pc, row))
    return pivots


def rank_dense_oracle(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Independent plain Gaussian elimination over Q."""
    if not matrix or not matrix[0]:
        return 0
    rows = [list(map(Fraction, row)) for row in matrix]
    m, n = len(rows), len(rows[0])
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, m):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(m):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == m:
            break
    return rank
