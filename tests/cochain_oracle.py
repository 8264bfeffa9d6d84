"""Gather-form cochain differentials, an oracle for `operad_forge.cochain`.

`GatherComplexes` computes each differential key by key: for every output
basis tuple it evaluates the cochain at unit vectors through `eval_table`,
exactly as the formulas are displayed, on dense coordinate vectors.
`CochainComplexes` evaluates the same formulas entry by entry (push form);
the tests compare the two on seeded tables, and `da_matrix` of this class is
the gather-form matrix.  Both take and return tables of sparse rows; this
class turns its dense results into rows at the boundary (`to_rows`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from operad_forge.algebras import (
    DifBimoduleData,
    Vec,
    add_vec,
    scale_vec,
    zero_vec,
)
from operad_forge.cochain import CochainComplexes, DaCochain, Table

Dense = dict[tuple, Vec]     # {basis tuple: coordinate vector}


def vec_is_zero(v: Vec) -> bool:
    return all(a == 0 for a in v)


def to_rows(table: Dense) -> Table:
    """The sparse rows of a dense table, zeros and zero vectors dropped."""
    rows = {k: {t: c for t, c in enumerate(v) if c} for k, v in table.items()}
    return {k: row for k, row in rows.items() if row}


def table_add(a: Dense, b: Dense, dim: int) -> Dense:
    out = dict(a)
    for k, v in b.items():
        w = add_vec(out.get(k, zero_vec(dim)), v)
        if vec_is_zero(w):
            out.pop(k, None)
        else:
            out[k] = w
    return out


def table_scale(c, a: Dense) -> Dense:
    c = Fraction(c)
    if c == 0:
        return {}
    return {k: scale_vec(c, v) for k, v in a.items()}


def eval_table(table: Table, args: Sequence[Vec], dim_m: int) -> Vec:
    """Multilinear evaluation of a table of rows at coordinate vectors."""
    out = [Fraction(0)] * dim_m
    for key, row in table.items():
        c = Fraction(1)
        for pos, i in enumerate(key):
            c *= args[pos][i]
            if c == 0:
                break
        if c != 0:
            for t, y in row.items():
                out[t] += c * y
    return tuple(out)


class GatherComplexes(CochainComplexes):
    """The three differentials evaluated at every output key."""

    def _gather_hochschild(self, n: int, f: Table,
                           bim: DifBimoduleData) -> Dense:
        alg = self.alg
        dim_a, dim_m = alg.dim, bim.dim
        out: Dense = {}
        for key in itertools.product(range(dim_a), repeat=n + 1):
            args = [alg.unit_vec(i) for i in key]
            acc = zero_vec(dim_m)
            v = eval_table(f, args[1:], dim_m)
            sign = -1 if (n + 1) % 2 else 1
            acc = add_vec(acc, scale_vec(sign, bim.act_left(args[0], v)))
            for i in range(1, n + 1):
                inner = args[: i - 1] + [alg.product(args[i - 1], args[i])] + \
                    args[i + 1:]
                v = eval_table(f, inner, dim_m)
                sign = -1 if (n + 1 - i) % 2 else 1
                acc = add_vec(acc, scale_vec(sign, v))
            v = eval_table(f, args[:-1], dim_m)
            acc = add_vec(acc, bim.act_right(v, args[-1]))
            if not vec_is_zero(acc):
                out[key] = acc
        return out

    def hochschild_diff(self, n: int, f: Table) -> Table:
        return to_rows(self._gather_hochschild(n, f, self.bim))

    def do_diff(self, n: int, g: Table) -> Table:
        return to_rows(self._gather_hochschild(n, g, self.vdash_bim))

    def phi(self, n: int, f: Table) -> Table:
        return to_rows(self._gather_phi(n, f))

    def _gather_phi(self, n: int, f: Table) -> Dense:
        """Phi(f)(a_1..a_n) = sum_k L^{k-1} sum_{i_1<..<i_k}
        f(.. d(a_{i_t}) ..) - d_M(f(a_1..a_n))."""
        alg, bim = self.alg, self.bim
        dim_a, dim_m = alg.dim, bim.dim
        lam = alg.lam
        out: Dense = {}
        for key in itertools.product(range(dim_a), repeat=n):
            args = [alg.unit_vec(i) for i in key]
            acc = scale_vec(-1, bim.apply_d(eval_table(f, args, dim_m)))
            for k in range(1, n + 1):
                lam_pow = lam ** (k - 1)
                if lam_pow == 0 and k > 1:
                    continue
                for subset in itertools.combinations(range(n), k):
                    inner = list(args)
                    for pos in subset:
                        inner[pos] = alg.apply_d(inner[pos])
                    v = eval_table(f, inner, dim_m)
                    acc = add_vec(acc, scale_vec(lam_pow, v))
            if not vec_is_zero(acc):
                out[key] = acc
        return out

    def da_diff(self, x: DaCochain) -> DaCochain:
        n = x.level
        new_f = self.hochschild_diff(n, x.f)
        new_g = table_scale(-1, self._gather_phi(n, x.f))
        if x.g is not None:
            new_g = table_add(new_g, table_scale(-1, self._gather_hochschild(
                n - 1, x.g, self.vdash_bim)), self.bim.dim)
        return DaCochain(n + 1, new_f, to_rows(new_g))
