"""Concrete finite-dimensional algebra and bimodule data.

All tables and the weight hold exact rationals, as `coeffs.normalize`
gives them: an int where the value is integral, a Fraction otherwise,
never a float.  Axioms are never assumed: the checkers below are the
independent oracles against which the operadic machinery is validated.

JSON formats:

algebra:  {"dim": n, "basis": ["e", ...], "mult": [[[q,...],...],...],
           "d": [[q,...],...], "lambda": "1"}
    mult[i][j][k] = coefficient of basis k in e_i * e_j, d[i][k] likewise,
    entries are integers or rational strings; a float, a boolean or null
    is refused.

bimodule: {"dim": m, "basis": [...], "left": [[[q,...],...],...],
           "right": [[[q,...],...],...], "d": [[q,...],...]}
    left[i][x][k]: coefficient of x-basis k in e_i . x_x;
    right[x][i][k]: ... in x_x . e_i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .coeffs import Rat, normalize

Vec = tuple[Rat, ...]   # int where integral, else Fraction


def _vec(entries: Sequence) -> Vec:
    return tuple(map(normalize, entries))


def zero_vec(dim: int) -> Vec:
    return (0,) * dim


def add_vec(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def scale_vec(c: Rat, v: Vec) -> Vec:
    return tuple(c * a for a in v)


def _table(rows, shape: tuple[int, ...], name: str):
    """``rows`` as nested tuples of rationals, checked to have ``shape``."""
    if not isinstance(rows, (list, tuple)) or len(rows) != shape[0]:
        raise ValueError(f"{name} must be a list of {shape[0]} entries")
    if len(shape) == 1:
        return _vec(rows)
    return tuple(_table(r, shape[1:], f"{name}[{i}]")
                 for i, r in enumerate(rows))


def _basis(basis, dim: int, prefix: str) -> tuple[str, ...]:
    if basis is None:
        return tuple(f"{prefix}{i}" for i in range(dim))
    if len(basis) != dim:
        raise ValueError(f"basis has {len(basis)} names for dimension {dim}")
    return tuple(basis)


class _TableMaps:
    """The linear and bilinear maps given by tables on the basis, into a
    space of dimension ``dim``: the algebra's product, the bimodule's
    actions and both differentials."""

    def _bilinear(self, table, u: Vec, v: Vec) -> Vec:
        """The map (e_i, e_j) |-> table[i][j] at (u, v)."""
        out = zero_vec(self.dim)
        for i, a in enumerate(u):
            if a == 0:
                continue
            for j, b in enumerate(v):
                if b == 0:
                    continue
                out = add_vec(out, scale_vec(a * b, table[i][j]))
        return out

    def apply_d(self, u: Vec) -> Vec:
        out = zero_vec(self.dim)
        for i, a in enumerate(u):
            if a != 0:
                out = add_vec(out, scale_vec(a, self.d[i]))
        return out

    def unit_vec(self, i: int) -> Vec:
        return tuple(1 if j == i else 0 for j in range(self.dim))


@dataclass(frozen=True)
class DifAlgebraData(_TableMaps):
    dim: int
    basis: tuple[str, ...]
    mult: tuple[tuple[Vec, ...], ...]   # mult[i][j] = e_i * e_j
    d: tuple[Vec, ...]                  # d[i] = d(e_i)
    lam: Rat

    @staticmethod
    def build(mult, d, lam, basis=None) -> "DifAlgebraData":
        dim = len(mult)
        return DifAlgebraData(dim, _basis(basis, dim, "e"),
                              _table(mult, (dim, dim, dim), "mult"),
                              _table(d, (dim, dim), "d"), normalize(lam))

    def product(self, u: Vec, v: Vec) -> Vec:
        return self._bilinear(self.mult, u, v)


def associativity_defects(alg: DifAlgebraData) -> list[tuple[int, int, int]]:
    bad = []
    for i in range(alg.dim):
        ei = alg.unit_vec(i)
        for j in range(alg.dim):
            ej = alg.unit_vec(j)
            for k in range(alg.dim):
                ek = alg.unit_vec(k)
                lhs = alg.product(alg.product(ei, ej), ek)
                rhs = alg.product(ei, alg.product(ej, ek))
                if lhs != rhs:
                    bad.append((i, j, k))
    return bad


def leibniz_defects(alg: DifAlgebraData) -> list[tuple[int, int]]:
    """Failures of d(uv) = d(u)v + u d(v) + lam d(u) d(v) on basis pairs."""
    bad = []
    for i in range(alg.dim):
        ei = alg.unit_vec(i)
        dei = alg.apply_d(ei)
        for j in range(alg.dim):
            ej = alg.unit_vec(j)
            dej = alg.apply_d(ej)
            lhs = alg.apply_d(alg.product(ei, ej))
            rhs = add_vec(
                add_vec(alg.product(dei, ej), alg.product(ei, dej)),
                scale_vec(alg.lam, alg.product(dei, dej)))
            if lhs != rhs:
                bad.append((i, j))
    return bad


def is_differential_algebra(alg: DifAlgebraData) -> bool:
    return not associativity_defects(alg) and not leibniz_defects(alg)


@dataclass(frozen=True)
class DifBimoduleData(_TableMaps):
    dim: int
    basis: tuple[str, ...]
    left: tuple[tuple[Vec, ...], ...]    # left[i][x] = e_i . x_x
    right: tuple[tuple[Vec, ...], ...]   # right[x][i] = x_x . e_i
    d: tuple[Vec, ...]

    @staticmethod
    def build(left, right, d, basis=None) -> "DifBimoduleData":
        dim = len(d)
        a_dim = len(left)
        return DifBimoduleData(dim, _basis(basis, dim, "x"),
                               _table(left, (a_dim, dim, dim), "left"),
                               _table(right, (dim, a_dim, dim), "right"),
                               _table(d, (dim, dim), "d"))

    def act_left(self, a: Vec, x: Vec) -> Vec:
        return self._bilinear(self.left, a, x)

    def act_right(self, x: Vec, a: Vec) -> Vec:
        return self._bilinear(self.right, x, a)


def regular_bimodule(alg: DifAlgebraData) -> DifBimoduleData:
    left = [[alg.mult[i][x] for x in range(alg.dim)] for i in range(alg.dim)]
    right = [[alg.mult[x][i] for i in range(alg.dim)] for x in range(alg.dim)]
    return DifBimoduleData.build(left, right, list(alg.d), basis=alg.basis)


def bimodule_defects(alg: DifAlgebraData, bim: DifBimoduleData) -> list[str]:
    """Human-readable locations of bimodule / differential-bimodule axiom
    failures; empty means the data is a differential bimodule."""
    bad = []
    for i in range(alg.dim):
        a = alg.unit_vec(i)
        for j in range(alg.dim):
            b = alg.unit_vec(j)
            for x in range(bim.dim):
                v = bim.unit_vec(x)
                if bim.act_left(alg.product(a, b), v) != \
                        bim.act_left(a, bim.act_left(b, v)):
                    bad.append(f"(ab)x != a(bx) at a=e{i}, b=e{j}, x=x{x}")
                if bim.act_right(bim.act_right(v, a), b) != \
                        bim.act_right(v, alg.product(a, b)):
                    bad.append(f"(xa)b != x(ab) at x=x{x}, a=e{i}, b=e{j}")
                if bim.act_right(bim.act_left(a, v), b) != \
                        bim.act_left(a, bim.act_right(v, b)):
                    bad.append(f"(ax)b != a(xb) at a=e{i}, x=x{x}, b=e{j}")
    lam = alg.lam
    for i in range(alg.dim):
        a = alg.unit_vec(i)
        da = alg.apply_d(a)
        for x in range(bim.dim):
            v = bim.unit_vec(x)
            dv = bim.apply_d(v)
            lhs = bim.apply_d(bim.act_left(a, v))
            rhs = add_vec(add_vec(bim.act_left(da, v), bim.act_left(a, dv)),
                          scale_vec(lam, bim.act_left(da, dv)))
            if lhs != rhs:
                bad.append(f"d(ax) rule fails at a=e{i}, x=x{x}")
            lhs = bim.apply_d(bim.act_right(v, a))
            rhs = add_vec(add_vec(bim.act_right(dv, a), bim.act_right(v, da)),
                          scale_vec(lam, bim.act_right(dv, da)))
            if lhs != rhs:
                bad.append(f"d(xa) rule fails at x=x{x}, a=e{i}")
    return bad


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def _check_dim(declared, dim: int) -> None:
    if declared != dim:
        raise ValueError(f"declared dim {declared!r} does not match the "
                         f"tables, of dimension {dim}")


def load_algebra(obj) -> DifAlgebraData:
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    alg = DifAlgebraData.build(obj["mult"], obj["d"], obj["lambda"],
                               obj.get("basis") or None)
    _check_dim(obj["dim"], alg.dim)
    return alg


def dump_algebra(alg: DifAlgebraData) -> str:
    return json.dumps({
        "dim": alg.dim,
        "basis": list(alg.basis),
        "mult": [[[str(c) for c in alg.mult[i][j]] for j in range(alg.dim)]
                 for i in range(alg.dim)],
        "d": [[str(c) for c in alg.d[i]] for i in range(alg.dim)],
        "lambda": str(alg.lam),
    }, indent=1)


def load_bimodule(obj) -> DifBimoduleData:
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    bim = DifBimoduleData.build(obj["left"], obj["right"], obj["d"],
                                obj.get("basis") or None)
    _check_dim(obj["dim"], bim.dim)
    return bim
