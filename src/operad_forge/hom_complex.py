"""Finite-dimensional graded spaces, multilinear maps between their tensor
powers, suspension translations and the brace calculus on suspended maps.

Suspension convention: s is a degree +1 symbol, moving s or s^-1 past a
degree-p element costs (-1)**p, and s^-1 s = s s^-1 = id with no sign.  The
two translations

    iso1:  Hom((sV)^n, sV) -> Hom(V^n, V)     F |-> s^-1 o F o s^n
    iso2:  Hom((sV)^n, V)  -> Hom(V^n, V)     G |->        G o s^n

then carry the sign (-1)**(sum_j (n-j) p_j) on inputs of V-degrees
p_1..p_n, and similarly for their inverses.

A map's table holds raw cells {power of L: rational} (`coeffs.raw_cell`);
`MultiMap.evaluate` is the one reader that returns Coefficients.
Composition, braces and sums of maps run on one kernel over plain
rationals, `Walk`.  It sums terms c * f with maps placed into f's inputs,
c in Q[L] (a sign, a power of L or any other polynomial); a sum of maps
places none.  Each placed map is indexed by output basis element once per
walk, one option per power of L in a cell.  The walk passes over f's
inputs once, left to right, on states (input key so far, node of a small
automaton, rest of f's key, power of L) that hold rows {output basis
element: rational} and merge wherever two paths meet; the Koszul sign is
paid per placement.  Finished rows add up as raw cells, which are
normalized at the end; at a rational weight every state has power 0.
The automaton places the maps in order for `compose_sum` (one map, the
identity for None, per input) and `brace_sum` (all insertion positions
fold into one pass), or in any order, its node the set of maps placed,
with a sign exponent per placement from a table the caller builds
(bracket item (iii) of `linf`), so it visits at most 2^m sets of placed
maps where the orderings are m! brace terms.  Callers may walk several
sums into the same raw cells.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from .coeffs import Coefficient, Combination, raw_cell

_new = object.__new__


def _raw_table(table: Mapping) -> dict:
    """``table`` with each cell, a Coefficient or a raw cell, turned into a
    raw cell, and no empty cell or row left."""
    out = {}
    for key, row in table.items():
        row = {b: cell for b, cell in zip(row, map(raw_cell, row.values()))
               if cell}
        if row:
            out[tuple(key)] = row
    return out


class GradedSpace:
    """Finitely supported dims per integer degree, with a flat basis
    enumeration (degree-major, ascending)."""

    __slots__ = ("dims", "degrees", "_offsets", "_shifts")

    def __init__(self, dims: Mapping[int, int]):
        if any(n < 0 for n in dims.values()):
            raise ValueError(f"negative dimension in {dict(dims)}")
        self.dims = {int(d): int(n) for d, n in sorted(dims.items()) if n > 0}
        degs: list[int] = []
        offsets: dict[int, int] = {}
        for d, n in self.dims.items():
            offsets[d] = len(degs)
            degs.extend([d] * n)
        self.degrees = tuple(degs)
        self._offsets = offsets
        self._shifts: dict[int, GradedSpace] = {}

    def dim(self) -> int:
        return len(self.degrees)

    def degree_of(self, i: int) -> int:
        return self.degrees[i]

    def basis(self) -> range:
        return range(len(self.degrees))

    def shift(self, k: int = 1) -> "GradedSpace":
        """Suspension: same flat basis, degrees moved up by k.  A space is
        never changed, so each shift is built once and shifting back
        returns this space itself."""
        out = self._shifts.get(k)
        if out is None:
            out = self._shifts[k] = GradedSpace(
                {d + k: n for d, n in self.dims.items()})
            out._shifts[-k] = self
        return out

    def label(self, i: int) -> str:
        d = self.degrees[i]
        return f"{d}:{i - self._offsets[d]}"

    def id_of_label(self, label: str) -> int:
        d_str, k_str = label.split(":")
        d, k = int(d_str), int(k_str)
        if d not in self.dims or not 0 <= k < self.dims[d]:
            raise ValueError(f"no basis element {label!r}")
        return self._offsets[d] + k

    def __eq__(self, other):
        return self is other or (isinstance(other, GradedSpace)
                                 and self.dims == other.dims)

    def __hash__(self):
        return hash(tuple(self.dims.items()))

    def __repr__(self):
        return f"GradedSpace({self.dims})"


class MultiMap(Combination):
    """Multilinear map source^(tensor arity) -> target of fixed degree,
    stored as a sparse table {basis tuple: {output basis element: raw
    cell}} on flat indices; given cells may also be Coefficients.

    A table is never changed after construction, so maps share tables and
    rows freely."""

    __slots__ = ("source", "target", "arity", "degree", "table")

    def __init__(self, source: GradedSpace, target: GradedSpace, arity: int,
                 degree: int,
                 table: Optional[Mapping[tuple, Mapping[int, object]]] = None,
                 check: bool = True):
        self.source = source
        self.target = target
        self.arity = arity
        self.degree = degree
        self.table = _raw_table(table) if table else {}
        if check:
            self._check()

    def _with(self, table: dict, target: Optional[GradedSpace] = None,
              degree: Optional[int] = None) -> "MultiMap":
        """A map like this one on ``table``, which must hold raw cells and
        no empty rows; the table is taken as is, not copied or checked."""
        out = _new(MultiMap)
        out.source, out.arity, out.table = self.source, self.arity, table
        out.target = self.target if target is None else target
        out.degree = self.degree if degree is None else degree
        return out

    def _check(self):
        for key, out in self.table.items():
            if len(key) != self.arity:
                raise ValueError("input tuple of wrong length")
            in_deg = sum(self.source.degree_of(i) for i in key)
            for b in out:
                if self.target.degree_of(b) != in_deg + self.degree:
                    raise ValueError(
                        f"entry {key}->{b} violates degree {self.degree}")

    @staticmethod
    def zero(source: GradedSpace, target: GradedSpace, arity: int,
             degree: int) -> "MultiMap":
        return MultiMap(source, target, arity, degree, None, check=False)

    def is_zero(self) -> bool:
        return not self.table

    def __bool__(self) -> bool:
        return bool(self.table)

    def _compatible(self, other: "MultiMap"):
        if (self.source != other.source or self.target != other.target
                or self.arity != other.arity):
            raise ValueError("incompatible maps")
        if self.table and other.table and self.degree != other.degree:
            raise ValueError("mixed degrees")

    def _sum(self, pairs: Iterable[tuple]) -> "MultiMap":
        pairs = list(pairs)
        for _, mm in pairs:
            if mm is not self:
                self._compatible(mm)
        return sum_maps((c, {0: mm}) for c, mm in pairs).get(0) \
            or self._with({})

    def __eq__(self, other):
        if not isinstance(other, MultiMap):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return (self.source == other.source and self.target == other.target
                    and self.arity == other.arity)
        return (self.source == other.source and self.target == other.target
                and self.arity == other.arity and self.degree == other.degree
                and self.table == other.table)

    def __repr__(self):
        n = sum(len(v) for v in self.table.values())
        return (f"MultiMap(arity={self.arity}, degree={self.degree}, "
                f"{n} entries)")

    def evaluate(self, key: Sequence[int]) -> dict[int, Coefficient]:
        """The output row at the input tuple ``key``, one Coefficient per
        nonzero entry: the one reader that turns raw cells into values."""
        return {b: Coefficient(cell)
                for b, cell in self.table.get(tuple(key), {}).items()}


def sum_maps(pairs: Iterable[tuple]) -> dict:
    """Keywise sum of c * family over (c, family) pairs, each family a dict
    of MultiMaps: one `Walk` per key with no maps placed, so every map of a
    key must have its shape.  Zero maps are skipped and keys whose sum is
    zero are dropped."""
    walks: dict = {}
    for c, family in pairs:
        for key, mm in family.items():
            if mm.table:
                if key not in walks:
                    walks[key] = Walk(mm)
                walks[key].add(c, mm, ())
    return {key: mm for key, walk in walks.items() if (mm := walk.result())}


class MapFamily(Combination):
    """Nonzero MultiMaps over one graded space, under any keys: an element
    of a convolution algebra, one map per generator of its cooperad."""

    __slots__ = ("space", "parts")

    def __init__(self, space: GradedSpace,
                 parts: Optional[Mapping[object, MultiMap]] = None):
        self.space = space
        self.parts = {k: mm for k, mm in parts.items() if mm.table} \
            if parts else {}

    @classmethod
    def sum(cls, space: GradedSpace, pairs: Iterable[tuple]):
        """sum of c * x over (c, x) pairs of families on ``space``, each
        part accumulated row by row into one fresh table."""
        def families():
            for c, x in pairs:
                if x.space != space:
                    raise ValueError("mixed spaces")
                yield c, x.parts

        out = _new(cls)
        out.space, out.parts = space, sum_maps(families())
        return out

    def _sum(self, pairs: Iterable[tuple]):
        return self.sum(self.space, pairs)

    def is_zero(self) -> bool:
        return not self.parts

    def __eq__(self, other):
        if not isinstance(other, MapFamily):
            return NotImplemented
        return (type(self) is type(other) and self.space == other.space
                and self.parts == other.parts)


# ---------------------------------------------------------------------------
# Composition, braces and sums: one kernel on plain rationals
# ---------------------------------------------------------------------------

def _shape(f: MultiMap, gs: Sequence[Optional[MultiMap]]) -> tuple[int, int]:
    """Arity and degree of f with the maps gs placed, None the identity."""
    arity, degree = f.arity, f.degree
    for g in gs:
        if g is not None:
            arity += g.arity - 1
            degree += g.degree
    return arity, degree


class Walk:
    """The walk of a sum of c * f with maps placed into f's inputs, every
    term with the output shape of ``out`` (see the module docstring).

    A node is (need, places): an input of f either passes through, if at
    least ``need`` inputs are left after it, or gets a map from ``places``,
    a list of (indexed map, next node, sign exponent).  A placement pays
    its sign exponent plus the map's degree times the degree of the key so
    far (the Koszul sign).
    """

    __slots__ = ("out", "_index", "_chains", "_nodes", "_states", "_done")

    def __init__(self, out: MultiMap):
        self.out, self._states, self._done = out, {}, {}
        self._index, self._chains, self._nodes = {}, {}, []

    @classmethod
    def of(cls, f: MultiMap, gs: Sequence[Optional[MultiMap]]) -> "Walk":
        """An empty walk with the output shape of f with gs placed."""
        return cls(MultiMap.zero(f.source, f.target, *_shape(f, gs)))

    def _slot(self, h: Optional[MultiMap]) -> tuple:
        """h by output basis element, b -> [(input block, its degree, power
        of L, value, minus the value)], and the parity of h's degree; None
        is the identity.  Built once per map and walk, keyed by id(h); the
        entry keeps h alive."""
        entry = self._index.get(id(h))
        if entry is not None:
            return entry[1]
        source = self.out.source
        degs = source.degrees
        if h is None:
            by_out = {b: [((b,), d, 0, 1, -1)] for b, d in enumerate(degs)}
        elif h.target != source or h.source != source:
            raise ValueError("slot maps must go from and to the input space")
        else:
            by_out = {}
            for key, row in h.table.items():
                d = sum(map(degs.__getitem__, key))
                for b, c in row.items():
                    opts = by_out.get(b)
                    if opts is None:
                        opts = by_out[b] = []
                    for e, v in c.items():
                        opts.append((key, d, e, v, -v))
        slot = (by_out, 0 if h is None else h.degree & 1)
        self._index[id(h)] = (h, slot)
        return slot

    def _chain(self, gs: Sequence[Optional[MultiMap]], step) -> int:
        """The first node of the automaton that places gs into f's inputs:
        in order when ``step`` is None, the node counting the maps placed
        (shared by the terms that repeat gs), else in any order, the node
        being the bitmask S of the maps placed and placing g_t after S
        adding step[S][t] to the sign exponent."""
        ids = tuple(map(id, gs))
        if step is None and ids in self._chains:
            return self._chains[ids]
        nodes, m = self._nodes, len(gs)
        q, slots = len(nodes), [self._slot(g) for g in gs]
        if step is None:
            self._chains[ids] = q
            nodes.extend((m - k, ((slots[k], q + k + 1, 0),) if k < m else ())
                         for k in range(m + 1))
        else:
            nodes.extend((m - mask.bit_count(),
                          [(slots[t], q + (mask | 1 << t), step[mask][t])
                           for t in range(m) if not mask >> t & 1])
                         for mask in range(1 << m))
        return q

    def add(self, c, f: MultiMap, gs: Sequence[Optional[MultiMap]],
            step=None) -> None:
        """Add c * f with the maps gs placed into its inputs as `_chain`
        places them, c a Coefficient or a rational; a term with more maps
        than f has inputs gives nothing, and one with none is c * f."""
        out = self.out
        if f.source != out.source or f.target != out.target:
            raise ValueError("f must go from the source to the target")
        if _shape(f, gs) != (out.arity, out.degree):
            raise ValueError("terms of mixed arity or degree")
        if len(gs) > f.arity:
            return
        q, states = self._chain(gs, step), self._states
        cs = tuple(c.items()) if isinstance(c, Coefficient) else ((0, c),)
        for key, frow in f.table.items():
            for b, v in frow.items():
                for ef, vf in v.items():
                    for ec, vc in cs:
                        skey = ((), q, key, ef + ec)
                        st = states.get(skey)
                        if st is None:
                            states[skey] = (0, {b: vf * vc})
                        else:
                            st[1][b] = st[1].get(b, 0) + vf * vc

    def walk(self) -> None:
        """Walk the terms added since the last walk into the raw cells
        {key: {b: {power of L: rational}}}, and let go of their maps."""
        degs, nodes, done = self.out.source.degrees, self._nodes, self._done
        states, self._states = self._states, {}
        self._index, self._chains, self._nodes = {}, {}, []
        while states:
            nxt: dict[tuple, tuple] = {}
            for (key, q, rest, e), (pd, row) in states.items():
                if not rest:
                    drow = done.get(key)
                    if drow is None:
                        done[key] = {ob: {e: v} for ob, v in row.items()}
                        continue
                    for ob, v in row.items():
                        cell = drow.get(ob)
                        if cell is None:
                            drow[ob] = {e: v}
                        else:
                            cell[e] = cell.get(e, 0) + v
                    continue
                b, rest = rest[0], rest[1:]
                need, places = nodes[q]
                if len(rest) >= need:
                    # the row moves on uncopied: it belongs to this state alone
                    skey = (key + (b,), q, rest, e)
                    dst = nxt.get(skey)
                    if dst is None:
                        nxt[skey] = (pd + degs[b], row)
                    else:
                        drow = dst[1]
                        for ob, v in row.items():
                            drow[ob] = drow.get(ob, 0) + v
                for (by_out, odd), nq, sign in places:
                    opts = by_out.get(b)
                    if opts is None:
                        continue
                    neg = (sign + pd * odd) & 1
                    for block, d, eh, vh, nvh in opts:
                        if neg:
                            vh = nvh
                        skey = (key + block, nq, rest, e + eh)
                        dst = nxt.get(skey)
                        if dst is None:
                            nxt[skey] = (pd + d,
                                         {ob: v * vh for ob, v in row.items()})
                            continue
                        drow = dst[1]
                        for ob, v in row.items():
                            drow[ob] = drow.get(ob, 0) + v * vh
            states = nxt

    def result(self) -> MultiMap:
        """``out`` with the table of the terms added so far, its raw cells
        normalized; no Coefficient is built."""
        self.walk()
        return self.out._with(_raw_table(self._done))


def add_term(walks: dict, tag, c, f: MultiMap,
             gs: Sequence[Optional[MultiMap]], step=None) -> None:
    """`Walk.add` into the walk of the term's part (arity, tag) in
    ``walks``, made on first use: one walk per part of a map family."""
    part = (_shape(f, gs)[0], tag)
    if part not in walks:
        walks[part] = Walk.of(f, gs)
    walks[part].add(c, f, gs, step)


def compose_sum(source: GradedSpace, target: GradedSpace, arity: int,
                degree: int, terms: Iterable[tuple]) -> MultiMap:
    """sum of c * f o (slots) over (c, f, slots) terms, c a Coefficient or
    a rational; every f goes from ``source`` to ``target`` and every term
    has the given arity and degree.  A composition places one slot map, the
    identity for None, into each input of f, in order."""
    walk = Walk(MultiMap.zero(source, target, arity, degree))
    for c, f, slots in terms:
        if len(slots) != f.arity:
            raise ValueError("terms of mixed arity or degree")
        walk.add(c, f, slots)
    return walk.result()


def compose_full(f: MultiMap, slots: Sequence[Optional[MultiMap]]
                 ) -> MultiMap:
    """f o (h_1 tensor ... tensor h_k), None meaning the identity slot.

    Koszul signs: each h_s passes the argument blocks of the slots to its
    left, contributing (-1)**(deg(h_s) * deg(those arguments)).
    """
    return compose_sum(f.source, f.target, *_shape(f, slots),
                       [(1, f, slots)])


def compose_at(f: MultiMap, i: int, g: MultiMap) -> MultiMap:
    """f o_i g: insert g into the i-th input of f (1-based)."""
    if not 1 <= i <= f.arity:
        raise ValueError(f"position {i} out of range")
    slots: list[Optional[MultiMap]] = [None] * f.arity
    slots[i - 1] = g
    return compose_full(f, slots)


def brace_sum(terms: Sequence[tuple]) -> MultiMap:
    """sum of c * f{g_1,...,g_k} over nonempty (c, f, gs) terms of one
    arity and degree, every insertion position of every term folded into
    one walk; a term with more maps than inputs gives nothing."""
    walk = Walk.of(*terms[0][1:])
    for c, f, gs in terms:
        walk.add(c, f, gs)
    return walk.result()


def hom_brace(f: MultiMap, gs: Sequence[MultiMap]) -> MultiMap:
    """f{g_1,...,g_k}: sum over strictly increasing insertion slots, each
    g_j indexed once and all positions summed in one raw table."""
    return brace_sum([(1, f, gs)]) if gs else f


def gerstenhaber_terms(c, f: MultiMap, g: MultiMap) -> list[tuple]:
    """The brace terms of c [f,g] = c f{g} - (-1)**(|f||g|) c g{f}."""
    return [(c, f, [g]), (c if f.degree * g.degree % 2 else -c, g, [f])]


def hom_gerstenhaber(f: MultiMap, g: MultiMap) -> MultiMap:
    """[f,g] = f{g} - (-1)**(|f||g|) g{f} on maps with target = source."""
    return brace_sum(gerstenhaber_terms(1, f, g))


# ---------------------------------------------------------------------------
# Suspension translations
# ---------------------------------------------------------------------------

def _conjugation_sign(space: GradedSpace, key: Sequence[int]) -> int:
    """(-1)**(sum_j (n-j) p_j) on V-degrees p_j of the input tuple."""
    n = len(key)
    exp = sum((n - 1 - j) * space.degree_of(b) for j, b in enumerate(key))
    return -1 if exp % 2 else 1


def suspend_target(f: MultiMap) -> MultiMap:
    """Post-compose with s (flat basis unchanged, target degrees up by 1).
    Only degrees are relabelled, so the table is shared."""
    return f._with(f.table, f.target.shift(1), f.degree + 1)


def desuspend_target(f: MultiMap) -> MultiMap:
    return f._with(f.table, f.target.shift(-1), f.degree - 1)


def _translate(f: MultiMap, shift_in: int, shift_out: int) -> MultiMap:
    """Conjugate by suspension on inputs (and optionally the target).

    shift_in = +1 turns V-inputs into sV-inputs, -1 the other way; the sign
    is always computed from the V-degrees.
    """
    src = f.source.shift(shift_in)
    tgt = f.target.shift(shift_out)
    plain = f.source if shift_in > 0 else src
    table: dict[tuple, dict[int, dict]] = {}
    for key, out in f.table.items():
        sign = _conjugation_sign(plain, key)
        if sign == 1:
            table[key] = out
        else:
            table[key] = {b: {e: -v for e, v in cell.items()}
                          for b, cell in out.items()}
    degree = f.degree - shift_in * (f.arity) + shift_out
    return MultiMap.zero(src, tgt, f.arity, degree)._with(table)


def iso1_down(f: MultiMap) -> MultiMap:
    """Hom((sV)^n, sV) -> Hom(V^n, V)."""
    return _translate(f, -1, -1)


def iso1_up(f: MultiMap) -> MultiMap:
    """Hom(V^n, V) -> Hom((sV)^n, sV); inverse of iso1_down."""
    return _translate(f, +1, +1)


def iso2_down(f: MultiMap) -> MultiMap:
    """Hom((sV)^n, V) -> Hom(V^n, V)."""
    return _translate(f, -1, 0)


def iso2_up(f: MultiMap) -> MultiMap:
    """Hom(V^n, V) -> Hom((sV)^n, V); inverse of iso2_down."""
    return _translate(f, +1, 0)
