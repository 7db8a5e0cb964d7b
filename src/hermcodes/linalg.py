"""Dense exact linear algebra over F_p and over tower subfields.

All F_p elimination goes through one routine, `_echelon`, which streams
vectors into an echelon basis and drops every vector that reduces to zero,
so a dependent row costs one reduction and is never touched again.  At
p = 2 a row is a Python int (bit i is entry i) and a row operation is one
XOR; at odd p a row is a list of residues.  Reduced forms are built from
that basis and are unique, so identical inputs give identical outputs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .gf import FieldTower


def _echelon(vecs: Iterable, p: int, basis: dict | None = None) -> dict:
    """Stream vectors into an echelon basis over F_p; returns the basis,
    extended in place when one is given.

    At p = 2 the vectors are ints and the basis maps the lowest set bit of
    each row to the row.  At odd p the vectors are lists of residues in
    [0, p), which are consumed, and the basis maps each pivot column pc to
    row[pc:] of a row that is 1 at pc, zero left of it and zero at the
    pivots of the rows before it (insertion order).
    """
    if basis is None:
        basis = {}
    if p == 2:
        for v in vecs:
            while v:
                low = v & -v
                if low in basis:
                    v ^= basis[low]
                else:
                    basis[low] = v
                    break
        return basis
    for v in vecs:
        for pc, row in basis.items():
            f = v[pc]
            if f:
                v[pc:] = [(a - f * b) % p for a, b in zip(v[pc:], row)]
        for pc, f in enumerate(v):
            if f:
                inv = pow(f, p - 2, p)
                basis[pc] = [(a * inv) % p for a in v[pc:]]
                break
    return basis


def _pack(vec: Sequence[int], p: int):
    """A row in `_echelon`'s format: an int at p = 2, a residue list at odd p."""
    if p == 2:
        return int("".join("1" if a & 1 else "0" for a in reversed(vec)) or "0", 2)
    return [a % p for a in vec]


def rref_mod_p(rows: Sequence[Sequence[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p. Returns (nonzero rows, pivot cols)."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    basis = _echelon([_pack(r, p) for r in rows], p)
    keys = sorted(basis)
    # back-substitute from the last pivot; each row is zero left of its pivot
    if p == 2:
        red = [basis[k] for k in keys]
        for i in reversed(range(len(red))):
            for j in range(i):
                if red[j] & keys[i]:
                    red[j] ^= red[i]
        return ([[r >> c & 1 for c in range(ncols)] for r in red],
                [k.bit_length() - 1 for k in keys])
    red = [[0] * pc + basis[pc] for pc in keys]
    for i in reversed(range(len(red))):
        pc = keys[i]
        tail = red[i][pc:]
        for row in red[:i]:
            f = row[pc]
            if f:
                row[pc:] = [(a - f * b) % p for a, b in zip(row[pc:], tail)]
    return red, keys


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p."""
    return len(_echelon([_pack(r, p) for r in rows], p))


def nullspace_mod_p(rows: Sequence[Sequence[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of {v : M v = 0} for the matrix with the given rows."""
    red, pivots = rref_mod_p(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in zip(red, pivots):
            v[pc] = (-r[fc]) % p
        basis.append(v)
    return basis


def solve_mod_p(rows: Sequence[Sequence[int]], rhs: Sequence[int], p: int) -> list[int] | None:
    """One solution of M x = rhs, or None if inconsistent."""
    aug = [list(r) + [b % p] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref_mod_p(aug, p)
    x = [0] * ncols
    for r, pc in zip(red, pivots):
        if pc == ncols:
            return None
        x[pc] = r[-1]
    # verify, since free columns were set to zero
    for row, b in zip(rows, rhs):
        if sum(a * v for a, v in zip(row, x)) % p != b % p:
            return None
    return x


class FpSpan:
    """Incremental row space over F_p with membership queries."""

    def __init__(self, ncols: int, p: int):
        self.ncols = ncols
        self.p = p
        self.basis: dict = {}   # an `_echelon` basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: Sequence[int]) -> bool:
        # reduce into a copy of the basis, so nothing is inserted
        return len(_echelon([_pack(vec, self.p)], self.p, dict(self.basis))) == self.dim

    def add(self, vec: Sequence[int]) -> bool:
        """Insert a vector; True if it enlarged the span."""
        dim = self.dim
        _echelon([_pack(vec, self.p)], self.p, self.basis)
        return self.dim > dim


def span_walk(tower: FieldTower, gen_states: Sequence[Sequence[int]], width: int,
              start: Sequence[int] | None = None):
    """Yield every F_p-combination of the generator state vectors, each of
    `width` element codes, added to `start` (default zero), one amortized
    vector add per step.

    States are vectors of element codes added entrywise, starting from
    `start`.  The order is an odometer over the generator coordinates, the
    first generator's digit turning fastest.  The yielded list is a reused
    buffer; consumers must copy what they keep.
    """
    p = tower.p
    add = tower.add
    k = len(gen_states)
    cur = [0] * width if start is None else list(start)
    yield cur
    digits = [0] * k
    for _ in range(p ** k - 1):
        i = 0
        while digits[i] == p - 1:
            digits[i] = 0
            gs = gen_states[i]
            for idx in range(width):
                cur[idx] = add(cur[idx], gs[idx])
            i += 1
        digits[i] += 1
        gs = gen_states[i]
        for idx in range(width):
            cur[idx] = add(cur[idx], gs[idx])
        yield cur


def line_walk(tower: FieldTower, gen_states: Sequence[Sequence[int]], width: int):
    """Yield the zero state, then one state from each F_p^*-line of the span:
    the combinations whose last nonzero generator coefficient is 1.

    For F_p-independent generators that is 1 + (p^k - 1)/(p - 1) states, and
    every nonzero combination is c times exactly one of them, c in F_p^*.
    Generator i leads p^i of them: `span_walk` over the first i generators,
    started from generator i.  The yielded list is a reused buffer.
    """
    yield [0] * width
    for i, lead in enumerate(gen_states):
        yield from span_walk(tower, gen_states[:i], width, start=lead)


def nullity_of_code_columns(tower: FieldTower, columns: Sequence[int]) -> int:
    """F_p-nullity of the square matrix whose columns are element codes.

    Column t is the digit vector of `columns[t]`; this is the matrix of an
    additive map taken in the ambient power basis.  Its rank is that of the
    transpose, whose rows are the digit vectors: at p = 2 the codes
    themselves.
    """
    p = tower.p
    vecs = columns if p == 2 else [list(tower.digits(c)) for c in columns]
    return len(columns) - len(_echelon(vecs, p))


def rank_subfield_matrix(tower: FieldTower, rows: Sequence[Sequence[int]]) -> int:
    """Rank of a matrix with entries in a subfield, by tower-exact elimination."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for c in range(ncols):
        sel = None
        for i in range(rank, nrows):
            if mat[i][c]:
                sel = i
                break
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        inv = tower.inv(mat[rank][c])
        mat[rank] = [tower.mul(inv, v) for v in mat[rank]]
        for i in range(nrows):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [tower.sub(a, tower.mul(f, b)) for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank
