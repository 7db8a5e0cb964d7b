"""Dense exact linear algebra over F_p and over tower subfields.

Everything here is small and deterministic: row-reduction with first-nonzero
pivoting, no permutation heuristics, so identical inputs yield identical
reduced forms on every run.
"""

from __future__ import annotations

from typing import Sequence

from .gf import FieldTower


def rref_mod_p(rows: Sequence[Sequence[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p. Returns (nonzero rows, pivot cols)."""
    mat = [[v % p for v in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        # rows r.. are zero left of column c, so the pivot row is too and
        # row operations only change columns c..
        inv = pow(mat[r][c], p - 2, p)
        tail = [(v * inv) % p for v in mat[r][c:]]
        mat[r] = mat[r][:c] + tail
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                mat[i] = row[:c] + [(a - f * b) % p for a, b in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p."""
    return _forward_rank([[v % p for v in r] for r in rows], p)


def _forward_rank(mat: list[Sequence[int]], p: int) -> int:
    """Rank of rows with entries already in [0, p), by forward elimination
    only: the rows below each pivot are cleared, the rows above are left as
    they are.  Replaces (never mutates) the rows of `mat`."""
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for c in range(ncols):
        sel = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if sel is None:
            continue
        piv = mat[sel]
        mat[sel] = mat[rank]
        inv = pow(piv[c], p - 2, p)
        tail = [(v * inv) % p for v in piv[c + 1:]]
        for i in range(rank + 1, len(mat)):
            row = mat[i]
            f = row[c]
            if f:
                mat[i] = [0] * (c + 1) + [(a - f * b) % p for a, b in zip(row[c + 1:], tail)]
        rank += 1
        if rank == len(mat):
            break
    return rank


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
    """Incremental row space over F_p with membership and reduction queries."""

    def __init__(self, ncols: int, p: int):
        self.ncols = ncols
        self.p = p
        self.rows: list[list[int]] = []   # kept in reduced echelon form
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence[int]) -> list[int]:
        p = self.p
        v = [c % p for c in vec]
        for row, pc in zip(self.rows, self.pivots):
            if v[pc]:
                f = v[pc]
                v = [(a - f * b) % p for a, b in zip(v, row)]
        return v

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec: Sequence[int]) -> bool:
        """Insert a vector; True if it enlarged the span."""
        v = self.reduce(vec)
        pc = next((i for i, c in enumerate(v) if c), None)
        if pc is None:
            return False
        inv = pow(v[pc], self.p - 2, self.p)
        v = [(c * inv) % self.p for c in v]
        for i, (row, rp) in enumerate(zip(self.rows, self.pivots)):
            if row[pc]:
                f = row[pc]
                self.rows[i] = [(a - f * b) % self.p for a, b in zip(row, v)]
        at = next((i for i, rp in enumerate(self.pivots) if rp > pc), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, pc)
        return True

    def equals(self, other: "FpSpan") -> bool:
        return self.pivots == other.pivots and self.rows == other.rows


def span_walk(tower: FieldTower, gen_states: Sequence[Sequence[int]],
              start: Sequence[int]):
    """Yield start + every F_p-combination of the generator state vectors,
    one amortized vector add per step.

    States are vectors of element codes added entrywise.  The order is an
    odometer over the generator coordinates, the first generator's digit
    turning fastest.  The yielded list is a reused buffer; consumers must
    copy what they keep.
    """
    p = tower.p
    add = tower.add
    k = len(gen_states)
    width = len(start)
    cur = list(start)
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


def nullity_of_code_columns(tower: FieldTower, columns: Sequence[int]) -> int:
    """F_p-nullity of the square matrix whose columns are element codes.

    Column t is the digit vector of `columns[t]`; this is the matrix of an
    additive map taken in the ambient power basis.
    """
    p = tower.p
    if p == 2:
        # columns are already bit vectors; xor-basis elimination on ints
        piv: dict[int, int] = {}
        for col in columns:
            v = col
            while v:
                low = v & -v
                if low in piv:
                    v ^= piv[low]
                else:
                    piv[low] = v
                    break
        return len(columns) - len(piv)
    # row i = digits of column i: the rank of the transpose is the rank
    return len(columns) - _forward_rank([tower.digits(c) for c in columns], p)


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
