"""Dense exact linear algebra over F_p and over tower subfields.

All F_p elimination goes through one routine, `_echelon`, which streams
vectors into an echelon basis and drops every vector that reduces to zero,
so a dependent row costs one reduction and is never touched again.  The
row format is picked from p:

* p = 2: a row is a Python int, bit i entry i, and a row operation is one XOR;
* 3 <= p <= 13: a row is a Python int with one byte lane per entry, entry i
  in byte i (`gf.pack_lanes`), and a row operation is one integer
  multiply-add v + c * row, c in [0, p), and one `bytes.translate` mod p.
  No lane carries, since (p - 1) + (p - 1)^2 <= 156 < 256, which fails
  from p = 17 on;
* p >= 17: a row is a list of residues.

Reduced forms are built from that basis and are unique, so identical inputs
give identical outputs, in every format.  A null space is solved from the
columns of its matrix, each tagged with an identity entry, so that a column
reducing to zero is a basis vector as it stands (`nullspace_of_columns`).

`PackedMap` packs the columns of an F_p-linear map once, so that each
image is a few multiply-adds of whole packed rows.

`span_walk` is the one odometer over F_p-combinations of generator states,
in any format with an `add`: lists of element codes (`vector_add`) or the
words of `gram_word`, an n x n matrix over F_{q^2} with one byte per entry.

A byte entry is an index into F_{q^2}, 0 for zero and k + 1 for omega^k
(`q2_tables`), which fits a byte for every q <= 16.  Each index then has
a `bytes.translate` table for adding it and one for each multiple, so an
odometer step of the inner distribution is one table lookup per entry, and
`gram_rank` eliminates the n rows over F_{q^2} directly, where the F_p
nullity of the word's q^2-polynomial (`nullity_of_code_columns`) would
eliminate an m x m matrix, m = 2ne.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, NamedTuple, Sequence

from .gf import FieldTower, lane_mod_table, pack_lanes

# the primes whose rows are byte lanes: (p - 1) + (p - 1)^2 <= 255
_LANES = range(3, 14)


def _mod_lanes(x: int, width: int, p: int) -> int:
    """The `width` byte lanes of x, each reduced mod p."""
    return int.from_bytes(x.to_bytes(width, "little").translate(lane_mod_table(p)), "little")


@functools.cache
def _clearing(p: int) -> list:
    """c[g][f] = -f/g mod p: a row whose pivot entry is g, times c[g][f],
    clears the entry f at that pivot."""
    return [[(-f * pow(g, p - 2, p)) % p for f in range(p)] for g in range(p)]


def _echelon(vecs: Iterable, p: int, width: int, basis: dict | None = None,
             null: list | None = None, height: int | None = None) -> dict:
    """Stream rows of `width` entries into an echelon basis over F_p;
    returns the basis, extended in place when one is given.

    Each row is reduced at the pivot of its lowest nonzero entry, while
    the basis has a row there, and joins the basis when it has none.
    At p = 2 the basis maps the lowest set bit of each row to the row.  On
    byte lanes it maps each pivot column pc to (row, c), the row as it
    joined (zero left of pc) and c = `_clearing(p)` at its entry g at pc,
    so it is never normalised.  For residue lists, which are consumed, it
    maps pc to row[pc:] of a row that is 1 at pc, zero left of it and zero
    at the pivots of the rows before it (insertion order).

    Given a list `null`, entries from `height` on are never pivots: a row
    whose first `height` entries reduce to zero is appended to it as it is.
    """
    if basis is None:
        basis = {}
    if height is None:
        height = width
    if p == 2:
        for v in vecs:
            while v:
                low = v & -v
                if low in basis:
                    v ^= basis[low]
                elif low >> height:
                    null.append(v)
                    break
                else:
                    basis[low] = v
                    break
        return basis
    if p in _LANES:
        table, clearing = lane_mod_table(p), _clearing(p)
        for v in vecs:
            while v:
                shift = (v & -v).bit_length() - 1 & -8  # 8 * the lowest nonzero lane
                entry = basis.get(shift >> 3)
                if entry is None:
                    if shift >> 3 >= height:
                        null.append(v)
                    else:
                        basis[shift >> 3] = (v, clearing[v >> shift & 255])
                    break
                row, c = entry
                v = int.from_bytes((v + c[v >> shift & 255] * row)
                                   .to_bytes(width, "little").translate(table), "little")
        return basis
    for v in vecs:
        for pc, row in basis.items():
            f = v[pc]
            if f:
                v[pc:] = [(a - f * b) % p for a, b in zip(v[pc:], row)]
        for pc, f in enumerate(v):
            if f:
                if pc >= height:
                    null.append(v)
                else:
                    inv = pow(f, p - 2, p)
                    basis[pc] = [(a * inv) % p for a in v[pc:]]
                break
    return basis


def _pack(vec: Sequence[int], p: int):
    """A row in `_echelon`'s format for p."""
    if p == 2:
        return int("".join("1" if a & 1 else "0" for a in reversed(vec)) or "0", 2)
    if p in _LANES:
        return pack_lanes(a % p for a in vec)
    return [a % p for a in vec]


def rref_mod_p(rows: Sequence[Sequence[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p. Returns (nonzero rows, pivot cols)."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    basis = _echelon([_pack(r, p) for r in rows], p, ncols)
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
    if p in _LANES:
        # normalise each row to 1 at its pivot: c[g][1] = -1/g
        red = [_mod_lanes(row * (p - c[1]), ncols, p) for row, c in map(basis.get, keys)]
        for i in reversed(range(len(red))):
            shift = 8 * keys[i]
            for j in range(i):
                f = red[j] >> shift & 255
                if f:
                    red[j] = _mod_lanes(red[j] + (p - f) * red[i], ncols, p)
        return [list(r.to_bytes(ncols, "little")) for r in red], keys
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
    return len(_echelon([_pack(r, p) for r in rows], p, len(rows[0]) if rows else 0))


def nullspace_mod_p(rows: Sequence[Sequence[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of {v : M v = 0}: for each free column fc of the matrix with the
    given rows, ascending, the solution that is 1 at fc and 0 at the other
    free columns."""
    return nullspace_of_columns(list(zip(*rows)) if rows else [()] * ncols, len(rows), p)


def nullspace_of_columns(cols: Sequence[Sequence[int]], height: int, p: int,
                         shifted: Iterable[tuple[int, int]] | None = None) -> list[list[int]]:
    """`nullspace_mod_p` of the matrix with the given columns of `height`
    entries.  Given `shifted`, pairs (i, s), the matrix's columns are
    instead cols[i] moved s entries down, one per pair, in order; the last s
    entries of cols[i] must be zero.  Column j, tagged with a 1 at entry
    height + j, reduces to zero above its tags iff j is a free column, and
    its tags are then that basis vector: 1 at j and 0 at every other free
    column, since only pivot columns join the basis."""
    packed = [_pack(c, p) for c in cols]
    if shifted is not None:
        if p == 2:
            packed = [packed[i] << s for i, s in shifted]
        elif p in _LANES:
            packed = [packed[i] << 8 * s for i, s in shifted]
        else:
            packed = [[0] * s + packed[i][:height - s] for i, s in shifted]
    n = len(packed)
    if p == 2:
        tagged = (c | 1 << height + j for j, c in enumerate(packed))
    elif p in _LANES:
        tagged = (c | 1 << 8 * (height + j) for j, c in enumerate(packed))
    else:
        tagged = (c + [int(i == j) for i in range(n)] for j, c in enumerate(packed))
    null: list = []
    _echelon(tagged, p, height + n, null=null, height=height)
    return [_unpack(v, height, n, p) for v in null]


def residues_mod_span(rows: Sequence[Sequence[int]], vecs: Iterable[Sequence[int]],
                      ncols: int, p: int) -> list[list[int]]:
    """The coordinates of each vector modulo the row space, an F_p-linear map
    whose kernel is the row space: its entries at the free columns once the
    rows clear its pivot columns.  Pivot columns go first, so `_echelon`
    clears them first, and a 1 appended to each vector keeps it nonzero."""
    _, pivots = rref_mod_p(rows, p)
    order = pivots + [c for c in range(ncols) if c not in pivots]
    basis = _echelon([_pack([r[c] for c in order] + [0], p) for r in rows], p, ncols + 1)
    null: list = []
    _echelon((_pack([v[c] for c in order] + [1], p) for v in vecs), p, ncols + 1, basis,
             null, len(pivots))
    return [_unpack(v, len(pivots), ncols - len(pivots), p) for v in null]


def _unpack(row, start: int, n: int, p: int) -> list[int]:
    """Entries start .. start + n - 1 of a row of `_echelon`'s format."""
    if p == 2:
        return [row >> start + j & 1 for j in range(n)]
    if p in _LANES:
        return list((row >> 8 * start & (1 << 8 * n) - 1).to_bytes(n, "little"))
    return row[start:start + n]


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
        """True iff vec lies in the span; the span is left as it was."""
        dim = self.dim
        _echelon([_pack(vec, self.p)], self.p, self.ncols, self.basis)
        if self.dim == dim:
            return True
        self.basis.popitem()  # the probe, inserted last
        return False

    def add(self, vec: Sequence[int]) -> bool:
        """Insert a vector; True if it enlarged the span."""
        dim = self.dim
        _echelon([_pack(vec, self.p)], self.p, self.ncols, self.basis)
        return self.dim > dim

    def members(self) -> Iterable:
        """Every vector of the span once, as `row_key` gives it, p^dim in all."""
        p, width = self.p, self.ncols
        if p == 2:
            return span_walk(p, list(self.basis.values()), 0, int.__xor__)
        if p in _LANES:
            return span_walk(p, [row for row, _ in self.basis.values()], 0,
                             lambda a, b: _mod_lanes(a + b, width, p))
        rows = [[0] * pc + row for pc, row in self.basis.items()]
        return map(tuple, span_walk(p, rows, [0] * width,
                                    lambda a, b: [(x + y) % p for x, y in zip(a, b)]))


def row_key(vec: Sequence[int], p: int):
    """A vector over F_p as `FpSpan.members` yields it: hashable, and equal
    iff the vectors are equal mod p."""
    row = _pack(vec, p)
    return tuple(row) if isinstance(row, list) else row


class PackedMap:
    """An F_p-linear map whose images are `rows` vectors of `blocks` x
    `width` entries, given by its columns: column i holds, for each row r,
    the `width` entries cols[i][r].  `image(coeffs)` is the span of the rows
    whose block b is sum_i coeffs[b][i] * cols[i][r].

    Each column is packed once per block, all rows side by side in one row
    of `_echelon`'s format, so an image costs one multiply-add per nonzero
    coefficient (one XOR at p = 2).  Byte lanes are reduced mod p only when
    the next multiply-add could carry one past 255: after every 63 at p = 3,
    every one at p = 13.
    """

    def __init__(self, cols: Sequence[Sequence[Sequence[int]]], p: int, width: int,
                 blocks: int):
        self.p, self.stride = p, width * blocks
        self.rows = len(cols[0]) if cols else 0
        stride = self.stride
        packed = []
        for b in range(blocks):
            block = []
            for col in cols:
                vec = [0] * (self.rows * stride)
                for r, entries in enumerate(col):
                    vec[r * stride + b * width:r * stride + (b + 1) * width] = entries
                block.append(_pack(vec, p))
            packed.append(block)
        self._cols = packed
        self._limit = (255 - (p - 1)) // (p - 1) ** 2 if p in _LANES else 0

    def image(self, coeffs: Sequence[Sequence[int]]) -> FpSpan:
        """The span of the images of the rows under the coefficient blocks,
        one list of coefficients in [0, p) per block."""
        p, stride = self.p, self.stride
        size = self.rows * stride
        terms = [(c, col) for block, cs in zip(self._cols, coeffs)
                 for c, col in zip(cs, block) if c]
        if p == 2:
            acc = 0
            for _, col in terms:
                acc ^= col
            mask = (1 << stride) - 1
            rows = [acc >> r * stride & mask for r in range(self.rows)]
        elif p in _LANES:
            acc, limit = 0, self._limit
            for k, (c, col) in enumerate(terms):
                if k and not k % limit:
                    acc = _mod_lanes(acc, size, p)
                acc += c * col
            raw = acc.to_bytes(size, "little").translate(lane_mod_table(p))
            rows = [int.from_bytes(raw[r * stride:(r + 1) * stride], "little")
                    for r in range(self.rows)]
        else:
            acc = [0] * size
            for c, col in terms:
                acc = [a + c * x for a, x in zip(acc, col)]
            rows = [[a % p for a in acc[r * stride:(r + 1) * stride]]
                    for r in range(self.rows)]
        span = FpSpan(stride, p)
        _echelon(rows, p, stride, span.basis)
        return span


def span_walk(p: int, gen_states: Sequence, start, add: Callable):
    """Yield `start` plus every F_p-combination of the generator states,
    one amortized `add` per step.

    `add(state, gen)` returns the sum of a state and a generator in the
    caller's format: `vector_add` for lists of element codes, `gram_add` for
    the byte words of `gram_word` and generators as `gram_operand`s.  The
    order is an odometer over the generator coordinates, the first
    generator's digit turning fastest, so `start` comes first.
    """
    k = len(gen_states)
    cur = start
    yield cur
    digits = [0] * k
    for _ in range(p ** k - 1):
        i = 0
        while digits[i] == p - 1:
            digits[i] = 0
            cur = add(cur, gen_states[i])
            i += 1
        digits[i] += 1
        cur = add(cur, gen_states[i])
        yield cur


def line_walk(p: int, gen_states: Sequence, zero, add: Callable):
    """Yield the zero state, then one state from each F_p^*-line of the span:
    the combinations whose last nonzero generator coefficient is 1.

    For F_p-independent generators that is 1 + (p^k - 1)/(p - 1) states, and
    every nonzero combination is c times exactly one of them, c in F_p^*.
    Generator i leads p^i of them: `span_walk` over the first i generators,
    started from zero plus generator i, so a generator need only be a right
    operand of `add` (`gram_operand`), not a state.
    """
    yield zero
    for i, lead in enumerate(gen_states):
        yield from span_walk(p, gen_states[:i], add(zero, lead), add)


def vector_add(tower: FieldTower) -> Callable:
    """The entrywise sum of two lists of element codes."""
    add = tower.add
    return lambda a, b: list(map(add, a, b))


class Q2Tables(NamedTuple):
    """F_{q^2} arithmetic on byte indices, 0 for zero and k + 1 for omega^k
    (omega = `subfield_generator(2)`), as `bytes.translate` tables."""
    index: dict   # element code -> index
    add: list     # add[a]: b -> a + b
    clear: list   # clear[g][f], g != 0: b -> (-f/g) b


def q2_tables(tower: FieldTower) -> Q2Tables | None:
    """The `Q2Tables` of the tower, kept in tower.cache, or None when an
    index does not fit a byte (q^2 > 256)."""
    key = "q2_tables"
    if key not in tower.cache:
        tower.cache[key] = _q2_tables(tower) if tower.q ** 2 <= 256 else None
    return tower.cache[key]


def _q2_tables(tower: FieldTower) -> Q2Tables:
    """O(q^2) tower operations: the powers of omega and 1 + omega^k.  Every
    product table is a rotation of the nonzero indices, and a + b =
    a (1 + b/a) composes three tables."""
    size = tower.q ** 2 - 1
    omega = tower.subfield_generator(2)
    powers = [1]
    for _ in range(size - 1):
        powers.append(tower.mul(powers[-1], omega))
    index = {c: k + 1 for k, c in enumerate(powers)}
    index[0] = 0
    pad = bytes(255 - size)
    logs = bytes(range(1, size + 1))
    mul = [bytes(256)] + [b"\0" + logs[k:] + logs[:k] + pad for k in range(size)]
    one_plus = bytes([1] + [index[tower.add(1, c)] for c in powers]) + pad
    add = [bytes(range(256))] + [mul[-k % size + 1].translate(one_plus).translate(mul[k + 1])
                                 for k in range(size)]
    # -1 = omega^(size/2) at odd p, and -f/g has log (f - 1) - (g - 1) (+ size/2)
    half = size // 2 if tower.p != 2 else 0
    nonzero = mul[1:]
    clear = [None] + [[mul[0]] + nonzero[(half - k) % size:] + nonzero[:(half - k) % size]
                      for k in range(size)]
    return Q2Tables(index, add, clear)


def gram_word(tables: Q2Tables, rows: Sequence[Sequence[int]]) -> bytes:
    """An n x n matrix over F_{q^2}, given by element codes, as the byte
    indices of its entries, row-major: the word of `gram_add` and `gram_rank`."""
    return bytes(tables.index[c] for row in rows for c in row)


def gram_operand(tables: Q2Tables, word: bytes) -> tuple:
    """A word as the right operand of `gram_add`: the add table of each entry."""
    return tuple(map(tables.add.__getitem__, word))


def gram_add(word: bytes, operand: tuple) -> bytes:
    """The entrywise sum of a word and a `gram_operand`, one table lookup per
    entry."""
    return bytes(map(bytes.__getitem__, operand, word))


def gram_rank(tables: Q2Tables, word: bytes, n: int) -> int:
    """Rank over F_{q^2} of the n x n matrix of a `gram_word`.

    Like `_echelon` it streams the rows into an echelon basis: a row,
    stripped of its leading zeros, is cleared at its first entry f while the
    basis has a row there, with pivot entry g, by adding that row times
    -f/g (one `translate` and one lookup per entry), and joins the basis
    when it has none.  The basis maps the length of each row's tail to the
    tail and the clearing tables of its pivot.
    """
    at, add, clear = bytes.__getitem__, tables.add.__getitem__, tables.clear
    basis: dict = {}
    for i in range(0, n * n, n):
        tail = word[i:i + n].lstrip(b"\0")
        while tail:
            entry = basis.get(len(tail))
            if entry is None:
                basis[len(tail)] = (tail, clear[tail[0]])
                break
            row, c = entry
            tail = bytes(map(at, map(add, tail), row.translate(c[tail[0]]))).lstrip(b"\0")
    return len(basis)


def nullity_of_code_columns(tower: FieldTower, columns: Sequence[int]) -> int:
    """F_p-nullity of the square matrix whose columns are element codes.

    Column t is the digit vector of `columns[t]`; this is the matrix of an
    additive map taken in the ambient power basis.  Its rank is that of the
    transpose, whose rows are the digit vectors: at p = 2 the codes
    themselves.
    """
    p = tower.p
    vecs = columns if p == 2 else [_pack(tower.digits(c), p) for c in columns]
    return len(columns) - len(_echelon(vecs, p, tower.m))


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
