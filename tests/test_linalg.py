import functools
import itertools
import random

import pytest

from hermcodes import make_tower
from hermcodes.linalg import (FpSpan, PackedMap, gram_rank, gram_word, line_walk,
                             nullity_of_code_columns, nullspace_mod_p, nullspace_of_columns,
                             q2_tables, rank_mod_p, rank_subfield_matrix, residues_mod_span,
                             span_walk, vector_add)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_span_walk_matches_product_enumeration(p, k):
    t = make_tower(p, 1, 2)
    rng = random.Random(10 * p + k)
    width = 3
    gens = [[rng.randrange(t.order) for _ in range(width)] for _ in range(k)]
    walked = [tuple(state) for state in span_walk(p, gens, [0] * width, vector_add(t))]
    # sum c_i g_i, with c_0 as the fastest-turning coordinate
    expected = []
    for rev in itertools.product(range(p), repeat=k):
        vec = [0] * width
        for c, g in zip(reversed(rev), gens):
            for _ in range(c):
                vec = [t.add(a, b) for a, b in zip(vec, g)]
        expected.append(tuple(vec))
    assert len(walked) == p ** k
    assert set(walked) == set(expected)
    assert walked == expected


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_line_walk_yields_one_state_per_line(p, k):
    t = make_tower(p, 1, 2)
    rng = random.Random(100 * p + k)
    width = 3
    while True:  # F_p-independent generators: p^k distinct combinations
        gens = [[rng.randrange(t.order) for _ in range(width)] for _ in range(k)]
        full = {tuple(state) for state in span_walk(p, gens, [0] * width, vector_add(t))}
        if len(full) == p ** k:
            break
    walked = [tuple(state) for state in line_walk(p, gens, [0] * width, vector_add(t))]
    assert len(walked) == 1 + (p ** k - 1) // (p - 1)
    assert walked[0] == (0,) * width

    def scaled(vec, c):
        out = [0] * width
        for _ in range(c):
            out = [t.add(a, b) for a, b in zip(out, vec)]
        return tuple(out)

    lines = [{scaled(vec, c) for c in range(1, p)} for vec in walked[1:]]
    assert all(len(line) == p - 1 for line in lines)
    assert sum(len(line) for line in lines) == len(set().union(*lines))
    assert {walked[0]}.union(*lines) == full
    if p == 2:
        assert set(walked) == full


def test_mod_p_elimination_properties():
    # rank plus nullity is the width, and every nullspace vector solves the system
    rng = random.Random(4)
    for _ in range(400):
        p = rng.choice([2, 3, 5, 7])
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        dens = rng.random()
        rows = [[rng.randrange(-p, 2 * p) if rng.random() < dens else 0 for _ in range(nc)]
                for _ in range(nr)]
        rank = rank_mod_p(rows, p)
        basis = nullspace_mod_p(rows, nc, p)
        assert len(basis) == nc - rank
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in rows)


@pytest.mark.parametrize("p, rows, rank", [
    (3, [[3, 6], [1, 2]], 1),                    # entries reduced mod p first
    (5, [[0, 0, 0]], 0),
    (2, [[1, 1], [1, 1], [0, 1]], 2),
])
def test_rank_mod_p_cases(p, rows, rank):
    assert rank_mod_p(rows, p) == rank


@pytest.mark.parametrize("rows", [[], [[0, 0, 0, 0]], [[0, 0, 0, 0], [0, 0, 0, 0]]])
def test_nullspace_of_empty_or_zero_system_is_all_unit_vectors(rows):
    # callers solve "no constraints" with the same call as any other system
    for p in (2, 3):
        assert nullspace_mod_p(rows, 4, p) == [[int(i == j) for j in range(4)]
                                               for i in range(4)]


# -- oracle: a column sweep kept apart from the streaming routine -------------------


def _oracle_rref(rows, p):
    """RREF by a column sweep: pick the first row at or below the current
    one with a nonzero entry in the column, swap it up, scale it and clear
    the column in every other row; the pivot row is zero left of the
    column, so only the columns from it on change."""
    mat = [[v % p for v in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
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


def _oracle_nullspace(rows, ncols, p):
    red, pivots = _oracle_rref(rows, p)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc] % p
        basis.append(v)
    return basis


def _seeded_system(rng, p, nr, nc, rank):
    """nr x nc rows of the given rank at most (combinations of `rank` random
    rows), with entries spread over [-p, 2p) so that reduction mod p shows."""
    base = [[rng.randrange(p) for _ in range(nc)] for _ in range(rank)]
    rows = []
    for _ in range(nr):
        cs = [rng.randrange(p) for _ in base]
        rows.append([sum(c * b[j] for c, b in zip(cs, base)) % p + p * rng.randrange(-1, 2)
                     for j in range(nc)])
    return rows


def _systems(p):
    rng = random.Random(100 + p)
    out = [[], [[0] * 5], [[0] * 3] * 4, [[]] * 2,
           [[rng.randrange(-p, 2 * p) for _ in range(9)] for _ in range(9)]]
    out.append(_seeded_system(rng, p, 400, 48, 47))                    # tall
    out += [_seeded_system(rng, p, 6, 40, r) for r in (6, 3)]          # wide
    out += [_seeded_system(rng, p, rng.randint(1, 20), rng.randint(1, 20),
                           rng.randint(0, 12)) for _ in range(40)]      # rank-deficient
    return out


# 2 <= p <= 13 runs on byte lanes (p = 2 with XOR row operations, 11 and 13
# at the top of the lane bound), p = 17 on residue lists
ROW_FORMAT_PRIMES = [2, 3, 5, 7, 11, 13, 17]


@pytest.mark.parametrize("p", ROW_FORMAT_PRIMES)
def test_elimination_matches_column_sweep_oracle(p):
    for rows in _systems(p):
        nc = len(rows[0]) if rows else 4
        assert rank_mod_p(rows, p) == len(_oracle_rref(rows, p)[0])
        assert nullspace_mod_p(rows, nc, p) == _oracle_nullspace(rows, nc, p)


def _shaped_systems(p):
    """Tall, wide, square and degenerate systems, as (rows, ncols)."""
    rng = random.Random(300 + p)
    out = [(rows, len(rows[0]) if rows else 4) for rows in _systems(p)]
    out.append((_seeded_system(rng, p, 30, 12, 12), 12))                 # full column rank
    out.append(([[rng.randrange(-p, 2 * p)] for _ in range(5)], 1))      # one column
    out.append(([[0]] * 3, 1))
    out.append(([[0] * 8] * 20, 8))                                       # all zero, tall
    out += [(_seeded_system(rng, p, nr, nc, rng.randint(0, min(nr, nc))), nc)
            for nr, nc in ((12, 12), (30, 7), (7, 30), (64, 16))]         # square, tall, wide
    return out


@pytest.mark.parametrize("p", ROW_FORMAT_PRIMES)
def test_nullspace_rows_and_columns_match_oracle(p):
    # on tall, wide and square systems the row and column entries give the
    # column sweep's basis, which is the reduced one: ascending free columns,
    # each vector 1 at its own and 0 at the others
    shapes = set()
    for rows, nc in _shaped_systems(p):
        expected = _oracle_nullspace(rows, nc, p)
        cols = [list(col) for col in zip(*rows)] if rows else [[]] * nc
        assert nullspace_mod_p(rows, nc, p) == expected
        assert nullspace_of_columns(cols, len(rows), p) == expected
        shapes.add((len(rows) > nc) - (len(rows) < nc))
        free = [max(j for j in range(nc) if v[j]) for v in expected]
        assert free == sorted(set(free))
        assert len(free) == nc - rank_mod_p(rows, p) if rows else len(free) == nc
        for v, fc in zip(expected, free):
            assert [v[j] for j in free] == [int(j == fc) for j in free]
            assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in rows)
    assert shapes == {-1, 0, 1}


@pytest.mark.parametrize("p", ROW_FORMAT_PRIMES)
def test_shifted_columns_are_the_columns_they_name(p):
    # each pair (i, s) is column i moved s entries down, its last s dropped
    rng = random.Random(500 + p)
    for rows, nc in _shaped_systems(p):
        h = len(rows)
        tails = [rng.randint(0, h) for _ in range(nc)]
        cols = [list(c[:h - t]) + [0] * t
                for c, t in zip(zip(*rows) if rows else [()] * nc, tails)]
        picks = rng.choices(range(nc), k=nc + 2) if nc else []
        shifted = [(i, rng.randint(0, tails[i])) for i in picks]
        moved = [[0] * s + cols[i][:h - s] for i, s in shifted]
        expected = _oracle_nullspace([list(r) for r in zip(*moved)], len(moved), p)
        assert nullspace_of_columns(cols, h, p, shifted) == expected
        assert nullspace_of_columns(moved, h, p) == expected


@pytest.mark.parametrize("p", ROW_FORMAT_PRIMES)
def test_residues_mod_span_are_coordinates_modulo_the_row_space(p):
    rng = random.Random(400 + p)
    for rows in [[], [[0] * 6]] + [_seeded_system(rng, p, rng.randint(1, 8), 10,
                                                  rng.randint(0, 8)) for _ in range(20)]:
        nc = len(rows[0]) if rows else 6
        red, pivots = _oracle_rref(rows, p)
        free = [c for c in range(nc) if c not in pivots]
        vecs = [[rng.randrange(-p, 2 * p) for _ in range(nc)] for _ in range(6)]
        # a combination of the rows plus a vector has the vector's residues
        vecs += [[(sum(c * r[j] for c, r in zip(cs, rows)) + v[j]) for j in range(nc)]
                 for cs, v in ((
                     [rng.randrange(p) for _ in rows], vecs[k]) for k in range(3))]
        expected = [[(v[f] - sum(v[pc] * r[f] for r, pc in zip(red, pivots))) % p for f in free]
                    for v in vecs]
        got = residues_mod_span(rows, vecs, nc, p)
        assert got == expected
        assert got[6:] == got[:3]
        assert residues_mod_span(rows, rows, nc, p) == [[0] * len(free)] * len(rows)


@pytest.mark.parametrize("p", ROW_FORMAT_PRIMES)
def test_fp_span_matches_oracle_ranks(p):
    rng = random.Random(20 + p)
    for rows in _systems(p)[4:]:
        nc = len(rows[0])
        span = FpSpan(nc, p)
        # the oracle checks every step on short systems, the end on the tall one
        steps = len(rows) <= 40
        for k, vec in enumerate(rows):
            added = span.add(vec)
            assert span.contains(vec)
            if steps:
                rank = len(_oracle_rref(rows[:k], p)[0])
                assert added == (len(_oracle_rref(rows[:k + 1], p)[0]) > rank)
                probe = [rng.randrange(-p, 2 * p) for _ in range(nc)]
                grows = len(_oracle_rref(rows[:k + 1] + [probe], p)[0]) > span.dim
                assert span.contains(probe) != grows
                assert span.dim == rank + added
        assert span.dim == len(_oracle_rref(rows, p)[0])


@pytest.mark.parametrize("p", ROW_FORMAT_PRIMES)
def test_packed_map_images_match_their_combinations(p):
    # block b of row r is sum_i coeffs[b][i] * cols[i][r]; the all-(p-1) case
    # pushes every lane as far as it goes, past 255 unless it is reduced in
    # time, and 300 columns pass every prime's reduction interval (254 at p = 2)
    rng = random.Random(700 + p)
    cases = [(0, 2, 1, 3), (1, 2, 1, 1), (3, 2, 2, 40), (2, 4, 3, 5), (3, 1, 1, 70),
             (2, 1, 1, 300)]
    for rows, width, blocks, ncols in cases:
        for fill in ("random", "top"):
            if fill == "top":
                cols = [[[p - 1] * width for _ in range(rows)] for _ in range(ncols)]
                coeffs = [[p - 1] * ncols for _ in range(blocks)]
            else:
                cols = [[[rng.randrange(p) for _ in range(width)] for _ in range(rows)]
                        for _ in range(ncols)]
                coeffs = [[rng.randrange(p) for _ in range(ncols)] for _ in range(blocks)]
            images = [[sum(c * col[r][j] for c, col in zip(cs, cols)) % p
                       for cs in coeffs for j in range(width)] for r in range(rows)]
            span = PackedMap(cols, p, width, blocks).image(coeffs)
            assert span.dim == (rank_mod_p(images, p) if rows else 0)
            assert all(span.contains(v) for v in images)


@pytest.mark.parametrize("p, e, n", [(2, 1, 3), (2, 2, 3), (3, 1, 3), (3, 2, 3), (5, 1, 3),
                                     (11, 1, 2), (13, 1, 2), (17, 1, 2)])
def test_nullity_matches_oracle_rank_of_digit_matrix(p, e, n):
    t = make_tower(p, e, n)
    rng = random.Random(10 * p + e)
    for _ in range(60):
        cols = [rng.randrange(t.order) for _ in range(t.m)]
        # make some words singular: zero columns and sums of other columns
        for _ in range(rng.randrange(4)):
            i, j, k = (rng.randrange(t.m) for _ in range(3))
            cols[k] = 0 if rng.random() < 0.3 else t.add(cols[i], cols[j])
        digit_matrix = [[t.digits(c)[r] for c in cols] for r in range(t.m)]
        assert nullity_of_code_columns(t, cols) == t.m - len(_oracle_rref(digit_matrix, p)[0])


# every field F_q with q <= 16, the fields of the Gram route: (p, e)
Q2_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


@pytest.mark.parametrize("p, e", Q2_FIELDS)
def test_q2_tables_match_the_tower(p, e):
    t = make_tower(p, e, 2)
    tables = q2_tables(t)
    assert q2_tables(t) is tables  # kept in tower.cache
    elems = t.subfield_elements(2)
    assert sorted(tables.index) == elems
    assert sorted(tables.index.values()) == list(range(len(elems)))
    assert tables.index[0] == 0 and tables.index[1] == 1
    assert tables.index[t.subfield_generator(2)] == 2
    rng = random.Random(50 * p + e)
    for _ in range(300):
        a, b, f = (rng.choice(elems) for _ in range(3))
        g = rng.choice(elems[1:])
        idx = tables.index
        assert tables.add[idx[a]][idx[b]] == idx[t.add(a, b)]
        assert tables.clear[idx[g]][idx[f]][idx[b]] == idx[t.mul(t.neg(t.mul(f, t.inv(g))), b)]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p, e", Q2_FIELDS)
def test_gram_rank_matches_tower_elimination_at_every_rank(p, e, n):
    # products of n x r and r x n matrices, kept once the oracle gives rank
    # r, so every rank 0..n is met; plus a few unconstrained matrices
    t = make_tower(p, e, n)
    tables = q2_tables(t)
    elems = t.subfield_elements(2)
    rng = random.Random(1000 * p + 10 * e + n)

    def product(r):
        a = [[rng.choice(elems) for _ in range(r)] for _ in range(n)]
        b = [[rng.choice(elems) for _ in range(n)] for _ in range(r)]
        return [[functools.reduce(t.add, (t.mul(a[i][k], b[k][j]) for k in range(r)), 0)
                 for j in range(n)] for i in range(n)]

    for r in range(n + 1):
        met = 0
        for _ in range(200):
            rows = product(r)
            oracle = rank_subfield_matrix(t, rows)
            assert gram_rank(tables, gram_word(tables, rows), n) == oracle
            met += oracle == r
            if met == 3:
                break
        assert met == 3, r
    for _ in range(10):
        rows = [[rng.choice(elems) for _ in range(n)] for _ in range(n)]
        assert gram_rank(tables, gram_word(tables, rows), n) == rank_subfield_matrix(t, rows)
