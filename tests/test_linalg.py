import itertools
import random

import pytest

from hermcodes import make_tower
from hermcodes.linalg import (nullspace_mod_p, rank_mod_p, rref_mod_p, solve_mod_p,
                             span_walk)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_span_walk_matches_product_enumeration(p, k):
    t = make_tower(p, 1, 2)
    rng = random.Random(10 * p + k)
    width = 3
    gens = [[rng.randrange(t.order) for _ in range(width)] for _ in range(k)]
    start = [rng.randrange(1, t.order) for _ in range(width)]
    walked = [tuple(state) for state in span_walk(t, gens, start)]
    # start + sum c_i g_i, with c_0 as the fastest-turning coordinate
    expected = []
    for rev in itertools.product(range(p), repeat=k):
        vec = list(start)
        for c, g in zip(reversed(rev), gens):
            for _ in range(c):
                vec = [t.add(a, b) for a, b in zip(vec, g)]
        expected.append(tuple(vec))
    assert len(walked) == p ** k
    assert set(walked) == set(expected)
    assert walked == expected


def test_mod_p_elimination_properties():
    # rank by forward elimination agrees with the full RREF, every nullspace
    # vector solves the system, and solve_mod_p's answer checks out
    rng = random.Random(4)
    for _ in range(400):
        p = rng.choice([2, 3, 5, 7])
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        dens = rng.random()
        rows = [[rng.randrange(-p, 2 * p) if rng.random() < dens else 0 for _ in range(nc)]
                for _ in range(nr)]
        red, pivots = rref_mod_p(rows, p)
        rank = rank_mod_p(rows, p)
        assert rank == len(red) == len(pivots)
        for r, pc in zip(red, pivots):
            assert all(0 <= v < p for v in r) and r[pc] == 1
            assert not any(r[:pc])
            assert all(other[pc] == 0 for other in red if other is not r)
        basis = nullspace_mod_p(rows, nc, p)
        assert len(basis) == nc - rank
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in rows)
        x = [rng.randrange(p) for _ in range(nc)]
        consistent = [sum(a * v for a, v in zip(row, x)) for row in rows]
        for rhs in (consistent, [rng.randrange(p) for _ in rows]):
            sol = solve_mod_p(rows, rhs, p)
            if sol is not None:
                assert all(sum(a * v for a, v in zip(row, sol)) % p == b % p
                           for row, b in zip(rows, rhs))
            else:
                assert rhs is not consistent
                assert rank_mod_p([row + [b] for row, b in zip(rows, rhs)], p) == rank + 1


@pytest.mark.parametrize("p, rows, rank", [
    (3, [[3, 6], [1, 2]], 1),                    # entries reduced mod p first
    (5, [[0, 0, 0]], 0),
    (2, [[1, 1], [1, 1], [0, 1]], 2),
])
def test_rank_mod_p_cases(p, rows, rank):
    assert rank_mod_p(rows, p) == rank == len(rref_mod_p(rows, p)[0])


@pytest.mark.parametrize("rows", [[], [[0, 0, 0, 0]], [[0, 0, 0, 0], [0, 0, 0, 0]]])
def test_nullspace_of_empty_or_zero_system_is_all_unit_vectors(rows):
    # callers solve "no constraints" with the same call as any other system
    for p in (2, 3):
        assert nullspace_mod_p(rows, 4, p) == [[int(i == j) for j in range(4)]
                                               for i in range(4)]
