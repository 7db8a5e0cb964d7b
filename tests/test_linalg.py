import itertools
import random

import pytest

from hermcodes import make_tower
from hermcodes.linalg import span_walk


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
