import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermcodes import find_alpha, find_gamma, gf, make_tower
from hermcodes.gf import is_square


def test_default_towers_are_deterministic():
    a = make_tower(2, 1, 3)
    b = make_tower(2, 1, 3)
    assert a.modulus == b.modulus == (1, 1, 0, 0, 0, 0, 1)  # x^6 + x + 1
    assert a.generator == b.generator
    assert a == b


def test_towers_are_interned(monkeypatch):
    t = make_tower(3, 1, 3)
    same = make_tower(3, 1, 3, modulus=t.modulus)
    assert same is t and same.generator == t.generator
    assert make_tower(3, 1, 3, modulus=[c + 3 for c in t.modulus]) is t
    # explicit modulus first: the default call still finds the same object,
    # and the least primitive element of the default modulus is x
    monkeypatch.setattr(gf, "_TOWERS", {})
    explicit = make_tower(2, 1, 3, modulus=[1, 1, 0, 0, 0, 0, 1])
    assert make_tower(2, 1, 3) is explicit
    assert explicit.generator == 2  # the code of x


def test_tower_orders(tower_q2, tower_q3, tower_q5):
    assert (tower_q2.order, tower_q3.order, tower_q5.order) == (64, 729, 15625)
    assert tower_q2.q == 2 and tower_q3.q == 3


def test_rejects_non_prime_p():
    for p in (0, 1, 4, 9, 15):
        with pytest.raises(ValueError, match="not prime"):
            make_tower(p, 1, 3)


def test_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        make_tower(2, 1, 3, modulus=[1, 0, 0, 0, 0, 0, 1])  # x^6 + 1 = (x^3+1)^2


def _mobius(v):
    factors = gf._factorize(v)
    return 0 if any(e > 1 for e in factors.values()) else (-1) ** len(factors)


@pytest.mark.parametrize("p, top", [(2, 6), (3, 5), (5, 3)])
def test_irreducible_counts_match_gauss_formula(p, top):
    # (1/k) sum_{d | k} mu(d) p^(k/d) monic irreducibles of each degree k;
    # degree 1 counts every x + c
    for k in range(1, top + 1):
        found = sum(gf._is_irreducible(low + (1,), p)
                    for low in itertools.product(range(p), repeat=k))
        expected = sum(_mobius(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
        assert found == expected, (p, k)


def test_generator_is_primitive(tower_q2, tower_q3):
    for t in (tower_q2, tower_q3):
        # exhaustive multiplicative order, independent of the table build
        seen = set()
        cur = 1
        for _ in range(t.order - 1):
            cur = t.mul(cur, t.generator)
            seen.add(cur)
        assert len(seen) == t.order - 1


def test_field_axioms_exhaustive_q2(tower_q2):
    t = tower_q2
    for a in range(t.order):
        assert t.add(a, 0) == a
        assert t.mul(a, 1) == a
        assert t.add(a, t.neg(a)) == 0
        if a:
            assert t.mul(a, t.inv(a)) == 1
        # closure of the p-power map, a^{p^{2ne}} = a, by an explicit
        # squaring chain independent of the exponent-reduction shortcut
        cur = a
        for _ in range(6):
            cur = t.mul(cur, cur)
        assert cur == a


@pytest.mark.parametrize("fixture", ["tower_q2", "tower_q3"])
def test_subfield_cardinalities(fixture, request):
    t = request.getfixturevalue(fixture)
    for k in (1, 2, 3, 6):
        count = sum(1 for a in range(t.order) if t.in_subfield(a, k))
        assert count == t.q ** k
        assert len(t.subfield_elements(k)) == t.q ** k


def test_frobenius_fixes_prime_subfield(tower_q3):
    t = tower_q3
    for a in t.subfield_elements(1):
        for k in range(6):
            assert t.frobenius(a, k) == a


def test_frobenius_against_direct_exponentiation(tower_q2):
    t = tower_q2
    g = t.generator
    # direct repeated squaring: g^(2^6) = g
    cur = g
    for _ in range(6):
        cur = t.mul(cur, cur)
    assert cur == g
    assert t.frobenius(g, 6) == g
    for a in range(t.order):
        assert t.frobenius(a, 1) == t.mul(a, a)


@settings(max_examples=80, deadline=None)
@given(x=st.integers(0, 728), a=st.integers(0, 11), b=st.integers(0, 11))
def test_frobenius_composition_law(x, a, b):
    t = make_tower(3, 1, 3)
    assert t.frobenius(t.frobenius(x, a), b) == t.frobenius(x, a + b)


@settings(max_examples=80, deadline=None)
@given(x=st.integers(0, 728), y=st.integers(0, 728))
def test_frobenius_is_field_automorphism(x, y):
    t = make_tower(3, 1, 3)
    assert t.frobenius(t.add(x, y), 1) == t.add(t.frobenius(x, 1), t.frobenius(y, 1))
    assert t.frobenius(t.mul(x, y), 1) == t.mul(t.frobenius(x, 1), t.frobenius(y, 1))


def test_trace_additive_and_norm_multiplicative(tower_q2, tower_q3):
    t = tower_q2
    for a in range(t.order):
        for b in range(0, t.order, 7):
            assert t.rel_trace(t.add(a, b), 6, 2) == t.add(t.rel_trace(a, 6, 2),
                                                           t.rel_trace(b, 6, 2))
            assert t.rel_norm(t.mul(a, b), 6, 1) == t.mul(t.rel_norm(a, 6, 1),
                                                          t.rel_norm(b, 6, 1))
    rng = random.Random(5)
    t = tower_q3
    for _ in range(300):
        a, b = rng.randrange(t.order), rng.randrange(t.order)
        assert t.rel_trace(t.add(a, b), 6, 2) == t.add(t.rel_trace(a, 6, 2),
                                                       t.rel_trace(b, 6, 2))
        assert t.rel_norm(t.mul(a, b), 6, 1) == t.mul(t.rel_norm(a, 6, 1),
                                                      t.rel_norm(b, 6, 1))


def test_trace_and_norm_land_in_target_subfield(tower_q3):
    t = tower_q3
    for a in range(0, t.order, 11):
        assert t.in_subfield(t.rel_trace(a, 6, 2), 2)
        assert t.in_subfield(t.rel_trace(a, 6, 1), 1)
        assert t.in_subfield(t.rel_norm(a, 6, 3), 3)
    assert t.rel_trace(0, 6, 2) == 0
    assert t.rel_norm(1, 6, 1) == 1


def test_norm_against_conjugate_product_oracle(tower_q3):
    t = tower_q3
    rng = random.Random(9)
    for _ in range(100):
        a = rng.randrange(t.order)
        prod = 1
        for i in range(6):
            prod = t.mul(prod, t.frobenius(a, i))
        assert prod == t.rel_norm(a, 6, 1)


def test_rel_trace_degree_validation(tower_q3):
    with pytest.raises(ValueError):
        tower_q3.rel_trace(1, 6, 4)
    with pytest.raises(ValueError):
        tower_q3.rel_trace(1, 5, 1)


def test_subfield_bases(tower_q3):
    t = tower_q3
    for k in (1, 2, 3, 6):
        basis = t.basis_over_prime(k)
        assert len(basis) == k
        # F_p-independence via exhaustive span
        span = set()
        for coeffs in range(t.p ** k):
            v = 0
            c = coeffs
            for b in basis:
                c, r = divmod(c, t.p)
                for _ in range(r):
                    v = t.add(v, b)
            span.add(v)
        assert len(span) == t.p ** k
        assert all(t.in_subfield(b, k) for b in basis)


def test_find_gamma(tower_q3, tower_q2, tower_q5):
    g = find_gamma(tower_q3)
    # norm table oracle: 2 is the only non-square of F_3
    assert tower_q3.rel_norm(g, 6, 1) == 2
    assert not is_square(tower_q3, tower_q3.rel_norm(g, 6, 1))
    with pytest.raises(ValueError):
        find_gamma(tower_q2)
    g5 = find_gamma(tower_q5)
    assert not is_square(tower_q5, tower_q5.rel_norm(g5, 6, 1))


def test_find_alpha(tower_q3, tower_q2):
    a = find_alpha(tower_q3)
    minus_one = tower_q3.neg(1)
    assert tower_q3.pow(a, 2) == minus_one          # q - 1 = 2
    assert tower_q3.pow(a, 4) == 1                  # alpha^{2(q-1)} = 1
    # oracle: exhaustive search over the F_9 subfield finds such an element
    in_f9 = [x for x in tower_q3.subfield_elements(2)
             if x and tower_q3.pow(x, 2) == minus_one]
    assert in_f9, "a 4th root of unity exists in F_9"
    with pytest.raises(ValueError):
        find_alpha(tower_q2)


def test_square_classes(tower_q3):
    t = tower_q3
    squares = {t.mul(x, x) for x in t.subfield_elements(1)}
    for x in t.subfield_elements(1):
        assert is_square(t, x) == (x in squares)


def test_digit_round_trip(tower_q5):
    t = tower_q5
    rng = random.Random(2)
    for _ in range(50):
        a = rng.randrange(t.order)
        assert t.from_digits(t.digits(a)) == a


def _digits_of(a, p, m):
    out = []
    for _ in range(m):
        a, r = divmod(a, p)
        out.append(r)
    return tuple(out)


@pytest.mark.parametrize("args, modulus, generator", [
    ((2, 1, 3), None, 2),
    ((3, 1, 3), None, 3),
    ((5, 1, 3), None, 5),
    ((2, 2, 3), None, 2),
    ((2, 1, 3), [1, 0, 0, 0, 0, 1, 1], 2),      # x^6 + x^5 + 1: x primitive
    ((3, 1, 1), [1, 0, 1], 4),                  # x^2 + 1: x has order 4 of 8
    ((2, 1, 3), [1, 1, 1, 0, 1, 0, 1], 3),      # x has order 21 of 63
])
def test_tables_match_generic_walk(monkeypatch, args, modulus, generator):
    monkeypatch.setattr(gf, "_TOWERS", {})
    t = make_tower(*args, modulus=modulus)
    p, m, size = t.p, t.m, t.order - 1
    # powers of the expected generator by the schoolbook product
    gen = gf._ptrim(_digits_of(generator, p, m))
    exp, cur = [], (1,)
    for _ in range(size):
        exp.append(sum(c * p ** i for i, c in enumerate(cur)))
        cur = gf._pmulmod(cur, gen, t.modulus, p)
    assert cur == (1,) and len(set(exp)) == size
    log = [0] * t.order
    for i, a in enumerate(exp):
        log[a] = i
    assert t.generator == generator
    assert t._exp is None  # no work charged yet
    t._build_tables()
    assert t._exp == exp + exp
    assert t._log == log
    assert all(t.digits(a) == _digits_of(a, p, m) for a in range(t.order))


@pytest.mark.parametrize("p, modulus, generator", [
    (3, (1, 0, 1), (0, 1)),                     # x of order 4 of 8
    (2, (1, 1, 1, 0, 1, 0, 1), (0, 1)),         # x of order 21 of 63
    (3, (1, 0, 1), (2,)),                       # -1, by the generic walk
])
def test_non_primitive_generator_is_refused(p, modulus, generator):
    e, n = 1, (len(modulus) - 1) // 2
    with pytest.raises(AssertionError, match="generator order mismatch"):
        gf.FieldTower(p, e, n, modulus, generator)


def test_q9_tower_tables(monkeypatch):
    monkeypatch.setattr(gf, "_TOWERS", {})
    t = make_tower(3, 2, 3)
    size = t.order - 1
    assert t.generator == 3
    t._build_tables()
    assert all(t._log[t._exp[i]] == i for i in range(size))
    assert t._exp[size:] == t._exp[:size]
    rng = random.Random(11)
    for _ in range(200):
        a, b = rng.randrange(1, t.order), rng.randrange(1, t.order)
        prod = gf._pmulmod(t.digits(a), t.digits(b), t.modulus, t.p)
        assert t.mul(a, b) == t.from_digits(prod + (0,) * (t.m - len(prod)))


@pytest.mark.parametrize("args, modulus", [
    ((2, 1, 3), None), ((3, 1, 3), None), ((5, 1, 3), None),
    ((3, 2, 3), None), ((7, 1, 3), None),
    ((3, 1, 1), [1, 0, 1]),                     # x^2 + 1: generator is not x
    ((2, 1, 3), [1, 1, 1, 0, 1, 0, 1]),         # x^6 + x^4 + x^2 + x + 1: likewise
    ((13, 1, 2), None),                         # schoolbook: lanes would overflow
])
def test_table_free_route_matches_tables(monkeypatch, args, modulus):
    monkeypatch.setattr(gf, "_TOWERS", {})
    t = make_tower(*args, modulus=modulus)
    t._build_at = math.inf  # hold the table-free route for the first pass
    rng = random.Random(sum(args))
    count = 8 if t.order > 20000 else 25
    xs = [0, 1, t.order - 1] + [rng.randrange(1, t.order) for _ in range(count)]
    ks = [0, 1, 2, -1, -3, t.order - 2, t.order - 1, t.order, 3 * t.order + 5,
          rng.randrange(t.order)]
    frob = range(-2 * t.n, 2 * t.n + 1)

    def results():
        return ([t.mul(a, b) for a in xs for b in xs[:6]],
                [t.inv(a) for a in xs if a],
                [t.pow(a, k) for a in xs for k in ks if a or k >= 0],
                [t.frobenius(a, k) for a in xs for k in frob])

    table_free = results()
    assert t._exp is None
    t._build_tables()
    assert results() == table_free


def test_tables_are_built_once_the_charge_reaches_the_threshold(monkeypatch):
    monkeypatch.setattr(gf, "_TOWERS", {})
    t = make_tower(3, 1, 3)
    assert t._build_at == t.order // gf._BUILD_DIVISOR
    for _ in range(t._build_at - 1):
        assert t.mul(2, 4) == 8  # 2 * (1 + x) = 2 + 2x
    assert t._exp is None
    t.pow(3, 5)  # charges 2 * bit_length(5) = 6 more products
    assert t._exp is not None
    # above the table limit the tower never builds
    big = make_tower(3, 1, 7)
    assert big._build_at == math.inf
    big.mul(5, 7)
    assert big._exp is None


@pytest.mark.parametrize("args, modulus, lanes", [
    ((2, 1, 16), None, True),                   # m = 32
    ((3, 1, 10), None, True),                   # m = 20
    ((5, 2, 3), None, True),
    ((7, 1, 3), None, True),                    # m(p-1)^2 = 216, the byte boundary
    ((3, 1, 1), [1, 0, 1], True),               # m = 2: x^2 + 1 over F_3
    ((13, 1, 2), None, False),                  # wide lanes: the schoolbook
    ((7, 1, 4), None, False),
])
def test_lane_product_matches_schoolbook(args, modulus, lanes):
    t = make_tower(*args, modulus=modulus)
    p, m, ring = t.p, t.m, t._ring
    assert isinstance(ring, gf._LaneRing) == lanes
    assert isinstance(gf._poly_ring(t.modulus, p), gf._LaneRing) == lanes
    rng = random.Random(sum(args))
    top = t.order - 1  # every digit p - 1: the fullest lanes
    codes = [0, 1, top, top - 1] + [rng.randrange(t.order) for _ in range(60)]
    for a, b in zip(codes, codes[1:] + [top]):
        da, db = t.digits(a), t.digits(b)
        prod = gf._pmulmod(da, db, t.modulus, p)
        assert ring.unpack(ring.mul(ring.pack(da), ring.pack(db))) == prod
        assert t._from_ring(t._ring.mul(t._to_ring(a), t._to_ring(b))) == t._encode_poly(prod)
    for a, k in [(top, 2), (codes[4], 5), (codes[5], 0), (codes[6], 1), (codes[7], 37)]:
        cur = (1,)
        for _ in range(k):
            cur = gf._pmulmod(cur, t.digits(a), t.modulus, p)
        assert ring.unpack(ring.pow(ring.pack(t.digits(a)), k)) == cur


def _two_test_default_modulus(p, m):
    """The default-modulus search with a Rabin test before the order test."""
    for k in range(p ** m):
        cand = _digits_of(k, p, m) + (1,)
        if (cand[0] and gf._is_irreducible(cand, p)
                and gf._element_order_is(gf._poly_ring(cand, p), (0, 1), p ** m - 1)):
            return cand


@pytest.mark.parametrize("p, ms", [(2, range(6, 13)), (3, range(4, 13)),
                                   (5, range(2, 7)), (7, range(2, 7))])
def test_default_modulus_needs_no_irreducibility_test(monkeypatch, p, ms):
    expected = {m: _two_test_default_modulus(p, m) for m in ms}

    def refuse(mod, p):
        raise AssertionError("the default-modulus search ran a Rabin test")

    monkeypatch.setattr(gf, "_is_irreducible", refuse)
    assert {m: gf._default_modulus(p, m) for m in ms} == expected


def test_tower_serialization_round_trip(tower_q3):
    d = tower_q3.to_dict()
    t2 = make_tower(d["p"], d["e"], d["n"], d["modulus"])
    assert t2 == tower_q3


@pytest.mark.parametrize("args", [
    (3, 1, 1), (3, 1, 3), (5, 1, 3),            # one and two digit chunks
    (7, 1, 3), (3, 2, 3), (13, 1, 2),           # three and four chunks
    (3, 1, 7),                                  # above the exp/log table limit
])
def test_chunked_add_matches_digitwise(args):
    t = make_tower(*args)
    p, m = t.p, t.m
    rng = random.Random(sum(args))
    pairs = ([(a, b) for a in range(t.order) for b in range(t.order)] if t.order <= 81
             else [(rng.randrange(t.order), rng.randrange(t.order)) for _ in range(2000)])
    pairs += [(0, 0), (t.order - 1, t.order - 1), (0, t.order - 1)]
    for a, b in pairs:
        da, db = _digits_of(a, p, m), _digits_of(b, p, m)
        assert t.digits(a) == da and t.digits(b) == db
        assert t.add(a, b) == t.from_digits([x + y for x, y in zip(da, db)])
        assert t.sub(a, b) == t.from_digits([x - y for x, y in zip(da, db)])
        assert t.neg(b) == t.from_digits([-y for y in db])
