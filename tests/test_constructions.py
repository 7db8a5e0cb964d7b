import random

import pytest

from hermcodes import (ConstructionParams, ParameterError, build, build_E,
                       build_H, build_Htilde, build_Htilde_dual, build_M,
                       dual_code, find_gamma, inner_distribution,
                       is_hermitian, make_tower)
from hermcodes.gf import FieldTower, is_square
from hermcodes.linpoly import QPoly, gq_verify


ALL_INSTANCES = [
    ("H", 2, dict(d=2, s=1), 2 ** 6, 2),
    ("H", 3, dict(d=2, s=1), 3 ** 6, 2),
    ("E", 2, dict(d=3, s=1), 2 ** 3, 3),
    ("E", 3, dict(d=3, s=1), 3 ** 3, 3),
    ("M", 2, dict(), 2 ** 6, 2),
    ("M", 3, dict(), 3 ** 6, 2),
    ("Htilde", 3, dict(s=1), 3 ** 6, 2),
    ("Htilde", 5, dict(s=1), 5 ** 6, 2),
]


def build_instance(family, q, kwargs, tower=None):
    t = tower or make_tower(q if q in (2, 3, 5) else q, 1, 3)
    if family == "H":
        return build_H(t, **kwargs)
    if family == "E":
        return build_E(t, **kwargs)
    if family == "M":
        return build_M(t)
    return build_Htilde(t, **kwargs)


@pytest.fixture(scope="module")
def towers():
    return {2: make_tower(2, 1, 3), 3: make_tower(3, 1, 3), 5: make_tower(5, 1, 3)}


@pytest.mark.parametrize("family,q,kwargs,size,d", ALL_INSTANCES)
def test_bound_saturation(family, q, kwargs, size, d, towers):
    code = build_instance(family, q, kwargs, towers[q])
    assert code.size == size == q ** (3 * (3 - d + 1))
    assert code.declared_d == d


@pytest.mark.parametrize("family,q,kwargs,size,d", ALL_INSTANCES)
def test_minimum_rank_equals_declared_d(family, q, kwargs, size, d, towers):
    code = build_instance(family, q, kwargs, towers[q])
    hist = inner_distribution(code)
    assert all(hist[i] == 0 for i in range(1, d))
    assert hist[d] > 0


@pytest.mark.parametrize("family,q,kwargs,size,d", ALL_INSTANCES)
def test_every_generator_is_hermitian(family, q, kwargs, size, d, towers):
    code = build_instance(family, q, kwargs, towers[q])
    assert all(is_hermitian(g) for g in code.generators)


def test_H_generator_count(towers):
    # one parameter slot over F_{q^2n} gives 2n F_q-dimensions
    code = build_H(towers[2], 2, 1)
    assert code.dim == 6 and code.size == 64


def test_M_generators_are_the_off_diagonal_matrix_basis():
    # the order of the generators fixes the `construct --family M` output
    for t in (make_tower(2, 1, 3), make_tower(3, 1, 3), make_tower(2, 2, 3)):
        n = t.n
        expected = []
        for j in range(n):
            for k in range(j + 1, n):
                for beta in t.basis_over_prime(2):
                    rows = [[0] * n for _ in range(n)]
                    rows[j][k] = beta
                    rows[k][j] = t.frobenius(beta, 1)
                    expected.append(tuple(map(tuple, rows)))
        assert [m.rows for m in build_M(t).matrix_generators] == expected


def test_H_parameter_validation(towers):
    t4 = make_tower(2, 1, 4)
    with pytest.raises(ParameterError):
        build_H(t4, 2, 2)          # even s
    with pytest.raises(ParameterError):
        build_H(towers[3], 2, 3)   # gcd(s, n) != 1
    with pytest.raises(ParameterError):
        build_H(towers[3], 3, 1)   # same parity
    with pytest.raises(ParameterError):
        build_H(towers[3], 0, 1)


def test_E_parameter_validation(towers):
    with pytest.raises(ParameterError):
        build_E(towers[3], 2, 1)   # even d
    with pytest.raises(ParameterError):
        build_E(make_tower(2, 1, 4), 3, 1)  # even n


def test_s_outside_residue_one_leaves_the_space(towers):
    # for s = -1 mod 2n the printed coefficient pairing no longer aligns with
    # the membership pairing; the builder must refuse rather than emit a
    # non-Hermitian "Hermitian code"
    with pytest.raises(ParameterError):
        build_H(towers[3], 2, 5)
    with pytest.raises(ParameterError):
        build_Htilde(towers[3], 5)
    # s = 7 = 1 mod 6 is the same construction as s = 1
    c1 = build_Htilde(towers[3], 1)
    c7 = build_Htilde(towers[3], 7)
    assert all(c1.contains(g) for g in c7.generators)


def test_htilde_parameter_validation(towers):
    with pytest.raises(ParameterError):
        build_Htilde(towers[2], 1)          # q even
    with pytest.raises(ParameterError):
        build_Htilde(towers[3], 3)          # gcd(s, 2n) != 1
    # gamma with square norm is rejected
    t = towers[3]
    g2 = t.mul(find_gamma(t), find_gamma(t))
    assert is_square(t, t.rel_norm(g2, 6, 1))
    with pytest.raises(ParameterError):
        build_Htilde(t, 1, gamma=g2)


def test_htilde_shape_at_n3(towers):
    # the reduced form at n=3 is (a gamma)^{q^5} x + a gamma x^{q^2} + b x^{q^4}
    t = towers[3]
    gamma = find_gamma(t)
    code = build_Htilde(t, 1)
    for f in code.iter_span():
        c0, c1, c2 = f.coeffs
        assert c0 == t.frobenius(c1, 5)
        assert t.in_subfield(c2, 3)
        if c1:
            assert t.in_subfield(t.mul(c1, t.inv(gamma)), 3)


def test_htilde_dual_closed_form(towers):
    t = towers[3]
    code = build_Htilde(t, 1)
    dual_closed = build_Htilde_dual(t, 1)
    assert dual_closed.size == 27
    computed = dual_code(code)
    assert computed.size == dual_closed.size
    assert {f.coeffs for f in computed.iter_span()} == \
           {f.coeffs for f in dual_closed.iter_span()}
    hist = inner_distribution(dual_closed)
    assert hist == (1, 0, 0, 26)  # every nonzero member invertible


@pytest.mark.parametrize("q, n", [(3, 5), (5, 5), (3, 7), (7, 3)])
def test_htilde_dual_closed_form_at_wider_n(q, n):
    # the paper's closed-form dual is the annihilator that dual_code solves for
    t = make_tower(q, 1, n)
    computed = dual_code(build_Htilde(t, 1))
    closed = build_Htilde_dual(t, 1)
    assert computed.size == closed.size == q ** n
    assert all(computed.contains(f) for f in closed.generators)


def test_htilde_dual_alpha_validation(towers):
    t = towers[3]
    with pytest.raises(ParameterError):
        build_Htilde_dual(t, 1, alpha=1)    # 1^{q-1} = 1 != -1


def test_dual_of_H_has_min_rank_n_minus_d_plus_1(towers):
    # the (n-d+1)-code structure of the dual underlying the design theorem
    for q in (2, 3):
        d = dual_code(build_H(towers[q], 2, 1))
        hist = inner_distribution(d)
        assert all(hist[i] == 0 for i in range(1, 2)) and hist[2] == 0
        assert hist[3] == towers[q].q ** 3 - 1


def test_lemma_kernel_bound_for_gamma_trailing_shape(towers):
    """Polynomials a x + (middle) + gamma b x^{q^k} with a, b in F_{q^n} have
    kernel dimension at most k-1 over F_q: 1000 random samples."""
    t = towers[3]
    gamma = find_gamma(t)
    fqn = t.subfield_elements(3)
    rng = random.Random(101)
    for _ in range(1000):
        k = rng.randrange(1, 6)
        coeffs = [0] * 6
        coeffs[0] = rng.choice(fqn)
        for i in range(1, k):
            coeffs[i] = rng.randrange(t.order)
        coeffs[k] = t.mul(gamma, rng.choice(fqn))
        f = QPoly(t, coeffs)
        if f.is_zero():
            continue
        assert f.kernel_dim_fq() <= k - 1


def test_gq_norm_condition_on_random_window_polys(towers):
    # when the kernel bound is attained the end-coefficient norm relation holds
    t = towers[3]
    rng = random.Random(55)
    attained = 0
    for _ in range(1000):
        k = rng.randrange(1, 6)
        coeffs = [0] * 6
        for i in range(k + 1):
            coeffs[i] = rng.randrange(t.order)
        f = QPoly(t, coeffs)
        if f.is_zero():
            continue
        rep = gq_verify(f, 1, k)
        assert rep.bound_ok
        if rep.kernel_dim == k:
            attained += 1
            assert rep.norm_ok is True
    assert attained > 0


def test_params_dispatch():
    code = build(ConstructionParams(family="Htilde", q=3, n=3, s=1))
    assert code.size == 729
    with pytest.raises(ParameterError):
        build(ConstructionParams(family="H", q=3, n=3))     # missing d, s
    with pytest.raises(ParameterError):
        build(ConstructionParams(family="X", q=3, n=3))
    with pytest.raises(ParameterError):
        build(ConstructionParams(family="M", q=6, n=3))     # not a prime power


def test_build_never_lists_an_extension_field(monkeypatch):
    # the linearity spot-check draws F_p-combinations of a basis; listing
    # F_{q^14} for Htilde(n=7) at q=3 would take 4.8M table-free products
    listed = []
    subfield_elements = FieldTower.subfield_elements
    monkeypatch.setattr(FieldTower, "subfield_elements",
                        lambda self, k: listed.append(k) or subfield_elements(self, k))
    code = build(ConstructionParams(family="Htilde", q=3, n=7, s=1))
    assert code.size == 3 ** 42
    for family, q, kwargs, size, _ in ALL_INSTANCES:
        assert build(ConstructionParams(family=family, q=q, n=3, **kwargs)).size == size
    assert all(k <= 1 for k in listed), listed


def test_gamma_override_by_power(towers):
    t = towers[3]
    code = build(ConstructionParams(family="Htilde", q=3, n=3, s=1, gamma_power=1))
    assert code.size == 729
