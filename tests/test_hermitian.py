import json
import random

import pytest

from hermcodes import (HermCode, LinPoly, bilinear_b, code_from_dict,
                       code_from_matrix_set, code_to_dict, dual_code,
                       from_free_coeffs, full_space, gram_matrix,
                       hermitian_basis, is_hermitian,
                       matrix_code_rank_distribution, poly_from_gram,
                       trace_poly)
from hermcodes.hermitian import (HermMatrix, hermitian_matrix_basis, index_pairs,
                                 matrix_span)
from hermcodes.linalg import rank_mod_p


def build_H321(tower):
    gens = [from_free_coeffs(tower, {0: b}) for b in tower.ambient_basis()]
    return HermCode(tower, gens, label="H(3,2,1)", declared_d=2)


def test_index_pairs():
    assert index_pairs(3) == ([(0, 1)], [2])
    assert index_pairs(2) == ([(0, 1)], [])
    assert index_pairs(5) == ([(0, 1), (2, 4)], [3])


def test_membership_basics(tower_q2):
    t = tower_q2
    assert is_hermitian(LinPoly.zero(t))
    # c0 x + c0^q x^{q^2} + c2 x^{q^4} with c2 in F_{q^3}
    c0 = 37
    c2 = t.subfield_elements(3)[5]
    f = LinPoly(t, (c0, t.frobenius(c0, 1), c2))
    assert is_hermitian(f)
    # a lone x^{q^2} is not Hermitian: its partner coefficient must be nonzero
    assert not is_hermitian(LinPoly.monomial(t, 1, 1))


def test_from_free_coeffs_example(tower_q2):
    f = from_free_coeffs(tower_q2, {0: 1})
    assert f.coeffs == (1, 1, 0)  # x + x^{q^2}


def test_from_free_coeffs_validation(tower_q2):
    t = tower_q2
    with pytest.raises(ValueError):
        from_free_coeffs(t, {1: 1})            # 1 is a partner, not a representative
    bad = t.generator                           # not in F_{q^3}
    assert not t.in_subfield(bad, 3)
    with pytest.raises(ValueError):
        from_free_coeffs(t, {2: bad})
    assert from_free_coeffs(t, {}).is_zero()


@pytest.mark.parametrize("fixture,n", [("tower_q2_n2", 2), ("tower_q2", 3), ("tower_q3", 3)])
def test_space_size_is_q_to_n_squared(fixture, n, request):
    t = request.getfixturevalue(fixture)
    space = full_space(t)
    assert space.size == t.q ** (n * n)
    count = 0
    for f in space.iter_span():
        assert is_hermitian(f)
        count += 1
    assert count == t.q ** (n * n)


def test_closed_under_fq_but_not_fq2_scalars(tower_q2):
    t = tower_q2
    h = from_free_coeffs(t, {0: 1})
    assert is_hermitian(h + h)
    lam = t.subfield_generator(2)
    assert not t.in_subfield(lam, 1)
    assert not is_hermitian(h.scale(lam))  # witness for q=2, n=3


def test_bilinear_form_symmetric_fq_valued(tower_q3):
    t = tower_q3
    rng = random.Random(0)
    basis = hermitian_basis(t)
    for _ in range(150):
        f = basis[rng.randrange(len(basis))]
        g = basis[rng.randrange(len(basis))]
        v = bilinear_b(f, g)
        assert v == bilinear_b(g, f)
        assert t.in_subfield(v, 1)
    assert bilinear_b(basis[0], LinPoly.zero(t)) == 0


def test_form_nondegenerate_on_full_space(tower_q2, tower_q2_n2):
    # only the zero polynomial pairs to zero with everything
    for t in (tower_q2, tower_q2_n2):
        assert dual_code(full_space(t)).size == 1


def test_dual_of_trivial_code_is_full_space(tower_q2):
    t = tower_q2
    trivial = HermCode(t, [], label="zero")
    d = dual_code(trivial)
    assert d.size == t.q ** 9


def test_dual_size_and_involution(tower_q2, tower_q3):
    for t in (tower_q2, tower_q3):
        c = build_H321(t)
        d = dual_code(c)
        assert d.size == t.q ** 9 // c.size
        dd = dual_code(d)
        assert dd.size == c.size
        assert all(c.contains(f) for f in dd.generators)


def test_dual_of_H_matches_closed_description(tower_q2, tower_q3):
    # the dual of H(3,2,1) is { c x^{q^4} : c in F_{q^3} }
    for t in (tower_q2, tower_q3):
        d = dual_code(build_H321(t))
        assert d.size == t.q ** 3
        for f in d.iter_span():
            assert f.coeffs[0] == 0 and f.coeffs[1] == 0
            assert t.in_subfield(f.coeffs[2], 3)


def test_gram_matrix_contract_exhaustive(tower_q2_n2, tower_q2):
    """Hermitian output, rank preservation, injectivity, image = all Hermitian
    matrices; exhaustive at q=2 for n = 2 and n = 3."""
    for t in (tower_q2_n2, tower_q2):
        seen = set()
        for f in full_space(t).iter_span():
            g = gram_matrix(f)          # constructor validates G* = G
            assert g.rank() == f.rank()
            seen.add(g.rows)
        assert len(seen) == t.q ** (t.n * t.n)


def test_gram_zero_and_linear(tower_q2):
    t = tower_q2
    z = gram_matrix(LinPoly.zero(t))
    assert all(all(v == 0 for v in row) for row in z.rows)
    basis = hermitian_basis(t)
    rng = random.Random(1)
    for _ in range(30):
        f = basis[rng.randrange(len(basis))]
        g = basis[rng.randrange(len(basis))]
        gs = gram_matrix(f + g)
        ga, gb = gram_matrix(f), gram_matrix(g)
        assert gs.rows == tuple(tuple(t.add(a, b) for a, b in zip(ra, rb))
                                for ra, rb in zip(ga.rows, gb.rows))


def test_poly_from_gram_round_trip(tower_q3):
    t = tower_q3
    rng = random.Random(2)
    basis = hermitian_basis(t)
    for _ in range(25):
        f = LinPoly.zero(t)
        for h in rng.sample(basis, 4):
            f = f + h.scale(rng.randrange(1, t.p))
        assert poly_from_gram(t, gram_matrix(f)) == f


def test_herm_matrix_validation(tower_q2):
    t = tower_q2
    lam = t.subfield_generator(2)
    with pytest.raises(ValueError):
        HermMatrix(t, [[lam, 0, 0], [0, 0, 0], [0, 0, 0]])  # diagonal not in F_q
    with pytest.raises(ValueError):
        HermMatrix(t, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])    # not conjugate-symmetric
    eye = HermMatrix(t, [[1 if i == j else 0 for j in range(3)] for i in range(3)])
    assert eye.rank() == 3


def test_hermitian_matrix_basis_spans_the_matrix_space(tower_q2, tower_q3):
    for t in (tower_q2, tower_q3):
        n = t.n
        basis = hermitian_matrix_basis(t)
        assert len(basis) == t.e * n * n
        for vec in basis:
            HermMatrix(t, [vec[r * n:(r + 1) * n] for r in range(n)])  # validates
        assert rank_mod_p([t.digit_vector(vec) for vec in basis], t.p) == len(basis)


def test_trace_poly_is_rank_one_hermitian(tower_q2, tower_q3):
    for t in (tower_q2, tower_q3):
        f = trace_poly(t)
        assert is_hermitian(f)
        assert f.rank() == 1


def test_matrix_code_ingestion_and_rank_oracle(tower_q2):
    t = tower_q2
    # zero-diagonal matrices as generators
    gens = []
    for j in range(3):
        for k in range(j + 1, 3):
            for beta in t.basis_over_prime(2):
                rows = [[0] * 3 for _ in range(3)]
                rows[j][k] = beta
                rows[k][j] = t.frobenius(beta, 1)
                gens.append(HermMatrix(t, rows))
    code = code_from_matrix_set(t, gens, label="M", declared_d=2)
    assert code.size == 64
    # matrix-model rank tally is an oracle independent of the polynomial path
    mats = matrix_span(t, gens)
    assert len(set(mats)) == 64
    hist_matrix = matrix_code_rank_distribution(mats)
    from hermcodes import inner_distribution
    assert hist_matrix == inner_distribution(code)
    # the Gram image of each pulled-back generator is the original matrix
    assert code.matrix_generators == tuple(gens)


def test_matrix_code_rejects_duplicates(tower_q2):
    t = tower_q2
    eye = HermMatrix(t, [[1 if i == j else 0 for j in range(3)] for i in range(3)])
    with pytest.raises(ValueError):
        code_from_matrix_set(t, [eye, eye])


def test_rank_one_matrix_count_matches_character_table(tower_q2):
    # the number of rank-1 Hermitian matrices doubles as a scheme constant
    from hermcodes.scheme import eigenvalues
    mats = matrix_span(tower_q2, [gram_matrix(h) for h in hermitian_basis(tower_q2)])
    hist = matrix_code_rank_distribution(mats)
    eig = eigenvalues(tower_q2)
    assert hist == eig.rank_counts
    assert hist[1] == 21


def test_generator_validation(tower_q2):
    t = tower_q2
    with pytest.raises(ValueError):
        HermCode(t, [LinPoly.monomial(t, 1, 1)])          # not Hermitian
    f = from_free_coeffs(t, {0: 1})
    with pytest.raises(ValueError):
        HermCode(t, [f, f])                                # dependent generators


def test_rank_equals_adjoint_rank_exhaustive(tower_q2):
    for f in full_space(tower_q2).iter_span():
        assert f.rank() == f.adjoint().rank()


def test_code_serialization_round_trip(tower_q3, tower_q2):
    c = build_H321(tower_q3)
    data = json.loads(json.dumps(code_to_dict(c)))
    c2 = code_from_dict(data)
    assert c2.size == c.size and c2.label == c.label and c2.declared_d == 2
    assert all(c.contains(f) for f in c2.generators)
    # matrix model round trip
    t = tower_q2
    gens = [gram_matrix(h) for h in hermitian_basis(t)[:4]]
    mc = code_from_matrix_set(t, gens, label="mat", declared_d=None)
    data = json.loads(json.dumps(code_to_dict(mc)))
    assert data["model"] == "matrix"
    mc2 = code_from_dict(data)
    assert mc2.size == mc.size
    assert all(mc.contains(f) for f in mc2.generators)
