import itertools
import operator
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermcodes import (HermCode, LinPoly, build_E, build_H, build_Htilde,
                       build_M, compare_fingerprints, full_space, hermitian_basis,
                       invariant_fingerprint, kernel_K, left_idealiser,
                       make_tower, poly_from_gram, right_idealiser,
                       universal_support)
from hermcodes import ConstructionParams, build, equivalence, linalg
from hermcodes.cli import _run_check
from hermcodes.hermitian import HermMatrix, poly_from_vector, poly_vector
from hermcodes.equivalence import _flat, _scalar_matrix, _solve_algebra, fp_matrix_of_poly
from hermcodes.linalg import nullspace_mod_p, rank_mod_p
from hermcodes.scheme import DEFAULT_BUDGET

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import reproduce_report  # noqa: E402


def identity_form_poly(tower):
    eye = HermMatrix(tower, [[1 if j == k else 0 for k in range(tower.n)]
                             for j in range(tower.n)])
    return poly_from_gram(tower, eye)


# -- kernels ------------------------------------------------------------------


def test_kernel_solution_satisfies_constraints(tower_q3):
    code = build_H(tower_q3, 2, 1)
    sol = kernel_K(code)
    p = tower_q3.p
    m = tower_q3.m
    for f in code.iter_span():
        x = fp_matrix_of_poly(f)
        for n1, n2 in sol.pairs:
            lhs = [[sum(n2[i][k] * x[k][j] for k in range(m)) % p for j in range(m)]
                   for i in range(m)]
            rhs = [[sum(x[i][k] * n1[k][j] for k in range(m)) % p for j in range(m)]
                   for i in range(m)]
            assert lhs == rhs


def test_kernel_of_maximum_design_codes_is_q2_field(tower_q3):
    for code in (build_H(tower_q3, 2, 1), build_Htilde(tower_q3, 1)):
        sol = kernel_K(code)
        assert sol.order == 9 and sol.structure == "field"
        assert sol.certified and sol.field_order == 9
        assert sol.meta["contains_q2_scalars"]


def test_kernel_of_full_space_contains_scalars(tower_q3, tower_q2):
    for t in (tower_q3, tower_q2):
        sol = kernel_K(full_space(t))
        assert sol.meta["contains_q2_scalars"]
        assert sol.order == t.q ** 2


def test_kernel_q2_scalars_in_every_construction(tower_q2, tower_q3):
    for t in (tower_q2, tower_q3):
        for code in (build_H(t, 2, 1), build_M(t)):
            assert kernel_K(code).meta["contains_q2_scalars"]


def test_maximum_design_codes_contain_full_rank_words(tower_q2, tower_q3):
    # the invertible-word existence behind the kernel normalization
    from hermcodes import inner_distribution
    codes = [build_H(tower_q2, 2, 1), build_H(tower_q3, 2, 1),
             build_Htilde(tower_q3, 1)]
    for code in codes:
        assert inner_distribution(code)[code.n] >= 1


def test_kernel_of_single_full_rank_word_exceeds_q2(tower_q3):
    f0 = identity_form_poly(tower_q3)
    assert f0.rank() == 3
    code = HermCode(tower_q3, [f0], label="single")
    sol = kernel_K(code)
    assert sol.order > 9
    assert sol.structure == "non-field"
    assert sol.certified
    # f0 is invertible, so Z o f0 or f0 o Z lies in F_p f0 only for Z in F_p
    for solve in (left_idealiser, right_idealiser):
        ideal = solve(code)
        assert ideal.order == 3 and ideal.structure == "field" and ideal.certified
        assert ideal.meta["is_scalar_fq"]


def _matmul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def _brute_structure(sol, tower):
    """"field" or "non-field", from every element of the solution span: the
    span must be closed under products and its nonzero elements invertible."""
    p, n, m = tower.p, tower.n, tower.m
    if sol.pairs is not None:
        elements = []
        for cs in itertools.product(range(p), repeat=sol.dim):
            elements.append(tuple(
                tuple(tuple(sum(c * pair[b][i][j] for c, pair in zip(cs, sol.pairs)) % p
                            for j in range(m)) for i in range(m))
                for b in range(2)))
        present = set(elements)
        closed = all(tuple(tuple(map(tuple, _matmul(x, y, p))) for x, y in zip(a, b)) in present
                     for a in elements for b in elements)
        # elements[0] is the zero pair
        units = all(rank_mod_p(blk, p) == m for e in elements[1:] for blk in e)
    else:
        elements = []
        for cs in itertools.product(range(p), repeat=sol.dim):
            f = LinPoly.zero(tower)
            for c, z in zip(cs, sol.polys):
                f = f + z.scale(c)
            elements.append(f)
        present = {f.coeffs for f in elements}
        closed = all(a.compose(b).coeffs in present for a in elements for b in elements)
        units = all(f.rank() == n for f in elements if not f.is_zero())
    return "field" if closed and units else "non-field"


def test_structure_matches_brute_force_scan(tower_q2, tower_q3, tower_q2_n2):
    q3_n2 = make_tower(3, 1, 2)
    codes = [build_H(tower_q2, 2, 1), build_H(tower_q3, 2, 1), build_E(tower_q2, 3, 1),
             build_E(tower_q3, 3, 1), build_M(tower_q2), build_M(tower_q3),
             build_Htilde(tower_q3, 1),
             # spans of the first Hermitian basis vectors, whose kernel or
             # idealisers have zero divisors
             HermCode(tower_q2, hermitian_basis(tower_q2)[:3], label="first3"),
             HermCode(tower_q2_n2, hermitian_basis(tower_q2_n2)[:2], label="first2"),
             HermCode(q3_n2, hermitian_basis(q3_n2)[:2], label="first2")]
    seen = set()
    for code in codes:
        t = code.tower
        for solve in (kernel_K, left_idealiser, right_idealiser):
            sol = solve(code)
            assert sol.certified
            if sol.order <= t.q ** 4:
                assert sol.structure == _brute_structure(sol, t), (code.label, solve.__name__)
                assert sol.field_order == (sol.order if sol.structure == "field" else None)
                seen.add(sol.structure)
    assert seen == {"field", "non-field"}


def test_solver_refuses_a_span_not_closed_under_products():
    # span{A} for the swap matrix A: A is invertible, but A^2 = I is not in
    # the span.  Kernels and idealisers are always closed, so only a direct
    # call reaches this verdict.
    t = make_tower(2, 1, 1)
    rows = [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 1, 0]]
    _, sol = _solve_algebra(t, nullspace_mod_p(rows, 4, 2), lambda v: ([v[0:2], v[2:4]],))
    assert (sol.order, sol.structure, sol.certified) == (2, "non-field", True)


def test_a_power_outside_the_span_is_a_non_field_certificate():
    # span{A} for A = [[0, 1], [1, 1]]: the minimal polynomial x^2 + x + 1 is
    # irreducible, but A^0 = I is not in the span, so it is not closed
    t = make_tower(2, 1, 1)
    rows = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 0, 1]]
    _, sol = _solve_algebra(t, nullspace_mod_p(rows, 4, 2), lambda v: ([v[0:2], v[2:4]],))
    assert (sol.order, sol.structure, sol.certificate) == (2, "non-field", ([1], (1, 1, 1)))


def test_certificate_does_not_multiply_the_basis_pairwise(monkeypatch):
    # the zero code's kernel is M_6(F_2) x M_6(F_2), dim 72: a closure pass
    # over all pairs of basis elements alone would take 72^2 = 5184 products
    # of both blocks, while each Krylov run takes at most dim + 1 powers
    calls = []
    matmul = equivalence._matmul_p
    monkeypatch.setattr(equivalence, "_matmul_p",
                        lambda a, b, p: calls.append(1) or matmul(a, b, p))
    sol = kernel_K(HermCode(make_tower(2, 1, 3), [], label="zero"))
    assert (sol.dim, sol.structure) == (72, "non-field")
    assert len(calls) <= 2 * equivalence._CERTIFICATE_TRIES * (sol.dim + 1)


def _rank_by_elimination(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _divides(d, f, p):
    """The monic little-endian d divides f over F_p (long division)."""
    r = list(f)
    for s in range(len(f) - len(d), -1, -1):
        c = r[s + len(d) - 1]
        for i, di in enumerate(d):
            r[s + i] = (r[s + i] - c * di) % p
    return not any(r)


def _irreducible_by_trial_division(f, p):
    deg = len(f) - 1
    return deg >= 1 and not any(
        _divides(low + (1,), f, p)
        for k in range(1, deg // 2 + 1) for low in itertools.product(range(p), repeat=k))


def _assert_certificate(sol, p):
    coeffs, poly = sol.certificate
    assert len(coeffs) == sol.dim and any(c % p for c in coeffs)
    if sol.pairs is not None:
        basis = [list(pair) for pair in sol.pairs]
    else:
        basis = [[fp_matrix_of_poly(z)] for z in sol.polys]
    size = len(basis[0][0])
    a = [[[sum(c * el[b][i][j] for c, el in zip(coeffs, basis)) % p for j in range(size)]
          for i in range(size)] for b in range(len(basis[0]))]
    eye = [[int(i == j) for j in range(size)] for i in range(size)]
    powers = [[eye] * len(a)]
    for _ in range(len(poly) - 1):
        powers.append([_matmul(x, y, p) for x, y in zip(powers[-1], a)])
    flat = [[v for mat in pw for row in mat for v in row] for pw in powers]
    # monic, kills the element, and no relation of lower degree
    assert poly[-1] == 1
    assert not any(sum(c * col for c, col in zip(poly, column)) % p for column in zip(*flat))
    assert _rank_by_elimination(flat[:-1], p) == len(poly) - 1
    irreducible = _irreducible_by_trial_division(poly, p)
    assert (sol.structure == "field") == (irreducible and len(poly) - 1 == sol.dim)
    assert sol.structure == "field" or not irreducible


def test_every_verdict_carries_a_checkable_certificate():
    # the report instances and the zero codes, with the structures found by
    # the whole-span scan and the seeded sample this solver replaced
    cases = [(build(params), "non-field" if params.family == "E" else "field")
             for params in reproduce_report.INSTANCES]
    cases += [(HermCode(make_tower(p, 1, 3), [], label="zero"), "non-field") for p in (2, 3)]
    for code, kernel_structure in cases:
        ideal_structure = "non-field" if code.label == "zero" else "field"
        for solve, structure in ((kernel_K, kernel_structure), (left_idealiser, ideal_structure),
                                 (right_idealiser, ideal_structure)):
            sol = solve(code)
            assert sol.certified and sol.structure == structure, (code.label, solve.__name__)
            _assert_certificate(sol, code.tower.p)


def test_no_certificate_leaves_the_structure_unknown(monkeypatch, tower_q2):
    monkeypatch.setattr(equivalence, "_CERTIFICATE_TRIES", 0)
    code = build_H(tower_q2, 2, 1)
    sol = kernel_K(code)
    assert (sol.structure, sol.certified, sol.certificate, sol.field_order) == \
        ("unknown", False, None, None)
    # H(3,2,1) is a maximum 2-code and a 1-design, so the kernel check hinges
    # on the structure, which is now unproved rather than failed
    report = _run_check("kernel", code, DEFAULT_BUDGET)
    assert report.verdict == "inconclusive" and report.witness["structure"] == "unknown"


def test_solvers_on_a_tower_whose_generator_is_not_x():
    # x is not primitive for this modulus, so the generator's power basis is
    # not the digit basis; matrices must still multiply like compositions
    t = make_tower(2, 1, 3, [1, 1, 1, 0, 1, 0, 1])
    assert t.generator != t.from_digits([0, 1, 0, 0, 0, 0])
    code = build_H(t, 2, 1)
    f, g = code.generators[:2]
    assert fp_matrix_of_poly(f.compose(g)) == _matmul(fp_matrix_of_poly(f), fp_matrix_of_poly(g), 2)
    sol = kernel_K(code)
    assert (sol.order, sol.structure) == (4, "field") and sol.meta["contains_q2_scalars"]
    for solve in (left_idealiser, right_idealiser):
        ideal = solve(code)
        assert (ideal.order, ideal.structure) == (2, "field") and ideal.meta["is_scalar_fq"]


# -- idealisers ----------------------------------------------------------------


def test_idealisers_of_theorem_codes_are_fq_scalars(tower_q3):
    for code in (build_H(tower_q3, 2, 1), build_Htilde(tower_q3, 1)):
        left = left_idealiser(code)
        right = right_idealiser(code)
        assert left.order == right.order == 3
        assert left.meta["is_scalar_fq"] and right.meta["is_scalar_fq"]
        assert left.structure == "field" and right.structure == "field"


def test_idealiser_against_brute_force(tower_q2_n2):
    # exhaustive oracle on the 16-element space over F_16 coefficients
    t = tower_q2_n2
    code = build_H(t, 1, 1)
    els = code.elements()
    brute_left = [
        (z0, z1) for z0 in range(16) for z1 in range(16)
        if all(code.contains(LinPoly(t, (z0, z1)).compose(f)) for f in els)]
    brute_right = [
        (z0, z1) for z0 in range(16) for z1 in range(16)
        if all(code.contains(f.compose(LinPoly(t, (z0, z1)))) for f in els)]
    left = left_idealiser(code)
    right = right_idealiser(code)
    assert left.order == len(brute_left)
    assert right.order == len(brute_right)
    assert all(z.coeffs in set(brute_left) for z in left.polys)
    assert all(z.coeffs in set(brute_right) for z in right.polys)


def test_idealiser_solutions_actually_idealise(tower_q3):
    code = build_Htilde(tower_q3, 1)
    left = left_idealiser(code)
    right = right_idealiser(code)
    for z in left.polys:
        for g in code.generators:
            assert code.contains(z.compose(g))
    for z in right.polys:
        for g in code.generators:
            assert code.contains(g.compose(z))


def test_zero_code_idealisers_are_not_fields(tower_q3):
    # every Z idealises the zero code, so the idealiser is the whole
    # q^2-polynomial algebra, which has zero divisors
    code = HermCode(tower_q3, [], label="zero")
    for solve in (left_idealiser, right_idealiser):
        sol = solve(code)
        assert sol.order == 3 ** 18
        assert sol.structure == "non-field" and sol.field_order is None
        assert sol.certified


# -- the systems as equation rows, an oracle for the column builds ---------------
# (solved by `nullspace_mod_p`, which test_linalg pins to a column sweep)


def _kernel_by_rows(code):
    """kernel_K from one list row per equation (N2 X - X N1)_ij = 0."""
    t = code.tower
    m, p = t.m, t.p
    nvars = 2 * m * m  # N1 first, then N2
    rows = []
    for x in (fp_matrix_of_poly(g) for g in code.generators):
        for i in range(m):
            for j in range(m):
                row = [0] * nvars
                for k in range(m):
                    row[m * m + i * m + k] = (row[m * m + i * m + k] + x[k][j]) % p
                    row[k * m + j] = (row[k * m + j] - x[i][k]) % p
                rows.append(row)

    def pair_of(v):
        return ([v[r * m:(r + 1) * m] for r in range(m)],
                [v[m * m + r * m: m * m + (r + 1) * m] for r in range(m)])

    basis = nullspace_mod_p(rows, nvars, p)
    span, sol = _solve_algebra(t, basis, pair_of)
    contains_scalars = all(span.contains(_flat((_scalar_matrix(t, beta),) * 2))
                           for beta in t.basis_over_prime(2))
    return sol._replace(pairs=[pair_of(v) for v in basis],
                        meta={"contains_q2_scalars": contains_scalars})


def _idealiser_by_rows(code, side):
    """An idealiser from one list row per (generator, check vector): the dot
    products of the check vector with the images of the unit polynomials."""
    t = code.tower
    p = t.p
    width = t.n * t.m
    checks = nullspace_mod_p([poly_vector(g) for g in code.generators], width, p)
    units = [poly_from_vector(t, [int(i == j) for i in range(width)]) for j in range(width)]
    rows = []
    for g in code.generators:
        images = [poly_vector(u.compose(g) if side == "left" else g.compose(u)) for u in units]
        rows += [[sum(map(operator.mul, w, img)) % p for img in images] for w in checks]
    basis = nullspace_mod_p(rows, width, p)
    span, sol = _solve_algebra(t, basis, lambda v: (fp_matrix_of_poly(poly_from_vector(t, v)),))
    scalars = t.basis_over_prime(1)
    is_scalar_fq = span.dim == len(scalars) and all(
        span.contains(_flat((_scalar_matrix(t, c),))) for c in scalars)
    return sol._replace(polys=[poly_from_vector(t, v) for v in basis],
                        meta={"is_scalar_fq": is_scalar_fq, "side": side})


@pytest.mark.parametrize("params", reproduce_report.INSTANCES + [
    ConstructionParams(family="H", q=4, n=3, d=2, s=1),
    ConstructionParams(family="Htilde", q=3, n=5, s=1),
    ConstructionParams(family="H", q=17, n=3, d=2, s=1),    # residue-list rows
], ids=lambda params: f"{params.family}-q{params.q}-n{params.n}")
def test_column_systems_match_the_row_systems(params):
    # pairs, polys, certificate and meta: the whole solution, field by field
    code = build(params)
    assert kernel_K(code) == _kernel_by_rows(code)
    assert left_idealiser(code) == _idealiser_by_rows(code, "left")
    assert right_idealiser(code) == _idealiser_by_rows(code, "right")


def test_kernel_system_streams_its_columns(monkeypatch, tower_q3):
    # H(3,2,1) at q = 3 has 6 generators, so 6 m^2 = 216 equations in
    # 2 m^2 = 72 unknowns: the system streams its 72 columns, not its rows
    streamed = []
    echelon = linalg._echelon

    def counting(vecs, *args, **kwargs):
        vecs = list(vecs)
        streamed.append(len(vecs))
        return echelon(vecs, *args, **kwargs)

    monkeypatch.setattr(linalg, "_echelon", counting)
    kernel_K(build_H(tower_q3, 2, 1))
    assert max(streamed) == 2 * tower_q3.m ** 2 == 72


# -- supports --------------------------------------------------------------------


def test_universal_supports(tower_q3):
    assert universal_support(HermCode(tower_q3, [], label="zero")) == frozenset()
    assert universal_support(build_H(tower_q3, 2, 1)) == frozenset({0, 1})
    assert universal_support(build_Htilde(tower_q3, 1)) == frozenset({0, 1, 2})
    assert universal_support(full_space(tower_q3)) == frozenset({0, 1, 2})


# The support predicates of non-equivalence arguments; no check or report
# reaches them, so they live here beside their tests.


def a_pow_b(a, b, n):
    """Residues mod n expressible as i + j with (i, j) in A x B in exactly one way."""
    counts = Counter((i + j) % n for i in a for j in b)
    return frozenset(k for k, c in counts.items() if c == 1)


def support_containment(a, b, support, n):
    """The falsifiable predicate A^B subset-of S used in non-equivalence
    arguments; False refutes the corresponding extended equivalence."""
    return a_pow_b(a, b, n) <= frozenset(i % n for i in support)


def check_independent_support(code, b_set, witness, domain):
    """Verify a witnessed independent support: every h_i must be injective on
    the declared domain and every witnessed polynomial must lie in the code.
    """
    b_set = frozenset(b_set)
    if frozenset(witness) != b_set:
        raise ValueError("witness indices do not match the declared support set")
    t = code.tower
    if any(len({h(a) for a in domain}) != len(domain) for h in witness.values()):
        return False
    return all(code.contains(LinPoly.from_map(t, {i: h(a) for i, h in witness.items()}))
               for a in domain)


def test_a_pow_b_examples():
    assert a_pow_b({0}, {0, 1}, 3) == frozenset({0, 1})
    assert a_pow_b({0, 1}, {0, 1}, 3) == frozenset({0, 2})
    assert a_pow_b(set(), {0, 1}, 3) == frozenset()


@settings(max_examples=150, deadline=None)
@given(a=st.frozensets(st.integers(0, 6), max_size=7),
       b=st.frozensets(st.integers(0, 6), max_size=7),
       n=st.integers(2, 7))
def test_a_pow_b_symmetric_and_matches_brute_force(a, b, n):
    a = frozenset(i % n for i in a)
    b = frozenset(i % n for i in b)
    got = a_pow_b(a, b, n)
    assert got == a_pow_b(b, a, n)
    for k in range(n):
        hits = sum(1 for i in a for j in b if (i + j) % n == k)
        assert (k in got) == (hits == 1)


def test_support_containment_predicate():
    assert support_containment({0}, {0, 1}, {0, 1}, 3)
    assert not support_containment({0}, {0, 1}, {0}, 3)


def test_independent_support_witness_for_H(tower_q3):
    t = tower_q3
    code = build_H(t, 2, 1)
    domain = list(range(t.order))
    witness = {0: lambda b: b, 1: lambda b: t.frobenius(b, 1)}
    assert check_independent_support(code, {0, 1}, witness, domain)
    # a non-injective coefficient map fails
    broken = {0: lambda b: 0, 1: lambda b: t.frobenius(b, 1)}
    assert not check_independent_support(code, {0, 1}, broken, domain)
    # empty support with empty witness holds vacuously
    assert check_independent_support(code, set(), {}, domain)
    with pytest.raises(ValueError):
        check_independent_support(code, {0}, witness, domain)


def test_independent_support_witness_for_Htilde_a_slice(tower_q3):
    t = tower_q3
    gamma = __import__("hermcodes").find_gamma(t)
    code = build_Htilde(t, 1)
    domain = t.subfield_elements(3)
    witness = {
        1: lambda a: t.mul(a, gamma),
        0: lambda a: t.frobenius(t.mul(a, gamma), 5),
    }
    assert check_independent_support(code, {0, 1}, witness, domain)


# -- fingerprints -------------------------------------------------------------------


def test_fingerprint_deterministic(tower_q2):
    code = build_H(tower_q2, 2, 1)
    assert invariant_fingerprint(code) == invariant_fingerprint(code)


def test_fingerprint_separates_M_from_H(tower_q2):
    fp_m = invariant_fingerprint(build_M(tower_q2))
    fp_h = invariant_fingerprint(build_H(tower_q2, 2, 1))
    cmp = compare_fingerprints(fp_m, fp_h)
    assert cmp.verdict == "distinct"
    assert "design_strength" in cmp.differing_fields
    assert cmp.certified_inequivalent


def test_fingerprint_inconclusive_for_Htilde_vs_H(tower_q3):
    fp_t = invariant_fingerprint(build_Htilde(tower_q3, 1))
    fp_h = invariant_fingerprint(build_H(tower_q3, 2, 1))
    # the support sizes differ (3 vs 2) but supports are not preserved by
    # the allowed maps, so they must not certify inequivalence
    assert fp_t.support_size == 3 and fp_h.support_size == 2
    cmp = compare_fingerprints(fp_t, fp_h)
    assert cmp.verdict == "inconclusive"
    assert not cmp.differing_fields
