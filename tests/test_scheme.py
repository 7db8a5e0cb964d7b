import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermcodes import (HermCode, build_E, build_H, build_M, build_Htilde,
                       delta_identity_holds, design_by_extension_count,
                       design_strength, dual_inner_distribution, full_space,
                       gram_matrix, hermitian_basis, inner_distribution,
                       neg_q_binom, theorem_distribution)
from hermcodes import ConstructionParams, build, make_tower, scheme
from hermcodes.cli import _run_check
from hermcodes.constructions import tower_for
from hermcodes.scheme import (DEFAULT_BUDGET, BudgetExceededError, ConsistencyError,
                              _character_sum, conjugate_trace, eigenvalues,
                              full_rank_residue, max_code_size)
from hermcodes.hermitian import dual_code, matrix_code_rank_distribution, matrix_span
from hermcodes.linalg import (nullity_of_code_columns, rank_subfield_matrix, span_walk,
                              vector_add, word_nullity)


# -- character sums ----------------------------------------------------------------


def test_character_sum_reduction():
    # 7 + 4 zeta + 4 zeta^2 = 3 at p=3; 1 + zeta + ... + zeta^4 = 0 at p=5
    assert _character_sum([7, 4, 4]) == 3
    assert _character_sum([1, 1, 1, 1, 1]) == 0
    with pytest.raises(ConsistencyError):
        _character_sum([7, 4, 5])


def test_trace_form_is_symmetric(tower_q2):
    basis = [gram_matrix(h) for h in hermitian_basis(tower_q2)]
    for a in basis:
        for b in basis:
            assert conjugate_trace(a, b) == conjugate_trace(b, a)


# -- negative q-binomials and the closed form -----------------------------------


def test_neg_q_binom_values():
    assert neg_q_binom(2, 1, 2) == -1       # ((-2)^2 - 1)/((-2) - 1)
    assert neg_q_binom(2, 1, 3) == -2
    assert neg_q_binom(3, 1, 2) == 3
    assert neg_q_binom(5, 0, 7) == 1
    assert neg_q_binom(2, 5, 3) == 0        # l > m convention
    with pytest.raises(ValueError):
        neg_q_binom(3, 1, 1)


@settings(max_examples=120, deadline=None)
@given(m=st.integers(0, 12), l=st.integers(0, 12), q=st.integers(2, 7))
def test_neg_q_binom_integrality(m, l, q):
    assert isinstance(neg_q_binom(m, l, q), int)


def _fraction_neg_q_binom(m, l, q):
    val = Fraction(1)
    for i in range(1, l + 1):
        val *= Fraction((-q) ** (m - i + 1) - 1, (-q) ** i - 1)
    return val


def _fraction_theorem_distribution(n, d, q, size):
    """The closed form summed in rationals; None where a sum is not integral."""
    out = [1] + [0] * n
    for i in range(n):
        acc = Fraction(0)
        for j in range(i, n - d + 1):
            inner = Fraction(size, q ** (n * j)) * (-1) ** ((n + 1) * j) - 1
            acc += ((-1) ** (j - i) * (-q) ** ((j - i) * (j - i - 1) // 2)
                    * _fraction_neg_q_binom(j, i, q) * _fraction_neg_q_binom(n, j, q) * inner)
        if acc.denominator != 1:
            return None
        out[n - i] = int(acc)
    return tuple(out)


def test_integer_closed_forms_match_rational_reference():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m in range(9):
            for l in range(m + 1):
                assert neg_q_binom(m, l, q) == _fraction_neg_q_binom(m, l, q), (m, l, q)
        for n in range(1, 8):
            for d in range(n + 2):
                full = max_code_size(q, n, d)
                for size in (full, full - 1, q ** n):
                    expected = _fraction_theorem_distribution(n, d, q, size)
                    if expected is None:
                        with pytest.raises(AssertionError):
                            theorem_distribution(n, d, q, size)
                    else:
                        assert theorem_distribution(n, d, q, size) == expected, (n, d, q, size)
    with pytest.raises(AssertionError):
        theorem_distribution(3, 2, 2, 63)


def test_delta_identity():
    for q in (2, 3, 4, 5):
        for k in range(9):
            for i in range(k + 1):
                assert delta_identity_holds(k, i, q)


def test_theorem_distribution_degenerate_d_equals_n():
    # a maximum n-code has all nonzero words of full rank
    assert theorem_distribution(3, 3, 2, 8) == (1, 0, 0, 7)
    assert theorem_distribution(3, 3, 3, 27) == (1, 0, 0, 26)


def test_theorem_distribution_closed_form(tower_q2, tower_q3):
    # frozen values derived twice by hand (kernel counting over the cyclic
    # group, and the closed form) and confirmed by enumeration
    assert theorem_distribution(3, 2, 2, 64) == (1, 0, 21, 42)
    assert theorem_distribution(3, 2, 3, 729) == (1, 0, 182, 546)
    for t, expected in ((tower_q2, (1, 0, 21, 42)), (tower_q3, (1, 0, 182, 546))):
        assert inner_distribution(build_H(t, 2, 1)) == expected


def test_full_rank_residue_values():
    # a maximum d-code that is an (n-d)-design has A_n = 0 (mod q^{n-d}) for
    # every d < n (proof in the full_rank_residue docstring); the closed form
    # must show it on every small case
    for q in (2, 3, 4, 5, 7):
        for n in range(2, 7):
            for d in range(1, n):
                size = scheme.max_code_size(q, n, d)
                assert full_rank_residue(n, d, q, size) == 0, (n, d, q)


# -- inner distributions ----------------------------------------------------------


def test_inner_distribution_trivial_code(tower_q2):
    c = HermCode(tower_q2, [], label="zero")
    assert inner_distribution(c) == (1, 0, 0, 0)


def _full_walk_tally(code):
    """Rank histogram over every word of the span, one kernel call each."""
    t = code.tower
    hist = [0] * (t.n + 1)
    for state in span_walk(t.p, [g.image_columns() for g in code.generators], [0] * t.m,
                           vector_add(t)):
        hist[t.n - nullity_of_code_columns(t, state) // (2 * t.e)] += 1
    return tuple(hist)


@pytest.mark.parametrize("p, e, n", [(2, 1, 3), (3, 1, 2), (3, 1, 3), (5, 1, 2), (7, 1, 2),
                                     (3, 2, 2), (13, 1, 2), (11, 1, 2), (3, 2, 3)])
def test_line_walk_inner_distribution_matches_full_walk_and_matrix_model(p, e, n):
    # one word per F_p^*-line, weighted p - 1, against the full walk and
    # against the matrix-model rank of every word
    t = make_tower(p, e, n)
    basis = hermitian_basis(t)
    rng = random.Random(1000 * p + 10 * e + n)
    for dim in range(5):
        gens = rng.sample(basis, dim)
        code = HermCode(t, gens, label=f"random-{dim}")
        hist = inner_distribution(code)
        assert hist == _full_walk_tally(code), dim
        mats = matrix_span(t, [gram_matrix(g) for g in gens])
        assert hist == matrix_code_rank_distribution(mats), dim
        if dim == 0:
            assert hist == (1,) + (0,) * n


@pytest.mark.parametrize("params, calls", [
    (ConstructionParams(family="H", q=3, n=4, d=3, s=1), 1 + 6560 // 2),
    (ConstructionParams(family="Htilde", q=5, n=3, s=1), 1 + 15624 // 4),
    (ConstructionParams(family="H", q=2, n=3, d=2, s=1), 64),
])
def test_inner_distribution_ranks_one_word_per_line(monkeypatch, params, calls):
    # 3,281 kernel calls for the 6,561 words of H(4,3,1) at q=3, 3,907 for
    # the 15,625 of Htilde(3,1) at q=5, and |C| at p = 2
    code = build(params)
    count = [0]

    def counting(tower, word):
        count[0] += 1
        return word_nullity(tower, word)

    monkeypatch.setattr(scheme, "word_nullity", counting)
    assert sum(inner_distribution(code)) == code.size
    assert count[0] == calls

def test_inner_distribution_full_space(tower_q2):
    # the histogram of the whole space equals the matrix-model tally
    hist = inner_distribution(full_space(tower_q2))
    mats = matrix_span(tower_q2, [gram_matrix(h) for h in hermitian_basis(tower_q2)])
    from hermcodes import matrix_code_rank_distribution
    assert hist == matrix_code_rank_distribution(mats)
    assert hist == (1, 21, 210, 280)


def pairwise_inner_distribution(mats):
    """A_i = |(C x C) on rank-i differences| / |C| for an arbitrary matrix set:
    the definition, with no additivity assumed."""
    t = mats[0].tower
    counts = [0] * (t.n + 1)
    for a in mats:
        for b in mats:
            rows = [[t.sub(x, y) for x, y in zip(ra, rb)]
                    for ra, rb in zip(a.rows, b.rows)]
            counts[rank_subfield_matrix(t, rows)] += 1
    return tuple(Fraction(c, len(mats)) for c in counts)


def test_pairwise_distribution_matches_histogram_for_additive_sets(tower_q2):
    mats = matrix_span(tower_q2, build_M(tower_q2).matrix_generators[:4])
    hist = pairwise_inner_distribution(mats)
    from hermcodes import matrix_code_rank_distribution
    direct = matrix_code_rank_distribution(mats)
    assert hist == tuple(Fraction(v) for v in direct)


# -- eigenvalues -------------------------------------------------------------------


def test_eigenvalue_table_q2(tower_q2):
    eig = eigenvalues(tower_q2)
    assert eig.rank_counts == (1, 21, 210, 280)
    assert eig.table == ((1, 1, 1, 1),
                         (21, -11, 5, -3),
                         (210, 50, 2, -6),
                         (280, -40, -8, 8))


def test_eigenvalue_structural_identities(tower_q2, tower_q3):
    for t in (tower_q2, tower_q3):
        eig = eigenvalues(t)
        n = t.n
        for i in range(n + 1):
            assert eig.table[0][i] == 1               # H_0 = {0}
        for k in range(n + 1):
            assert eig.table[k][0] == eig.rank_counts[k]
        for i in range(1, n + 1):                     # character orthogonality
            assert sum(eig.table[k][i] for k in range(n + 1)) == 0
        assert sum(eig.rank_counts) == t.q ** (n * n)


@pytest.mark.parametrize("q, n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2)])
def test_closed_form_eigenvalues_match_character_sums(q, n):
    oracle = eigenvalues(tower_for(q, n))
    closed = scheme.closed_form_eigenvalues(q, n)
    assert closed.table == oracle.table
    assert closed.rank_counts == oracle.rank_counts


def test_inner_from_dual_rejects_an_impossible_dual():
    # (64, 0, 0, 448) is the dual distribution of H(3,2,1) at q=2
    assert scheme.inner_from_dual((64, 0, 0, 448), 2, 3) == (1, 0, 21, 42)
    with pytest.raises(scheme.ConsistencyError):
        scheme.inner_from_dual((64, 8, 0, 440), 2, 3)


def test_eigenvalue_budget_guard(tower_q3):
    tower_q3.cache.pop("eigenvalues", None)
    with pytest.raises(BudgetExceededError):
        eigenvalues(tower_q3, budget=10)
    eigenvalues(tower_q3)  # repopulate the cache for later tests


def test_eigenvalue_budget_applies_to_cached_table(tower_q3):
    eigenvalues(tower_q3)
    assert "eigenvalues" in tower_q3.cache
    with pytest.raises(BudgetExceededError):
        eigenvalues(tower_q3, budget=10)


def test_builds_share_one_tower_and_eigenvalue_table(monkeypatch):
    h = build(ConstructionParams(family="H", q=3, n=3, d=2, s=1))
    m = build(ConstructionParams(family="M", q=3, n=3))
    assert h.tower is m.tower
    h.tower.cache.pop("eigenvalues", None)
    tables = []
    real = scheme._random_invertible  # runs once per computed table
    monkeypatch.setattr(scheme, "_random_invertible",
                        lambda t, rng: tables.append(t) or real(t, rng))
    # the dual check transforms by the closed form: no character-sum table
    for code in (h, m):
        assert _run_check("dual", code, DEFAULT_BUDGET).verdict == "pass"
    assert tables == []
    assert eigenvalues(h.tower) is eigenvalues(h.tower)
    assert tables == [h.tower]


# -- dual inner distribution and designs ---------------------------------------------


def codes_under_test(t):
    out = [build_H(t, 2, 1), build_E(t, 3, 1), build_M(t), full_space(t)]
    if t.q % 2:
        out.append(build_Htilde(t, 1))
    return out


def test_dual_methods_agree_everywhere(tower_q2, tower_q3):
    for t in (tower_q2, tower_q3):
        for code in codes_under_test(t):
            d1 = dual_inner_distribution(code, "dual-code")
            d2 = dual_inner_distribution(code, "eigenvalues")
            assert d1 == d2, code.label
            assert d1[0] == code.size
            assert all(v >= 0 and v % code.size == 0 for v in d1)


def test_dual_distribution_frozen_values(tower_q2):
    assert dual_inner_distribution(build_H(tower_q2, 2, 1), "dual-code") == (64, 0, 0, 448)
    assert dual_inner_distribution(build_M(tower_q2), "dual-code") == (64, 192, 192, 64)


def test_macwilliams_like_consistency(tower_q2, tower_q3):
    # the dual distribution of the dual code reproduces |C^perp| * inner(C)
    from hermcodes import dual_code
    for t in (tower_q2, tower_q3):
        c = build_H(t, 2, 1)
        d = dual_code(c)
        lhs = dual_inner_distribution(d, "eigenvalues")
        inner = inner_distribution(c)
        assert lhs == tuple(d.size * v for v in inner)


def test_design_strengths(tower_q2, tower_q3):
    for t in (tower_q2, tower_q3):
        assert design_strength(full_space(t)) == t.n
        assert design_strength(build_H(t, 2, 1)) == 2
        assert design_strength(build_E(t, 3, 1)) == 1
        assert design_strength(build_M(t)) == 0
    assert design_strength(build_Htilde(tower_q3, 1)) == 2


def test_maximum_iff_design_for_odd_d(tower_q2):
    # forward: the maximum 3-code is a 1-design; backward: a proper subcode
    # is no longer maximum, so it must fail the design property
    t = tower_q2
    e = build_E(t, 3, 1)
    assert design_strength(e) >= 1
    sub = HermCode(t, e.generators[:-1], label="E-sub", declared_d=3)
    assert sub.size < t.q ** 3
    assert design_strength(sub) == 0


def test_extension_counts_full_space(tower_q2):
    rep = design_by_extension_count(full_space(tower_q2), 1)
    assert rep.uniform
    assert rep.common_count == 2 ** 8  # q^{n^2 - 1}


def test_extension_counts_match_design_strength(tower_q2, tower_q3):
    # the q=3 full space (19683 words x 91 subspaces) is left out for runtime
    for code in codes_under_test(tower_q2):
        rep = design_by_extension_count(code, 1)
        assert rep.uniform == (design_strength(code) >= 1), code.label
    for builder in (lambda: build_H(tower_q3, 2, 1), lambda: build_E(tower_q3, 3, 1),
                    lambda: build_M(tower_q3), lambda: build_Htilde(tower_q3, 1)):
        code = builder()
        rep = design_by_extension_count(code, 1)
        assert rep.uniform == (design_strength(code) >= 1), code.label


def test_extension_counts_witness_for_zero_diagonal_code(tower_q2, tower_q3):
    for t in (tower_q2, tower_q3):
        m = build_M(t)
        rep = design_by_extension_count(m, 1)
        assert not rep.uniform
        u0 = ((1, 0, 0),)
        assert rep.counts[(u0, (0,))] == m.size
        assert rep.counts[(u0, (1,))] == 0
        assert rep.witnesses


def test_extension_count_t2_on_small_space(tower_q2_n2):
    # t = n = 2 on the 16-element space: restriction to the whole space is
    # the form itself, one codeword per form
    rep = design_by_extension_count(full_space(tower_q2_n2), 2)
    assert rep.uniform and rep.common_count == 1


def test_extension_count_budget(tower_q3):
    with pytest.raises(BudgetExceededError):
        design_by_extension_count(full_space(tower_q3), 1, budget=100)
    with pytest.raises(BudgetExceededError):
        design_by_extension_count(full_space(tower_q3), 1, budget=100, method="span")


def test_extension_count_span_route_is_charged_per_generator():
    # the span route restricts dim(C) generators per subspace, so `designs`
    # fits the default budget where |C| x subspaces (10^7 and 10^6) does not
    for params in (ConstructionParams(family="Htilde", q=5, n=3, s=1),
                   ConstructionParams(family="H", q=4, n=3, d=2, s=1)):
        code = build(params)
        with pytest.raises(BudgetExceededError):
            design_by_extension_count(code, 1, method="enumerate")
        report = _run_check("designs", code, DEFAULT_BUDGET)
        assert (report.verdict, report.witness) == \
            ("pass", {"strength": 2, "extension_uniform": True}), code.label


def test_extension_counts_span_route_matches_enumeration(tower_q2, tower_q3, tower_q2_n2):
    # the span route counts from the generators; enumeration restricts
    # every word.  Counts, their order, uniformity and witnesses must agree.
    cases = [(code, 1) for code in codes_under_test(tower_q2)]
    cases += [(full_space(tower_q2_n2), 1),
              (full_space(tower_q2_n2), 2), (build_H(tower_q2, 2, 1), 2),
              (build_H(tower_q2, 2, 1), 3), (build_E(tower_q3, 3, 1), 1),
              (dual_code(build_E(tower_q3, 3, 1)), 1)]
    for code, t in cases:
        fast = design_by_extension_count(code, t, method="span")
        slow = design_by_extension_count(code, t, method="enumerate")
        assert list(fast.counts.items()) == list(slow.counts.items()), (code.label, t)
        assert (fast.uniform, fast.common_count, fast.witnesses) == \
            (slow.uniform, slow.common_count, slow.witnesses), (code.label, t)


def test_extension_count_rejects_unknown_method(tower_q2):
    with pytest.raises(ValueError, match="unknown method"):
        design_by_extension_count(full_space(tower_q2), 1, method="walk")
