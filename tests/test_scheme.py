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
from hermcodes.hermitian import (dual_code, form_matrix, matrix_code_rank_distribution,
                                 matrix_span)
from hermcodes.linalg import (FpSpan, gram_rank, nullity_of_code_columns, q2_tables,
                              rank_subfield_matrix, span_walk, vector_add)


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
                                     (3, 2, 2), (13, 1, 2), (11, 1, 2), (3, 2, 3), (2, 2, 3),
                                     (2, 3, 2), (2, 4, 2), (5, 2, 2), (17, 1, 2), (5, 2, 1)])
def test_line_walk_inner_distribution_matches_full_walk_and_matrix_model(p, e, n):
    # one word per F_p^*-line, weighted p - 1, against the full walk and
    # against the matrix-model rank of every word; q = 16 is the largest
    # field of the Gram route, and q = 25, 17 take the generic one
    t = make_tower(p, e, n)
    basis = hermitian_basis(t)
    rng = random.Random(1000 * p + 10 * e + n)
    for dim in range(min(5, len(basis) + 1)):
        if p ** dim > 30_000:  # 17^4 words take seconds in the oracles
            break
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

    def counting(tables, word, n):
        count[0] += 1
        return gram_rank(tables, word, n)

    monkeypatch.setattr(scheme, "gram_rank", counting)
    assert sum(inner_distribution(code)) == code.size
    assert count[0] == calls


@pytest.mark.parametrize("p, e, n, generic", [(2, 1, 3, False), (3, 2, 2, False),
                                              (13, 1, 2, False), (2, 4, 2, False),
                                              (17, 1, 2, True), (5, 2, 1, True),
                                              (3, 3, 1, True)])
def test_inner_distribution_takes_the_gram_route_up_to_q16(monkeypatch, p, e, n, generic):
    # at q <= 16 no word is ranked by its F_p-nullity; above, where an index
    # into F_{q^2} outgrows a byte and there are no tables, every one is
    t = make_tower(p, e, n)
    assert (q2_tables(t) is None) == generic
    code = HermCode(t, random.Random(p + e + n).sample(hermitian_basis(t), 2))
    count = [0]

    def counting(tower, columns):
        count[0] += 1
        return nullity_of_code_columns(tower, columns)

    monkeypatch.setattr(scheme, "nullity_of_code_columns", counting)
    inner_distribution(code)
    assert count[0] == (1 + (p * p - 1) // (p - 1) if generic else 0)


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
    # enumeration is charged |C| = 19683 and the dimension reducer dim(C) = 9
    # restrictions per subspace, 91 subspaces in all
    code = full_space(tower_q3)
    with pytest.raises(BudgetExceededError, match="19683 x 91 "):
        design_by_extension_count(code, 1, budget=100)
    with pytest.raises(BudgetExceededError, match="9 x 91 "):
        scheme.extension_uniform(code, 1, budget=100)
    assert scheme.extension_uniform(code, 1, budget=9 * 91)


def test_extension_count_refuses_before_listing_a_subspace(monkeypatch):
    # Htilde(7,1) at q=3 needs 42 x [7, 1]_9 = 42 x 597871 restrictions; the
    # refusal must come from the Gaussian binomial, not from the listing
    code = build(ConstructionParams(family="Htilde", q=3, n=7, s=1))

    def never(tower, t):
        raise AssertionError("subspaces listed before the budget test")

    monkeypatch.setattr(scheme, "_subspace_representatives", never)
    message = "42 x 597871 subspace restrictions exceed budget 1000000"
    with pytest.raises(BudgetExceededError, match=message):
        scheme.extension_uniform(code, 1)
    with pytest.raises(BudgetExceededError, match=f"{code.size} x 597871 "):
        design_by_extension_count(code, 1)
    report = _run_check("designs", code, DEFAULT_BUDGET)
    assert (report.verdict, report.witness) == ("inconclusive", {"reason": message})


@pytest.mark.parametrize("q", [2, 3, 4])
def test_subspace_count_is_the_gaussian_binomial(q):
    p, e = {2: (2, 1), 3: (3, 1), 4: (2, 2)}[q]
    for n in (2, 3, 4):
        tower = make_tower(p, e, n)
        for t in range(1, n + 1):
            reps = scheme._subspace_representatives(tower, t)
            assert len(reps) == len(set(reps)) == scheme.gaussian_binom(n, t, q * q), (n, t)


def test_extension_count_span_route_is_charged_per_generator():
    # the dimension reducer restricts dim(C) generators per subspace, so
    # `designs` fits the default budget where |C| x subspaces (10^7 and 10^6)
    # does not; the generator oracle stands in for enumeration
    for params in (ConstructionParams(family="Htilde", q=5, n=3, s=1),
                   ConstructionParams(family="H", q=4, n=3, d=2, s=1)):
        code = build(params)
        with pytest.raises(BudgetExceededError):
            design_by_extension_count(code, 1)
        assert scheme.extension_uniform(code, 1)
        assert len(set(_span_counts_by_generator(code, 1).values())) == 1, code.label
        report = _run_check("designs", code, DEFAULT_BUDGET)
        assert (report.verdict, report.witness) == \
            ("pass", {"strength": 2, "extension_uniform": True}), code.label


def _assert_uniform_matches_enumeration(code, t):
    """`extension_uniform` against the enumerated counts; a uniform count is
    the fibre p^(dim C - t^2 e) of a restriction onto every form."""
    slow = design_by_extension_count(code, t)
    assert scheme.extension_uniform(code, t) == slow.uniform, (code.label, t)
    if slow.uniform:
        tower = code.tower
        assert slow.common_count == tower.p ** (code.dim - t * t * tower.e), (code.label, t)
    return slow


def test_extension_counts_span_route_matches_enumeration(tower_q2, tower_q3, tower_q2_n2):
    # the dimension reducer reads the generators; enumeration restricts
    # every word, and the generator oracle spans each restriction
    cases = [(code, 1) for code in codes_under_test(tower_q2)]
    cases += [(full_space(tower_q2_n2), 1),
              (full_space(tower_q2_n2), 2), (build_H(tower_q2, 2, 1), 2),
              (build_H(tower_q2, 2, 1), 3), (build_E(tower_q3, 3, 1), 1),
              (dual_code(build_E(tower_q3, 3, 1)), 1)]
    for code, t in cases:
        slow = _assert_uniform_matches_enumeration(code, t)
        assert list(_span_counts_by_generator(code, t).items()) == list(slow.counts.items()), \
            (code.label, t)


def _span_counts_by_generator(code, t):
    """The extension counts as the span route once took them: restrict each
    generator's Gram form to U on its own, span the digit vectors of the
    restrictions, and test every form for membership.  An oracle where
    enumerating the code does not fit."""
    tower = code.tower
    p = tower.p
    grams = [form_matrix(g) for g in code.generators]
    forms = scheme._hermitian_forms(tower, t)
    counts = {}
    for u in scheme._subspace_representatives(tower, t):
        image = FpSpan(t * t * tower.m, p)
        for gram in grams:
            image.add(tower.digit_vector(scheme._restrict(tower, u, gram)))
        fibre = p ** (code.dim - image.dim)
        for h in forms:
            counts[(u, h)] = fibre if image.contains(tower.digit_vector(h)) else 0
    return counts


def _generator_oracle_cases():
    """Parameters (code builder, t), each named: p = 2 with e = 2, q = 5, and
    n = 2 full spaces on byte lanes (p = 7; p = 13 reduces its lanes after
    every add) and on residue lists (p = 17), each also without its last
    generator, which makes the t = 2 counts non-uniform."""
    cases = [(f"H(3,2,1)q4-t{t}",
              lambda: build(ConstructionParams(family="H", q=4, n=3, d=2, s=1)), t)
             for t in (1, 2)]
    cases.append(("Htilde(3,1)q5-t1",
                  lambda: build(ConstructionParams(family="Htilde", q=5, n=3, s=1)), 1))
    for p in (7, 13, 17):
        for t in (1, 2):
            cases.append((f"full-n2-q{p}-t{t}", lambda p=p: full_space(make_tower(p, 1, 2)), t))
            cases.append((f"full-minus-one-n2-q{p}-t{t}",
                          lambda p=p: HermCode(make_tower(p, 1, 2),
                                               full_space(make_tower(p, 1, 2)).generators[:-1],
                                               label=f"full-minus-one q={p}"), t))
    return [pytest.param(builder, t, id=name) for name, builder, t in cases]


@pytest.mark.parametrize("builder, t", _generator_oracle_cases())
def test_extension_counts_span_route_matches_the_generator_oracle(builder, t):
    code = builder()
    expected = _span_counts_by_generator(code, t)
    values = set(expected.values())
    assert scheme.extension_uniform(code, t) == (len(values) == 1), (code.label, t)
    # and the enumeration, on the cases small enough to walk quickly
    if code.size * len(scheme._subspace_representatives(code.tower, t)) <= 30_000:
        slow = _assert_uniform_matches_enumeration(code, t)
        assert list(slow.counts.items()) == list(expected.items()), (code.label, t)
        if not slow.uniform:
            assert len(slow.witnesses) == 2
            assert all(expected[(w["subspace"], w["form"])] == w["count"]
                       for w in slow.witnesses)


@pytest.mark.parametrize("tower_name", ["tower_q2", "tower_q3"])
def test_extension_counts_of_the_zero_code(tower_name, request):
    # dim 0: only the zero form extends, once, on every subspace
    tower = request.getfixturevalue(tower_name)
    zero = HermCode(tower, [], label="zero")
    for t in (1, tower.n):
        rep = design_by_extension_count(zero, t)
        assert list(rep.counts.items()) == list(_span_counts_by_generator(zero, t).items())
        assert all(v == (0 if any(h) else 1) for (_, h), v in rep.counts.items())
        assert not rep.uniform
        assert not scheme.extension_uniform(zero, t)


def _h2_subcodes():
    """A prime p in {2, 3, 5}, t in {1, 2}, and the indices of a subset of
    the generators of the full 2 x 2 Hermitian space over F_{p^2}."""
    return st.tuples(st.sampled_from([2, 3, 5]), st.sampled_from([1, 2]),
                     st.sets(st.integers(0, 3)))


@settings(max_examples=40, deadline=None)
@given(_h2_subcodes())
def test_extension_uniform_matches_enumeration_on_h2_subcodes(case):
    p, t, keep = case
    full = full_space(make_tower(p, 1, 2))
    code = HermCode(full.tower, [g for i, g in enumerate(full.generators) if i in keep],
                    label=f"H2(p={p}) generators {sorted(keep)}")
    assert scheme.extension_uniform(code, t) == design_by_extension_count(code, t).uniform
