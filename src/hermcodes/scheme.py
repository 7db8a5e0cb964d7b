"""Association-scheme analytics for Hermitian codes.

Inner distributions are exact rank histograms of the code span.  The codes
are additive, so closed under scaling by F_p^*, and scaling by c != 0 keeps
the rank; the histogram ranks the zero word once (weight 1) and one word per
F_p^*-line of the span (weight p - 1), 1 + (|C| - 1)/(p - 1) words in all.
A word is walked and ranked as its n x n Gram matrix over F_{q^2}, the
rank the paper defines: at q <= 16 each entry is a byte index into F_{q^2}
(`linalg.gram_word`), so a walk step is one table lookup per entry and the
rank an elimination of n byte rows (`gram_rank`).  Above q = 16 a word is
its list of m = 2ne image columns, ranked by their F_p-nullity.
Dual inner distributions come from two independent routes that must agree:
enumeration of the dual code, and the eigenvalue transform
A'_k = sum_i Q_k(i) A_i of the enumerated code.  `eigenvalues` computes Q
by exact character sums over the full matrix space, never in floats: a sum
sum_j c_j zeta_p^j is tallied by trace digit j, is a rational integer iff
c_1 = ... = c_{p-1}, and then equals c_0 - c_{p-1}.

The eigenvalues also have a closed form in negative q-binomials
(`closed_form_eigenvalues`), pinned to the character sums by tests, and
Q Q = q^(n^2) I, so either side of the MacWilliams pair gives the other.
One rule picks the side that is walked: `distributions` walks C-perp when
|C-perp| = q^(n^2)/|C| <= |C| and C otherwise, charges that side's size
against the budget on every call, and derives the other side by the closed
form.  Walked distributions are kept in code.cache["inner"] (C walked) or
code.cache["dual"] (C-perp walked) by `walked`, so a battery walks each
side at most once.  A derived distribution must divide exactly and be
non-negative, with A_0 = 1 and sum |C|, or A'_0 = |C| and every A'_k
divisible by |C|; otherwise ConsistencyError is raised.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import NamedTuple, Optional, Sequence

from .gf import FieldTower
from .hermitian import (HermCode, HermMatrix, dual_code, form_matrix,
                        hermitian_matrix_basis)
from .linalg import (PackedMap, gram_add, gram_operand, gram_rank, gram_word, line_walk,
                     nullity_of_code_columns, q2_tables, rank_subfield_matrix, row_key,
                     span_walk, vector_add)

DEFAULT_BUDGET = 1_000_000


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""


class ConsistencyError(RuntimeError):
    """A runtime cross-check that should be impossible to fail has failed."""


# -- inner distributions ---------------------------------------------------------


def inner_distribution(code: HermCode, threads: int = 1) -> tuple[int, ...]:
    """Rank histogram of the code span (the inner distribution of an additive code).

    An additive code is closed under scaling by c in F_p^*, and X and cX
    have the same rank, so one word per F_p^*-line is ranked (`line_walk`):
    the zero word with weight 1 and each later word with weight p - 1.  The
    generators are F_p-independent, so the lines cover each nonzero word
    exactly once.  A word is its n x n Gram matrix, which is F_p-linear in
    the polynomial: at q <= 16 the walk adds the generators' matrices
    (`HermCode.generator_forms`) as byte words and `gram_rank` eliminates
    them over F_{q^2}; above that it adds their image columns and ranks the
    F_p-nullity of each (`nullity_of_code_columns`).

    `threads` is ignored; it is accepted only because the perfbench layer
    probe still passes `threads=2`.
    """
    t = code.tower
    n = t.n
    tables = q2_tables(t)
    if tables is None:
        gens = [g.image_columns() for g in code.generators]
        words = line_walk(t.p, gens, [0] * t.m, vector_add(t))
        ranks = (n - nullity_of_code_columns(t, w) // (2 * t.e) for w in words)
    else:
        gens = [gram_operand(tables, gram_word(tables, g)) for g in code.generator_forms()]
        words = line_walk(t.p, gens, bytes(n * n), gram_add)
        ranks = (gram_rank(tables, w, n) for w in words)
    hist = [0] * (n + 1)
    weight = 1
    for rank in ranks:
        hist[rank] += weight
        weight = t.p - 1
    return tuple(hist)


# -- eigenvalues by exact character sums -----------------------------------------


class Eigenvalues(NamedTuple):
    """Exact integer table Q[k][i] for the rank scheme on Hermitian matrices."""
    q: int
    n: int
    table: tuple[tuple[int, ...], ...]
    rank_counts: tuple[int, ...]  # |H_k|, the number of rank-k matrices

    def transform(self, inner: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(self.table[k][i] * int(a) for i, a in enumerate(inner))
                     for k in range(self.n + 1))


def conjugate_trace(a: HermMatrix, b: HermMatrix) -> int:
    """tr(A* B) = sum_{j,k} conj(A_{kj}) B_{kj}; lands in F_q for Hermitian pairs."""
    t = a.tower
    acc = 0
    for j in range(t.n):
        for k in range(t.n):
            x = a.rows[k][j]
            y = b.rows[k][j]
            if x and y:
                acc = t.add(acc, t.mul(t.frobenius(x, 1), y))
    if not t.in_subfield(acc, 1):
        raise ConsistencyError("trace form left F_q on a Hermitian pair")
    return acc


def _character_sum(counts: Sequence[int]) -> int:
    """sum_j counts[j] zeta^j for zeta a primitive p-th root of unity, p =
    len(counts), as a rational integer.  By 1 + zeta + ... + zeta^(p-1) = 0
    the sum is sum_{j<p-1} (c_j - c_{p-1}) zeta^j, and 1, ..., zeta^(p-2)
    is a Z-basis of Z[zeta], so it is rational iff c_1 = ... = c_{p-1}, and
    then equals c_0 - c_{p-1}."""
    if len(set(counts[1:])) > 1:
        raise ConsistencyError(f"trace digit counts {list(counts)} do not sum to "
                               f"a rational integer")
    return counts[0] - counts[-1]


def _congruence(tower: FieldTower, pmat: list[list[int]], b: HermMatrix) -> HermMatrix:
    """P* B P, a rank-preserving Hermitian congruence."""
    n = tower.n
    star = [[tower.frobenius(pmat[k][j], 1) for k in range(n)] for j in range(n)]
    flat = _restrict(tower, star, b.rows)
    return HermMatrix(tower, [flat[r * n:(r + 1) * n] for r in range(n)])


def _dot(tower: FieldTower, xs, ys):
    acc = 0
    for x, y in zip(xs, ys):
        if x and y:
            acc = tower.add(acc, tower.mul(x, y))
    return acc


def _random_invertible(tower: FieldTower, rng: random.Random) -> list[list[int]]:
    n = tower.n
    pool = tower.subfield_elements(2)
    while True:
        mat = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        if rank_subfield_matrix(tower, mat) == n:
            return mat


def eigenvalues(tower: FieldTower, budget: int = DEFAULT_BUDGET) -> Eigenvalues:
    """Exact Q_k(i) = sum over rank-k matrices A of zeta_p^Tr(tr(A* B_i)),
    Tr the trace from F_q to F_p.

    Each sum is tallied by trace digit and reduced by `_character_sum`, which
    asserts that it is a rational integer.  Every Q_k(i) is computed for two
    distinct rank-i representatives (the diagonal one and a seeded random
    congruence of it) and asserted equal.  Cached per tower.
    """
    n = tower.n
    total = tower.q ** (n * n)
    if total > budget:
        raise BudgetExceededError(f"{total} Hermitian matrices exceed budget {budget}")
    key = "eigenvalues"
    if key in tower.cache:
        return tower.cache[key]

    p = tower.p
    reps: list[HermMatrix] = []
    for i in range(n + 1):
        rows = [[1 if (j == k and j < i) else 0 for k in range(n)] for j in range(n)]
        reps.append(HermMatrix(tower, rows))
    rng = random.Random(2024)
    pmat = _random_invertible(tower, rng)
    alt = [_congruence(tower, pmat, b) for b in reps]
    for i, m2 in enumerate(alt):
        if m2.rank() != i:
            raise ConsistencyError("congruence changed the rank of a representative")
    all_reps = reps + alt

    basis = hermitian_matrix_basis(tower)
    # state = n*n matrix entries followed by tr(Delta* B) per representative;
    # both are additive, so the whole state rides the span odometer
    gen_states = []
    for vec in basis:
        mat = HermMatrix(tower, [vec[r * n:(r + 1) * n] for r in range(n)])
        gen_states.append(list(vec) + [conjugate_trace(mat, b) for b in all_reps])

    trace_digit = {x: tower.prime_trace(x) for x in tower.subfield_elements(1)}
    nreps = len(all_reps)
    tallies = [[[0] * p for _ in range(n + 1)] for _ in range(nreps)]
    rank_counts = [0] * (n + 1)
    n2 = n * n
    for state in span_walk(p, gen_states, [0] * (n2 + nreps), vector_add(tower)):
        rows = [state[r * n:(r + 1) * n] for r in range(n)]
        rk = rank_subfield_matrix(tower, rows)
        rank_counts[rk] += 1
        for ridx in range(nreps):
            tallies[ridx][rk][trace_digit[state[n2 + ridx]]] += 1

    table = []
    for k in range(n + 1):
        row = []
        for i in range(n + 1):
            v1 = _character_sum(tallies[i][k])
            v2 = _character_sum(tallies[n + 1 + i][k])
            if v1 != v2:
                raise ConsistencyError(
                    f"Q_{k}({i}) depends on the rank-{i} representative: {v1} vs {v2}")
            row.append(v1)
        table.append(tuple(row))
    result = Eigenvalues(q=tower.q, n=n, table=tuple(table), rank_counts=tuple(rank_counts))
    for k in range(n + 1):
        if result.table[k][0] != rank_counts[k]:
            raise ConsistencyError("Q_k(0) must equal the number of rank-k matrices")
    tower.cache[key] = result
    return result


# -- dual inner distribution and designs ------------------------------------------


def dual_inner_distribution(code: HermCode, method: str = "dual-code",
                            budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """A'_k, by dual-code enumeration or by the character-sum eigenvalue
    transform of the enumerated code.  Both methods return exact integers and
    are asserted non-negative, divisible by |C|, and normalized with
    A'_0 = |C|.
    """
    size = code.size
    if method == "dual-code":
        dual = dual_code(code)
        if dual.size > budget:
            raise BudgetExceededError(f"dual has {dual.size} words, budget {budget}")
        out = tuple(size * h for h in inner_distribution(dual))
    elif method == "eigenvalues":
        eig = eigenvalues(code.tower, budget=budget)
        out = eig.transform(inner_distribution(code))
    else:
        raise ValueError(f"unknown method {method!r}")
    return _checked_dual(out, size)


def _checked_dual(dual: tuple[int, ...], size: int) -> tuple[int, ...]:
    """`dual` itself, once A'_0 = |C| and every A'_k is non-negative and
    divisible by |C|."""
    if dual[0] != size or any(v < 0 or v % size for v in dual):
        raise ConsistencyError(f"dual inner distribution fails basic constraints: {dual}")
    return dual


# -- per-code memo: each side of the MacWilliams pair is walked at most once ------


def walked(code: HermCode, side: str, budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """The distribution of one side by enumeration, kept in code.cache[side]:
    "inner" walks C (`inner_distribution`), "dual" walks C-perp
    (`dual_inner_distribution`, method "dual-code").  The side's size is
    charged against the budget on every call, before anything is built, so a
    kept result is only returned where walking afresh would also fit."""
    size = code.size if side == "inner" else code.tower.q ** (code.n ** 2) // code.size
    if size > budget:
        raise BudgetExceededError(
            f"{'code' if side == 'inner' else 'dual'} has {size} words, budget {budget}")
    if side not in code.cache:
        code.cache[side] = (inner_distribution(code) if side == "inner"
                            else dual_inner_distribution(code, "dual-code", budget=budget))
    return code.cache[side]


def distributions(code: HermCode,
                  budget: int = DEFAULT_BUDGET) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(inner, dual) distributions of the code.  The smaller side is walked
    (`walked`): C-perp when |C-perp| = q^(n^2)/|C| <= |C|, else C.  The other
    side is derived by the closed-form eigenvalues, `inner_from_dual` one way
    and the transform A' = Q A the other."""
    q, n, size = code.tower.q, code.n, code.size
    if q ** (n * n) // size <= size:
        dual = walked(code, "dual", budget)
        inner = inner_from_dual(dual, q, n)
    else:
        inner = walked(code, "inner", budget)
        dual = _checked_dual(closed_form_eigenvalues(q, n).transform(inner), size)
    if inner[0] != 1 or sum(inner) != size:
        raise ConsistencyError(f"inner distribution fails basic constraints: {inner}")
    return inner, dual


def min_rank(inner: Sequence[int]) -> int:
    """Least nonzero rank in an inner distribution (0 for the zero code)."""
    return next((i for i, a in enumerate(inner) if i and a), 0)


def dual_strength(dual: Sequence[int]) -> int:
    """Largest t with A'_1 = ... = A'_t = 0 (0 when A'_1 != 0)."""
    return next((k - 1 for k in range(1, len(dual)) if dual[k]), len(dual) - 1)


def max_code_size(q: int, n: int, d: int) -> int:
    """q^(n(n-d+1)), the size of a maximum additive code of minimum rank d."""
    return q ** (n * (n - d + 1))


def design_strength(code: HermCode, budget: int = DEFAULT_BUDGET) -> int:
    """Largest t such that the code is a t-design (see dual_strength)."""
    return dual_strength(distributions(code, budget)[1])


# -- negative q-binomials and the closed forms --------------------------------------


def neg_q_binom(m: int, l: int, q: int) -> int:
    """Gaussian binomial evaluated at -q; exact integer.

    l > m returns 0 by the empty-Gaussian convention so closed-form sums
    need no boundary branches.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if l < 0 or m < 0:
        raise ValueError("arguments must be non-negative")
    if l > m:
        return 0
    num = den = 1
    for i in range(1, l + 1):
        num *= (-q) ** (m - i + 1) - 1
        den *= (-q) ** i - 1
    if num % den:
        raise AssertionError(f"negative q-binomial ({m},{l}) at q={q} not integral")
    return num // den


@functools.cache
def closed_form_eigenvalues(q: int, n: int) -> Eigenvalues:
    """Q_k(i) = sum_{j=0}^{k} (-1)^{k-j} b^{C(k-j,2)} c^j [n-j, n-k]_b [n-i, j]_b
    with b = -q and c = -(-q)^n (K.-U. Schmidt, "Hermitian rank distance
    codes", 2018); rank_counts is column 0.  `eigenvalues` is its oracle.
    Kept per (q, n), since `distributions` derives a side through it on
    every call; the table is immutable."""
    b, c = -q, -((-q) ** n)
    table = tuple(
        tuple(sum((-1) ** (k - j) * b ** ((k - j) * (k - j - 1) // 2) * c ** j
                  * neg_q_binom(n - j, n - k, q) * neg_q_binom(n - i, j, q)
                  for j in range(k + 1))
              for i in range(n + 1))
        for k in range(n + 1))
    return Eigenvalues(q=q, n=n, table=table, rank_counts=tuple(row[0] for row in table))


def inner_from_dual(dual: Sequence[int], q: int, n: int) -> tuple[int, ...]:
    """A = Q A' / q^(n^2), the inner distribution of C from its dual inner
    distribution A' (normalised A'_0 = |C|), since Q Q = q^(n^2) I.  Every
    entry must divide exactly and be non-negative."""
    total = q ** (n * n)
    inner = []
    for v in closed_form_eigenvalues(q, n).transform(dual):
        if v < 0 or v % total:
            raise ConsistencyError(f"dual distribution {tuple(dual)} does not transform "
                                   f"to an inner distribution")
        inner.append(v // total)
    return tuple(inner)


def theorem_distribution(n: int, d: int, q: int, size: int) -> tuple[int, ...]:
    """Predicted inner distribution (A_0..A_n) of a maximum d-code that is an
    (n-d)-design:

      A_{n-i} = sum_{j=i}^{n-d} (-1)^{j-i} (-q)^{C(j-i,2)} [j i][n j]
                 (size/q^{nj} * (-1)^{(n+1)j} - 1)

    Each sum is taken times scale = q^{n(n-d)}, which every q^{nj} divides,
    and must then divide exactly by scale.
    """
    top = n - d
    scale = q ** (n * max(top, 0))
    out = [0] * (n + 1)
    out[0] = 1
    for i in range(n):
        acc = 0
        for j in range(i, top + 1):
            sign = (-1) ** (j - i)
            binoms = neg_q_binom(j, i, q) * neg_q_binom(n, j, q)
            power = (-q) ** ((j - i) * (j - i - 1) // 2)
            inner = size * q ** (n * (top - j)) * (-1) ** ((n + 1) * j) - scale
            acc += sign * power * binoms * inner
        if acc % scale:
            raise AssertionError("closed-form distribution not integral")
        out[n - i] = acc // scale
    return tuple(out)


def full_rank_residue(n: int, d: int, q: int, size: int) -> int:
    """A_n mod q^{n-d} from the closed-form distribution.

    For a maximum d-code (size q^{n(n-d+1)}) that is an (n-d)-design, d < n,
    this is 0.  With b = -q the closed form reads

      A_n = sum_{j=0}^{n-d} (-1)^j b^{C(j,2)} [n j]_b
                (q^{n(n-d+1-j)} (-1)^{(n+1)j} - 1).

    Each q-power part is divisible by q^n, since j <= n-d.  By the Gaussian
    binomial theorem sum_{j=0}^{n} (-1)^j b^{C(j,2)} [n j]_b =
    prod_{i=0}^{n-1} (1 - b^i) = 0, so A_n = sum_{j=n-d+1}^{n} (-1)^j
    b^{C(j,2)} [n j]_b (mod q^n), and every term there has C(j,2) >= n-d.
    """
    return theorem_distribution(n, d, q, size)[n] % (q ** (n - d))


def delta_identity_holds(k: int, i: int, q: int) -> bool:
    """sum_{j=i}^k (-1)^{j-i} (-q)^{C(j-i,2)} [j i][k j] == delta_{k,i}."""
    acc = 0
    for j in range(i, k + 1):
        acc += ((-1) ** (j - i) * (-q) ** ((j - i) * (j - i - 1) // 2)
                * neg_q_binom(j, i, q) * neg_q_binom(k, j, q))
    return acc == (1 if k == i else 0)


# -- design characterization by extension counting ---------------------------------


class ExtensionCountReport(NamedTuple):
    """Counts of codewords whose Gram form restricts to H on each t-subspace."""
    t: int
    uniform: bool
    common_count: Optional[int]
    counts: dict
    witnesses: list


def _subspace_representatives(tower: FieldTower, t: int) -> list[tuple[tuple[int, ...], ...]]:
    """Canonical RREF bases of all t-dimensional subspaces of F_{q^2}^n."""
    n = tower.n
    elems = tower.subfield_elements(2)
    out = []
    for pivots in itertools.combinations(range(n), t):
        free_pos = []
        for r in range(t):
            for c in range(pivots[r] + 1, n):
                if c not in pivots:
                    free_pos.append((r, c))
        for values in itertools.product(elems, repeat=len(free_pos)):
            rows = [[0] * n for _ in range(t)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), v in zip(free_pos, values):
                rows[r][c] = v
            out.append(tuple(tuple(r) for r in rows))
    return out


def _hermitian_forms(tower: FieldTower, t: int) -> list[tuple[int, ...]]:
    """All t x t Hermitian matrices, flattened row-major."""
    mats = []
    diag_choices = [tower.subfield_elements(1)] * t
    off_positions = [(j, k) for j in range(t) for k in range(j + 1, t)]
    off_choices = [tower.subfield_elements(2)] * len(off_positions)
    for diag in itertools.product(*diag_choices):
        for offs in itertools.product(*off_choices):
            rows = [[0] * t for _ in range(t)]
            for j, v in enumerate(diag):
                rows[j][j] = v
            for (j, k), v in zip(off_positions, offs):
                rows[j][k] = v
                rows[k][j] = tower.frobenius(v, 1)
            mats.append(tuple(c for row in rows for c in row))
    return mats


def _restrict(tower: FieldTower, u, gram: list[list[int]]) -> tuple[int, ...]:
    """The Gram form restricted to the subspace with basis rows u, flattened
    row-major: entry (a, b) is u_a G conj(u_b)^T."""
    n = tower.n
    conj = [tuple(tower.frobenius(c, 1) for c in row) for row in u]
    restricted = []
    for ua in u:
        ga = [_dot(tower, ua, [gram[j][k] for j in range(n)]) for k in range(n)]
        for cb in conj:
            restricted.append(_dot(tower, ga, cb))
    return tuple(restricted)


def _q2_coordinates(tower: FieldTower) -> dict:
    """The F_p-coordinates of every element of F_{q^2} in `basis_over_prime(2)`."""
    key = "q2_coordinates"
    if key not in tower.cache:
        p = tower.p
        basis = list(zip(*(tower.digits(b) for b in tower.basis_over_prime(2))))
        tower.cache[key] = {
            tower.from_digits(sum(c * d for c, d in zip(cs, row)) % p for row in basis): cs
            for cs in itertools.product(range(p), repeat=2 * tower.e)}
    return tower.cache[key]


def _probes(tower: FieldTower, t: int) -> list[tuple[int, ...]]:
    """Vectors x of F_{q^2}^t whose values x H conj(x)^T determine a t x t
    Hermitian form H, F_p-linearly: the unit vectors e_a give the diagonal,
    and e_a + e_b and e_a + w e_b for a < b, with w outside F_q, give the
    traces to F_q of H_ab and of w^q H_ab, hence H_ab.  Each x is 1 at its
    first nonzero entry."""
    units = [tuple(int(i == a) for i in range(t)) for a in range(t)]
    if t == 1:
        return units
    w = tower.subfield_generator(2)
    return units + [tuple(1 if i == a else lam if i == b else 0 for i in range(t))
                    for a, b in itertools.combinations(range(t), 2) for lam in (1, w)]


def _probe_coordinates(tower: FieldTower, h, probes) -> list[int]:
    """The coordinates of x H conj(x)^T at each probe x, concatenated, for a
    t x t form H flattened row-major: H as the images of `_restricted_spans`
    give it."""
    coords, t = _q2_coordinates(tower), len(probes[0])
    out = []
    for x in probes:
        conj = [tower.frobenius(c, 1) for c in x]
        acc = 0
        for a, xa in enumerate(x):
            for b, cb in enumerate(conj):
                if xa and cb and h[a * t + b]:
                    acc = tower.add(acc, tower.mul(tower.mul(xa, h[a * t + b]), cb))
        out += coords[acc]
    return out


def _restricted_spans(code: HermCode, subspaces, probes):
    """Yield, for each subspace U in order, U and the F_p-span of the
    generators' Gram forms restricted to U, each restriction given by its
    values R(v, v) = v G conj(v)^T at v = sum_a x_a U_a for the probes x.

    G is Hermitian, so R(v, v) = sum_j G_jj w_jj + sum_{j<k} Tr(G_jk w_jk)
    with w_jk = v_j conj(v_k), which is F_p-linear in the coordinates of the
    w_jk.  One `PackedMap` per code holds that map: column (j, k, d), j <= k,
    is G_jj b_d, or G_jk b_d + G_kj b_d^q, for every generator, b_d running
    over the F_p-basis of F_{q^2}.  Each U then costs the products w_jk and
    one image, whatever dim(C).  A reducer reads each span whole: the
    extension count its members, a count that needs only its dimension
    (the radical count of ROADMAP item 15) its dim."""
    tower = code.tower
    n, p, mul, add = tower.n, tower.p, tower.mul, tower.add
    coords = _q2_coordinates(tower)
    pairs = [(j, k) for j in range(n) for k in range(j, n)]
    basis = [(b, tower.frobenius(b, 1)) for b in tower.basis_over_prime(2)]
    grams = code.generator_forms()
    cols = [[coords[mul(g[j][j], b) if j == k else add(mul(g[j][k], b), mul(g[k][j], cb))]
             for g in grams]
            for j, k in pairs for b, cb in basis]
    fmap = PackedMap(cols, p, len(basis), len(probes))
    for u in subspaces:
        coeffs = []
        for x in probes:
            a = x.index(1)
            v = u[a]
            for xb, ub in zip(x[a + 1:], u[a + 1:]):
                if xb:
                    v = list(map(add, v, (mul(xb, c) for c in ub)))
            conj = [tower.frobenius(c, 1) for c in v]
            coeffs.append([c for j, k in pairs for c in coords[mul(v[j], conj[k])]])
        yield u, fmap.image(coeffs)


def design_by_extension_count(code: HermCode, t: int, budget: int = DEFAULT_BUDGET,
                              method: str = "enumerate") -> ExtensionCountReport:
    """For every t-subspace U and Hermitian form H on U, count codewords whose
    Gram form restricted to U (in the canonical basis of U) equals H.

    The code is a t-design iff all counts coincide.

    The restriction f -> (Gram form of f on U) is F_p-linear, so on the
    F_p-span C of the generators each count is |C| / |image| for a form in
    the image (the F_p-span of the generators' restrictions) and 0 for any
    other form.  `method="span"` computes the counts that way: one packed
    F_p-linear map per code restricts every generator to U at once
    (`_restricted_spans`), and a walk of the image span, never larger than
    the list of forms, marks the forms it holds.  `method="enumerate"` (the
    default, and the oracle) restricts every codeword.  Each is charged its
    own restrictions: dim(C) x subspaces for "span", |C| x subspaces for
    "enumerate".
    """
    tower = code.tower
    if t < 1 or t > tower.n:
        raise ValueError(f"t must be in 1..{tower.n}")
    if method not in ("span", "enumerate"):
        raise ValueError(f"unknown method {method!r}")
    subspaces = _subspace_representatives(tower, t)
    per_subspace = code.dim if method == "span" else code.size
    if per_subspace * len(subspaces) > budget:
        raise BudgetExceededError(
            f"{per_subspace} x {len(subspaces)} subspace restrictions exceed budget {budget}")
    forms = _hermitian_forms(tower, t)
    if method == "span":
        p = tower.p
        probes = _probes(tower, t)
        form_of = {row_key(_probe_coordinates(tower, h, probes), p): h for h in forms}
        counts = {}
        for u, image in _restricted_spans(code, subspaces, probes):
            held = {form_of[key] for key in image.members()}
            fibre = p ** (code.dim - image.dim)
            for h in forms:
                counts[(u, h)] = fibre if h in held else 0
    else:
        counts = {(u, h): 0 for u in subspaces for h in forms}
        for f in code.iter_span():
            gram = form_matrix(f)
            for u in subspaces:
                counts[(u, _restrict(tower, u, gram))] += 1
    values = set(counts.values())
    uniform = len(values) == 1
    witnesses = []
    if not uniform:
        by_val: dict[int, tuple] = {}
        for kpair, v in counts.items():
            by_val.setdefault(v, kpair)
            if len(by_val) == 2:
                break
        for v, (u, h) in sorted(by_val.items()):
            witnesses.append({"subspace": u, "form": h, "count": v})
    return ExtensionCountReport(
        t=t, uniform=uniform,
        common_count=values.pop() if uniform else None,
        counts=counts, witnesses=witnesses)
