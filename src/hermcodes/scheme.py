"""Association-scheme analytics for Hermitian codes.

Inner distributions are exact rank histograms of the code span; dual inner
distributions come from two independent routes that must agree: enumeration
of the dual code, and the eigenvalue transform A'_k = sum_i Q_k(i) A_i with
Q computed by exact character sums over the full matrix space.  Character
values live in Z[zeta_p] with the vanishing-sum relation, never in floats.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .gf import FieldTower
from .hermitian import (HermCode, HermMatrix, dual_code, form_matrix,
                        hermitian_matrix_basis)
from .linalg import FpSpan, nullity_of_code_columns, rank_subfield_matrix, span_walk

DEFAULT_BUDGET = 1_000_000


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""


class ConsistencyError(RuntimeError):
    """A runtime cross-check that should be impossible to fail has failed."""


# -- cyclotomic integers -------------------------------------------------------


class CycloInt:
    """Element of Z[zeta_p] in the Z-basis 1, zeta, ..., zeta^{p-2}.

    Only what character sums need: construction from powers of zeta or from
    exponent counts, addition, and exact integrality testing via the relation
    1 + zeta + ... + zeta^{p-1} = 0.
    """

    __slots__ = ("p", "coords")

    def __init__(self, p: int, coords: Sequence[int]):
        if len(coords) != p - 1:
            raise ValueError(f"expected {p - 1} coordinates")
        self.p = p
        self.coords = tuple(coords)

    @classmethod
    def zero(cls, p: int) -> "CycloInt":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def from_zeta_power(cls, p: int, j: int) -> "CycloInt":
        j %= p
        if j < p - 1:
            coords = [0] * (p - 1)
            coords[j] = 1
            return cls(p, coords)
        return cls(p, (-1,) * (p - 1))

    @classmethod
    def from_exponent_counts(cls, p: int, counts: Sequence[int]) -> "CycloInt":
        """sum_j counts[j] * zeta^j for j in 0..p-1, reduced."""
        if len(counts) != p:
            raise ValueError(f"expected {p} exponent counts")
        top = counts[p - 1]
        return cls(p, [c - top for c in counts[: p - 1]])

    def __add__(self, other: "CycloInt") -> "CycloInt":
        if self.p != other.p:
            raise ValueError("mixed cyclotomic orders")
        return CycloInt(self.p, [a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "CycloInt":
        return CycloInt(self.p, [-a for a in self.coords])

    def is_rational_integer(self) -> bool:
        return not any(self.coords[1:])

    def as_int(self) -> int:
        if not self.is_rational_integer():
            raise ValueError(f"not a rational integer: {self.coords}")
        return self.coords[0]

    def __eq__(self, other) -> bool:
        return (isinstance(other, CycloInt) and self.p == other.p
                and self.coords == other.coords)

    def __hash__(self) -> int:
        return hash((self.p, self.coords))

    def __repr__(self) -> str:
        return f"CycloInt(p={self.p}, {self.coords})"


def char_value(tower: FieldTower, x: int) -> CycloInt:
    """chi(x) = zeta_p^{Tr_{F_q/F_p}(x)} for x in F_q, a nontrivial character."""
    return CycloInt.from_zeta_power(tower.p, tower.prime_trace(x))


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


def pairing(a: HermMatrix, b: HermMatrix) -> CycloInt:
    """<A, B> = chi(tr(A* B))."""
    return char_value(a.tower, conjugate_trace(a, b))


# -- inner distributions ---------------------------------------------------------


def inner_distribution(code: HermCode, threads: int = 1) -> tuple[int, ...]:
    """Rank histogram of the code span (the inner distribution of an additive code).

    `threads` is ignored; it is accepted only because the perfbench layer
    probe still passes `threads=2`.
    """
    t = code.tower
    n = t.n
    ee = 2 * t.e
    hist = [0] * (n + 1)
    for state in span_walk(t, [g.image_columns() for g in code.generators], [0] * t.m):
        hist[n - nullity_of_code_columns(t, state) // ee] += 1
    return tuple(hist)


def pairwise_inner_distribution(matrices: Sequence[HermMatrix],
                                budget: int = DEFAULT_BUDGET) -> tuple[Fraction, ...]:
    """A_i = |(C x C) on rank-i differences| / |C| for an arbitrary matrix set."""
    mats = list(matrices)
    if not mats:
        raise ValueError("empty set")
    if len(mats) ** 2 > budget:
        raise BudgetExceededError(f"{len(mats)}^2 pairs exceed budget {budget}")
    t = mats[0].tower
    n = t.n
    counts = [0] * (n + 1)
    for a in mats:
        for b in mats:
            rows = [[t.sub(x, y) for x, y in zip(ra, rb)]
                    for ra, rb in zip(a.rows, b.rows)]
            counts[rank_subfield_matrix(t, rows)] += 1
    return tuple(Fraction(c, len(mats)) for c in counts)


# -- eigenvalues by exact character sums -----------------------------------------


@dataclass(frozen=True)
class Eigenvalues:
    """Exact integer table Q[k][i] for the rank scheme on Hermitian matrices."""
    q: int
    n: int
    table: tuple[tuple[int, ...], ...]
    rank_counts: tuple[int, ...]  # |H_k|, the number of rank-k matrices

    def transform(self, inner: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(self.table[k][i] * int(a) for i, a in enumerate(inner))
                     for k in range(self.n + 1))


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
    """Exact Q_k(i) = sum over rank-k matrices A of chi(tr(A* B_i)).

    Every Q_k(i) is computed for two distinct rank-i representatives (the
    diagonal one and a seeded random congruence of it) and asserted equal,
    and asserted to be a rational integer in Z[zeta_p].  Cached per tower.
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
    for state in span_walk(tower, gen_states, [0] * (n2 + nreps)):
        rows = [state[r * n:(r + 1) * n] for r in range(n)]
        rk = rank_subfield_matrix(tower, rows)
        rank_counts[rk] += 1
        for ridx in range(nreps):
            tallies[ridx][rk][trace_digit[state[n2 + ridx]]] += 1

    table = []
    for k in range(n + 1):
        row = []
        for i in range(n + 1):
            v1 = CycloInt.from_exponent_counts(p, tallies[i][k])
            v2 = CycloInt.from_exponent_counts(p, tallies[n + 1 + i][k])
            if v1 != v2:
                raise ConsistencyError(
                    f"Q_{k}({i}) depends on the rank-{i} representative: {v1} vs {v2}")
            if not v1.is_rational_integer():
                raise ConsistencyError(f"Q_{k}({i}) is not a rational integer: {v1}")
            row.append(v1.as_int())
        table.append(tuple(row))
    result = Eigenvalues(q=tower.q, n=n, table=tuple(table), rank_counts=tuple(rank_counts))
    for k in range(n + 1):
        if result.table[k][0] != rank_counts[k]:
            raise ConsistencyError("Q_k(0) must equal the number of rank-k matrices")
    tower.cache[key] = result
    return result


# -- dual inner distribution and designs ------------------------------------------


def dual_inner_distribution(code: HermCode, method: str = "dual-code",
                            budget: int = DEFAULT_BUDGET,
                            inner: Optional[Sequence[int]] = None) -> tuple[int, ...]:
    """A'_k, by dual-code enumeration or by the eigenvalue transform.

    The eigenvalue route transforms `inner` when given, and otherwise
    enumerates the code.  Both methods return exact integers and are
    asserted non-negative, divisible by |C|, and normalized with A'_0 = |C|.
    """
    size = code.size
    if method == "dual-code":
        dual = dual_code(code)
        if dual.size > budget:
            raise BudgetExceededError(f"dual has {dual.size} words, budget {budget}")
        out = tuple(size * h for h in inner_distribution(dual))
    elif method == "eigenvalues":
        eig = eigenvalues(code.tower, budget=budget)
        out = eig.transform(inner if inner is not None else inner_distribution(code))
    else:
        raise ValueError(f"unknown method {method!r}")
    if out[0] != size or any(v < 0 or v % size for v in out):
        raise ConsistencyError(f"dual inner distribution fails basic constraints: {out}")
    return out


# -- per-code memo: each distribution is enumerated at most once per code object --


def cached_inner(code: HermCode) -> tuple[int, ...]:
    """inner_distribution(code), computed once and kept in code.cache."""
    if "inner" not in code.cache:
        inner = inner_distribution(code)
        if inner[0] != 1 or sum(inner) != code.size:
            raise ConsistencyError(f"inner distribution fails basic constraints: {inner}")
        code.cache["inner"] = inner
    return code.cache["inner"]


def cached_dual(code: HermCode, budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """dual_inner_distribution(code, "dual-code"), computed once and kept in
    code.cache.  The budget is tested on every call, so a kept result is only
    returned where computing it afresh would also have fit the budget."""
    dual = code.cache.get("dual")
    if dual is None:
        dual = code.cache["dual"] = dual_inner_distribution(code, "dual-code", budget=budget)
    elif sum(dual) // code.size > budget:
        raise BudgetExceededError(f"dual has {sum(dual) // code.size} words, budget {budget}")
    return dual


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
    return dual_strength(cached_dual(code, budget))


# -- negative q-binomials and the closed-form distribution -------------------------


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
    val = Fraction(1)
    for i in range(1, l + 1):
        val *= Fraction((-q) ** (m - i + 1) - 1, (-q) ** i - 1)
    if val.denominator != 1:
        raise AssertionError(f"negative q-binomial ({m},{l}) at q={q} not integral")
    return int(val)


def theorem_distribution(n: int, d: int, q: int, size: int) -> tuple[int, ...]:
    """Predicted inner distribution (A_0..A_n) of a maximum d-code that is an
    (n-d)-design:

      A_{n-i} = sum_{j=i}^{n-d} (-1)^{j-i} (-q)^{C(j-i,2)} [j i][n j]
                 (size/q^{nj} * (-1)^{(n+1)j} - 1)
    """
    out = [0] * (n + 1)
    out[0] = 1
    for i in range(n):
        acc = Fraction(0)
        for j in range(i, n - d + 1):
            sign = (-1) ** (j - i)
            binoms = neg_q_binom(j, i, q) * neg_q_binom(n, j, q)
            power = (-q) ** ((j - i) * (j - i - 1) // 2)
            inner = Fraction(size, q ** (n * j)) * ((-1) ** ((n + 1) * j)) - 1
            acc += sign * power * binoms * inner
        if acc.denominator != 1:
            raise AssertionError("closed-form distribution not integral")
        out[n - i] = int(acc)
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


@dataclass
class ExtensionCountReport:
    """Counts of codewords whose Gram form restricts to H on each t-subspace."""
    t: int
    uniform: bool
    common_count: Optional[int]
    counts: dict
    witnesses: list = field(default_factory=list)


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


def design_by_extension_count(code: HermCode, t: int, budget: int = DEFAULT_BUDGET,
                              method: str = "enumerate") -> ExtensionCountReport:
    """For every t-subspace U and Hermitian form H on U, count codewords whose
    Gram form restricted to U (in the canonical basis of U) equals H.

    The code is a t-design iff all counts coincide.

    The restriction f -> (Gram form of f on U) is F_p-linear, so on the
    F_p-span C of the generators each count is |C| / |image| for a form in
    the image (the F_p-span of the generators' restrictions) and 0 for any
    other form.  `method="span"` computes the counts that way, from the
    generators alone; `method="enumerate"` (the default, and the oracle)
    restricts every codeword.  Each is charged its own restrictions:
    dim(C) x subspaces for "span", |C| x subspaces for "enumerate".
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
        gen_grams = [form_matrix(g) for g in code.generators]
        counts = {}
        for u in subspaces:
            image = FpSpan(t * t * tower.m, p)
            for gram in gen_grams:
                image.add(tower.digit_vector(_restrict(tower, u, gram)))
            fibre = p ** (code.dim - image.dim)
            for h in forms:
                counts[(u, h)] = fibre if image.contains(tower.digit_vector(h)) else 0
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
