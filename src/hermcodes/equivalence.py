"""Computational equivalence toolkit: code kernels, idealisers, supports,
and invariant fingerprints.

The kernel of a code is computed in the block-diagonal form it must take for
additive codes (the zero word always belongs): pairs (N1, N2) of F_p-linear
maps on F_{q^2n} with N2 . X = X . N1 for every codeword map X, a condition
that is linear in X and therefore settled on generators.  Matrices act on
digit column vectors in the ambient power basis; N1 acts on the domain copy
and N2 on the codomain copy.

Idealisers are solved in the polynomial model: left means Z with Z o f in
the code for every codeword f, right means f o Z.  Both are F_p-linear
membership systems over the code span.

Fingerprints collect exact invariants preserved by both equivalence notions.
The universal support size is reported alongside but never used to certify
inequivalence: composing with a permutation polynomial can change supports,
so matching invariants with differing supports must stay "inconclusive".
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .gf import FieldTower
from .hermitian import HermCode, HermMatrix, poly_from_gram, poly_vector
from .linalg import FpSpan, nullspace_mod_p, rank_mod_p, span_walk
from .linpoly import LinPoly
from .scheme import DEFAULT_BUDGET, analyze, dual_strength


# -- F_p matrices of additive maps ----------------------------------------------


def fp_matrix_of_map(tower: FieldTower, images: Sequence[int]) -> list[list[int]]:
    """Matrix (column convention) of the additive map sending the ambient
    power basis to the given images."""
    cols = [tower.digits(c) for c in images]
    return [[cols[c][r] for c in range(tower.m)] for r in range(tower.m)]


def fp_matrix_of_poly(f: LinPoly) -> list[list[int]]:
    return fp_matrix_of_map(f.tower, f.image_columns())


def _matmul_p(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) % p for col in cols] for row in a]


def _scalar_matrix(tower: FieldTower, c: int) -> list[list[int]]:
    return fp_matrix_of_map(tower, [tower.mul(c, b) for b in tower.ambient_basis()])


@dataclass
class EndoSolution:
    """Solution space of a kernel or idealiser system over F_p.

    `pairs` carries (N1, N2) matrix pairs for kernel systems; `polys`
    carries the solution polynomials for idealiser systems.  `structure`
    is "field" when the space is closed under composition and every nonzero
    element checked is invertible; `certified` says whether that check was
    exhaustive (it is whenever the order is at most q^4).
    """
    dim: int
    order: int
    structure: str
    field_order: Optional[int]
    certified: bool
    pairs: Optional[list] = None
    polys: Optional[list[LinPoly]] = None
    meta: dict = field(default_factory=dict)


def _structure_of_pairs(tower: FieldTower, basis_pairs: list, span: FpSpan,
                        exhaustive_limit: int) -> tuple[str, bool]:
    """Closure under composition plus invertibility of nonzero elements."""
    p = tower.p
    m = tower.m
    order = p ** len(basis_pairs)

    def vec_of(pair):
        return [x for row in pair[0] for x in row] + [x for row in pair[1] for x in row]

    closed = True
    for (a1, a2) in basis_pairs:
        for (b1, b2) in basis_pairs:
            prod = (_matmul_p(a1, b1, p), _matmul_p(a2, b2, p))
            if not span.contains(vec_of(prod)):
                closed = False
                break
        if not closed:
            break

    def is_invertible(pair):
        return rank_mod_p(pair[0], p) == m and rank_mod_p(pair[1], p) == m

    def combo(coeffs):
        n1 = [[0] * m for _ in range(m)]
        n2 = [[0] * m for _ in range(m)]
        for c, (b1, b2) in zip(coeffs, basis_pairs):
            if c:
                for i in range(m):
                    for j in range(m):
                        n1[i][j] = (n1[i][j] + c * b1[i][j]) % p
                        n2[i][j] = (n2[i][j] + c * b2[i][j]) % p
        return n1, n2

    certified = order <= exhaustive_limit
    singular = False
    if certified:
        for coeffs in itertools.product(range(p), repeat=len(basis_pairs)):
            if not any(coeffs):
                continue
            if not is_invertible(combo(coeffs)):
                singular = True
                break
    else:
        rng = random.Random(11)
        candidates = [tuple(1 if i == j else 0 for j in range(len(basis_pairs)))
                      for i in range(len(basis_pairs))]
        candidates += [tuple(rng.randrange(p) for _ in range(len(basis_pairs)))
                       for _ in range(64)]
        for coeffs in candidates:
            if any(coeffs) and not is_invertible(combo(coeffs)):
                singular = True
                break
    structure = "field" if (closed and not singular) else "non-field"
    return structure, certified


def kernel_K(code: HermCode, exhaustive_limit: Optional[int] = None) -> EndoSolution:
    """The code kernel in block-diagonal form: pairs (N1, N2) of F_p-matrices
    with N2 X = X N1 for every codeword map X (generators suffice).

    When the identity map belongs to the code, N1 = N2 is forced and
    reported in meta["identity_in_code"].  meta["contains_q2_scalars"]
    records containment of the scalar pairs from F_{q^2}.
    """
    t = code.tower
    m = t.m
    p = t.p
    if exhaustive_limit is None:
        exhaustive_limit = t.q ** 4
    gen_mats = [fp_matrix_of_poly(g) for g in code.generators]
    nvars = 2 * m * m  # N1 first, then N2

    rows = []
    for x in gen_mats:
        for i in range(m):
            for j in range(m):
                row = [0] * nvars
                # (N2 X)_{ij} - (X N1)_{ij} = 0
                for k in range(m):
                    row[m * m + i * m + k] = (row[m * m + i * m + k] + x[k][j]) % p
                    row[k * m + j] = (row[k * m + j] - x[i][k]) % p
                rows.append(row)
    basis_vecs = nullspace_mod_p(rows, nvars, p) if rows else \
        [[1 if i == j else 0 for j in range(nvars)] for i in range(nvars)]
    pairs = []
    span = FpSpan(nvars, p)
    for v in basis_vecs:
        span.add(v)
        n1 = [v[r * m:(r + 1) * m] for r in range(m)]
        n2 = [v[m * m + r * m: m * m + (r + 1) * m] for r in range(m)]
        pairs.append((n1, n2))
    dim = len(pairs)
    order = p ** dim
    structure, certified = _structure_of_pairs(t, pairs, span, exhaustive_limit)

    contains_scalars = True
    for beta in t.basis_over_prime(2):
        sm = _scalar_matrix(t, beta)
        vec = [x for row in sm for x in row] * 2
        if not span.contains(vec):
            contains_scalars = False
            break
    # the identity matrix of the Gram model corresponds to a Hermitian
    # polynomial that is not the identity map; detect that form instead
    eye = HermMatrix(t, [[1 if j == k else 0 for k in range(t.n)] for j in range(t.n)])
    identity_form_in_code = code.contains(poly_from_gram(t, eye))
    blocks_equal = all(pair[0] == pair[1] for pair in pairs)
    return EndoSolution(
        dim=dim, order=order, structure=structure,
        field_order=order if structure == "field" else None,
        certified=certified, pairs=pairs,
        meta={"contains_q2_scalars": contains_scalars,
              "identity_form_in_code": identity_form_in_code,
              "blocks_equal": blocks_equal})


def _composition_columns(code: HermCode, side: str) -> list[list[int]]:
    """Columns of the map Z -> Z o g (left) or g o Z (right), per generator,
    in the coefficient digit coordinates of the polynomial algebra."""
    t = code.tower
    n, m = t.n, t.m
    cols = []
    for i in range(n):
        for beta in t.ambient_basis():
            unit = LinPoly.monomial(t, beta, i)
            per_gen = []
            for g in code.generators:
                comp = unit.compose(g) if side == "left" else g.compose(unit)
                per_gen.extend(poly_vector(comp))
            cols.append(per_gen)
    return cols


def _idealiser(code: HermCode, side: str,
               exhaustive_limit: Optional[int] = None) -> EndoSolution:
    t = code.tower
    p = t.p
    n, m = t.n, t.m
    if exhaustive_limit is None:
        exhaustive_limit = t.q ** 4
    # membership in the code span, expressed through the nullspace of the
    # generator matrix: v in rowspace(B) iff w . v = 0 for all w in null(B)
    gen_rows = [poly_vector(g) for g in code.generators]
    checks = nullspace_mod_p(gen_rows, n * m, p)
    cols = _composition_columns(code, side)
    nvars = len(cols)
    rows = []
    for gidx in range(code.dim):
        base = gidx * n * m
        for w in checks:
            row = [sum(w[r] * col[base + r] for r in range(n * m)) % p for col in cols]
            rows.append(row)
    basis_vecs = nullspace_mod_p(rows, nvars, p) if rows else \
        [[1 if i == j else 0 for j in range(nvars)] for i in range(nvars)]

    ambient = t.ambient_basis()
    polys = []
    span = FpSpan(n * m, p)
    for v in basis_vecs:
        f = LinPoly.zero(t)
        for idx, c in enumerate(v):
            if c:
                i, bpos = divmod(idx, m)
                f = f + LinPoly.monomial(t, ambient[bpos], i).scale(c)
        polys.append(f)
        span.add(poly_vector(f))
    dim = len(polys)
    order = p ** dim

    # composition closure and invertibility on the polynomial side
    closed = all(span.contains(poly_vector(a.compose(b))) for a in polys for b in polys)
    certified = order <= exhaustive_limit
    singular = certified and any(
        any(cur) and LinPoly(t, cur).rank() < n
        for cur in span_walk(t, [f.coeffs for f in polys], [0] * n))
    structure = "field" if (closed and not singular) else "non-field"

    scalar_span = FpSpan(n * m, p)
    for c in t.basis_over_prime(1):
        scalar_span.add(poly_vector(LinPoly.monomial(t, c, 0)))
    is_scalar_fq = span.equals(scalar_span)
    return EndoSolution(
        dim=dim, order=order, structure=structure,
        field_order=order if structure == "field" else None,
        certified=certified, polys=polys,
        meta={"is_scalar_fq": is_scalar_fq, "side": side})


def left_idealiser(code: HermCode, exhaustive_limit: Optional[int] = None) -> EndoSolution:
    """{Z : Z o f in C for every f in C}, solved over F_p on generators."""
    return _idealiser(code, "left", exhaustive_limit)


def right_idealiser(code: HermCode, exhaustive_limit: Optional[int] = None) -> EndoSolution:
    """{Z : f o Z in C for every f in C}, solved over F_p on generators."""
    return _idealiser(code, "right", exhaustive_limit)


# -- supports --------------------------------------------------------------------


def universal_support(code: HermCode) -> frozenset[int]:
    """Indices i (q^2-exponent level) hit by a nonzero coefficient of some
    codeword; generators suffice since they are themselves codewords."""
    out: set[int] = set()
    for g in code.generators:
        out |= g.support()
    return frozenset(out)


def a_pow_b(a: Iterable[int], b: Iterable[int], n: int) -> frozenset[int]:
    """Residues mod n expressible as i + j with (i, j) in A x B in exactly one way."""
    counts: dict[int, int] = {}
    for i in a:
        for j in b:
            k = (i + j) % n
            counts[k] = counts.get(k, 0) + 1
    return frozenset(k for k, c in counts.items() if c == 1)


def support_containment(a: Iterable[int], b: Iterable[int],
                        support: Iterable[int], n: int) -> bool:
    """The falsifiable predicate A^B subset-of S used in non-equivalence
    arguments; False refutes the corresponding extended equivalence."""
    return a_pow_b(a, b, n) <= frozenset(i % n for i in support)


def check_independent_support(code: HermCode, b_set: Iterable[int],
                              witness: Mapping[int, Callable[[int], int]],
                              domain: Sequence[int]) -> bool:
    """Verify a witnessed independent support: every h_i must be injective on
    the declared domain and every witnessed polynomial must lie in the code.
    """
    b_set = frozenset(b_set)
    if frozenset(witness) != b_set:
        raise ValueError("witness indices do not match the declared support set")
    t = code.tower
    for i, h in witness.items():
        if len({h(a) for a in domain}) != len(domain):
            return False
    for a in domain:
        f = LinPoly.from_map(t, {i: h(a) for i, h in witness.items()})
        if not code.contains(f):
            return False
    return True


# -- fingerprints ------------------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    """Exact invariants of a code under both equivalence notions, plus the
    (informational, non-certifying) universal support size."""
    label: str
    size: int
    inner: tuple[int, ...]
    dual_inner: tuple[int, ...]
    design_strength: int
    kernel_order: int
    left_idealiser_order: int
    right_idealiser_order: int
    support_size: int

    def certifying_fields(self) -> dict:
        return {
            "size": self.size,
            "inner": self.inner,
            "dual_inner": self.dual_inner,
            "design_strength": self.design_strength,
            "kernel_order": self.kernel_order,
            "idealiser_orders": tuple(sorted((self.left_idealiser_order,
                                              self.right_idealiser_order))),
        }


def invariant_fingerprint(code: HermCode, budget: int = DEFAULT_BUDGET) -> Fingerprint:
    dist = analyze(code, budget=budget)
    return Fingerprint(
        label=code.label,
        size=code.size,
        inner=dist.inner,
        dual_inner=dist.dual,
        design_strength=dual_strength(dist.dual),
        kernel_order=kernel_K(code).order,
        left_idealiser_order=left_idealiser(code).order,
        right_idealiser_order=right_idealiser(code).order,
        support_size=len(universal_support(code)),
    )


@dataclass(frozen=True)
class FingerprintComparison:
    verdict: str                      # "distinct" or "inconclusive"
    differing_fields: tuple[str, ...]

    @property
    def certified_inequivalent(self) -> bool:
        return self.verdict == "distinct"


def compare_fingerprints(a: Fingerprint, b: Fingerprint) -> FingerprintComparison:
    """Report "distinct" only on invariants preserved by equivalence; equal
    invariants yield "inconclusive" (never a claim of equivalence)."""
    fa, fb = a.certifying_fields(), b.certifying_fields()
    differing = tuple(k for k in fa if fa[k] != fb[k])
    return FingerprintComparison(
        verdict="distinct" if differing else "inconclusive",
        differing_fields=differing)
