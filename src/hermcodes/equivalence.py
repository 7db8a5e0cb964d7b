"""Computational equivalence toolkit: code kernels, idealisers, supports,
and invariant fingerprints.

The kernel of a code is computed in the block-diagonal form it must take for
additive codes (the zero word always belongs): pairs (N1, N2) of F_p-linear
maps on F_{q^2n} with N2 . X = X . N1 for every codeword map X, a condition
that is linear in X and therefore settled on generators.  Matrices act on
digit column vectors, in the basis 1, x, ..., x^(m-1) of the element codes;
N1 acts on the domain copy and N2 on the codomain copy.

Idealisers are solved in the polynomial model: left means Z with Z o f in
the code for every codeword f, right means f o Z.  Both are F_p-linear
membership systems over the code span.

The kernel and both idealisers are F_p-algebras cut out by a linear system,
and one routine solves all three: a solution acts as a tuple of F_p
matrices, (N1, N2) for the kernel and (matrix of Z,) for an idealiser, and
the algebra is a field when it is closed under blockwise products and every
block of every nonzero element is invertible.  That is checked on the whole
span up to q^4 elements and on a seeded sample above; a "non-field" verdict
is proved either way, a "field" verdict only by the whole span.

Fingerprints collect exact invariants preserved by both equivalence notions.
The universal support size is reported alongside but never used to certify
inequivalence: composing with a permutation polynomial can change supports,
so matching invariants with differing supports must stay "inconclusive".
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .gf import FieldTower
from .hermitian import (HermCode, HermMatrix, poly_from_gram, poly_from_vector,
                        poly_vector)
from .linalg import FpSpan, nullspace_mod_p, rank_mod_p, span_walk
from .linpoly import LinPoly
from .scheme import DEFAULT_BUDGET, analyze, dual_strength


# -- F_p matrices of additive maps ----------------------------------------------


def _digit_basis(tower: FieldTower) -> list[int]:
    """The elements whose digit vectors are the unit vectors: 1, x, ..., x^(m-1)."""
    return [tower.from_digits([int(i == j) for i in range(tower.m)]) for j in range(tower.m)]


def fp_matrix_of_map(tower: FieldTower, images: Sequence[int]) -> list[list[int]]:
    """Matrix (column convention) of the additive map sending the digit basis
    to the given images.  It acts on digit vectors, so the matrix of a
    composition is the product of the matrices."""
    cols = [tower.digits(c) for c in images]
    return [[cols[c][r] for c in range(tower.m)] for r in range(tower.m)]


def fp_matrix_of_poly(f: LinPoly) -> list[list[int]]:
    return fp_matrix_of_map(f.tower, [f.eval(b) for b in _digit_basis(f.tower)])


def _matmul_p(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) % p for col in cols] for row in a]


def _scalar_matrix(tower: FieldTower, c: int) -> list[list[int]]:
    return fp_matrix_of_map(tower, [tower.mul(c, b) for b in _digit_basis(tower)])


@dataclass
class EndoSolution:
    """Solution space of a kernel or idealiser system over F_p.

    `pairs` carries (N1, N2) matrix pairs for kernel systems; `polys`
    carries the solution polynomials for idealiser systems.  `structure`
    is "field" when the space is closed under composition and every nonzero
    element checked is invertible; `certified` says whether the verdict is
    proved.  A "non-field" verdict always is: closure failed, or a nonzero
    element has a singular block.  A "field" verdict is proved when every
    element was checked, which happens whenever the order is at most
    `exhaustive_limit`, q^4 by default.
    """
    dim: int
    order: int
    structure: str
    field_order: Optional[int]
    certified: bool
    pairs: Optional[list] = None
    polys: Optional[list[LinPoly]] = None
    meta: dict = field(default_factory=dict)


def _flat(mats: Iterable[Sequence[Sequence[int]]]) -> list[int]:
    return [x for mat in mats for row in mat for x in row]


def _solve_algebra(tower: FieldTower, rows: list[list[int]], nvars: int,
                   blocks_of: Callable[[list[int]], tuple],
                   exhaustive_limit: Optional[int]) -> tuple[list, FpSpan, EndoSolution]:
    """The F_p-algebra of the solutions v of `rows . v = 0`, where v acts as
    blocks_of(v), a tuple of m x m F_p matrices (additive maps of the field)
    multiplied blockwise.

    It is a field when the products of basis elements stay in the span and
    every block of every nonzero element has full rank.  Up to
    `exhaustive_limit` elements (default q^4) the whole span is scanned;
    above it the unit combinations and 64 seeded ones are tested, and only
    a "non-field" verdict is certified.  Returns the solution basis, the
    F_p-span of the flattened blocks and the EndoSolution without pairs,
    polys or meta.
    """
    p, m = tower.p, tower.m
    if exhaustive_limit is None:
        exhaustive_limit = tower.q ** 4
    basis = nullspace_mod_p(rows, nvars, p)
    # the F_p scalars always solve, so the basis is never empty
    blocks = [blocks_of(v) for v in basis]
    vecs = [_flat(bl) for bl in blocks]
    span = FpSpan(len(vecs[0]), p)
    for v in vecs:
        span.add(v)
    dim = len(basis)
    order = p ** dim
    closed = all(span.contains(_flat(_matmul_p(x, y, p) for x, y in zip(a, b)))
                 for a in blocks for b in blocks)

    def invertible(vec: Sequence[int]) -> bool:
        return all(rank_mod_p([vec[at + r * m:at + (r + 1) * m] for r in range(m)], p) == m
                   for at in range(0, len(vec), m * m))

    exhaustive = order <= exhaustive_limit
    if exhaustive:
        # the entries are codes below p, on which tower.add is F_p addition
        elements = span_walk(tower, vecs, [0] * len(vecs[0]))
    else:
        rng = random.Random(11)
        coeffs = [[int(i == j) for j in range(dim)] for i in range(dim)]
        coeffs += [[rng.randrange(p) for _ in range(dim)] for _ in range(64)]
        cols = list(zip(*vecs))
        elements = ([sum(map(operator.mul, cs, col)) % p for col in cols] for cs in coeffs)
    is_field = closed and all(invertible(v) for v in elements if any(v))
    return basis, span, EndoSolution(
        dim=dim, order=order, structure="field" if is_field else "non-field",
        field_order=order if is_field else None, certified=exhaustive or not is_field)


def kernel_K(code: HermCode, exhaustive_limit: Optional[int] = None) -> EndoSolution:
    """The code kernel in block-diagonal form: pairs (N1, N2) of F_p-matrices
    with N2 X = X N1 for every codeword map X (generators suffice).

    meta["contains_q2_scalars"] records containment of the scalar pairs from
    F_{q^2}; meta["identity_form_in_code"] whether the code holds the
    Hermitian polynomial whose Gram matrix is the identity.
    """
    t = code.tower
    m = t.m
    p = t.p
    nvars = 2 * m * m  # N1 first, then N2
    rows = []
    for x in (fp_matrix_of_poly(g) for g in code.generators):
        for i in range(m):
            for j in range(m):
                row = [0] * nvars
                # (N2 X)_{ij} - (X N1)_{ij} = 0
                for k in range(m):
                    row[m * m + i * m + k] = (row[m * m + i * m + k] + x[k][j]) % p
                    row[k * m + j] = (row[k * m + j] - x[i][k]) % p
                rows.append(row)

    def pair_of(v: list[int]) -> tuple:
        return ([v[r * m:(r + 1) * m] for r in range(m)],
                [v[m * m + r * m: m * m + (r + 1) * m] for r in range(m)])

    basis, span, sol = _solve_algebra(t, rows, nvars, pair_of, exhaustive_limit)
    contains_scalars = all(span.contains(_flat((_scalar_matrix(t, beta),) * 2))
                           for beta in t.basis_over_prime(2))
    # the identity matrix of the Gram model corresponds to a Hermitian
    # polynomial that is not the identity map; detect that form instead
    eye = HermMatrix(t, [[1 if j == k else 0 for k in range(t.n)] for j in range(t.n)])
    return replace(sol, pairs=[pair_of(v) for v in basis],
                   meta={"contains_q2_scalars": contains_scalars,
                         "identity_form_in_code": code.contains(poly_from_gram(t, eye))})


def _idealiser(code: HermCode, side: str,
               exhaustive_limit: Optional[int] = None) -> EndoSolution:
    t = code.tower
    p = t.p
    width = t.n * t.m
    # Z is solved in the coordinates of poly_vector.  Z o g (left) or g o Z
    # (right) lies in the code span iff every w in the nullspace of the
    # generator matrix is orthogonal to it.
    checks = nullspace_mod_p([poly_vector(g) for g in code.generators], width, p)
    units = [poly_from_vector(t, [int(i == j) for i in range(width)]) for j in range(width)]
    rows = []
    for g in code.generators:
        images = [poly_vector(u.compose(g) if side == "left" else g.compose(u)) for u in units]
        rows += [[sum(map(operator.mul, w, img)) % p for img in images] for w in checks]
    basis, span, sol = _solve_algebra(
        t, rows, width, lambda v: (fp_matrix_of_poly(poly_from_vector(t, v)),),
        exhaustive_limit)
    scalars = t.basis_over_prime(1)
    is_scalar_fq = span.dim == len(scalars) and all(
        span.contains(_flat((_scalar_matrix(t, c),))) for c in scalars)
    return replace(sol, polys=[poly_from_vector(t, v) for v in basis],
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
