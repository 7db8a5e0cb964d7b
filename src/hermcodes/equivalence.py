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
membership systems over the code span, in the coordinates modulo the span.
Every system is built as its columns, one per unknown, and solved from
them (`linalg.nullspace_of_columns`).

The kernel and both idealisers are F_p-algebras cut out by a linear system,
and one routine solves all three: a solution acts as a tuple of F_p
matrices, (N1, N2) for the kernel and (matrix of Z,) for an idealiser,
multiplied blockwise.  A solution span A is a field iff some a in A has an
irreducible minimal polynomial of degree dim A with all powers in A, as
then A = F_p[a]; a reducible one, or a power outside A, proves A is not a
field.  That a and its polynomial are the certificate of the verdict.

Fingerprints collect exact invariants preserved by both equivalence notions.
The universal support size is reported alongside but never used to certify
inequivalence: composing with a permutation polynomial can change supports,
so matching invariants with differing supports must stay "inconclusive".
"""

from __future__ import annotations

import operator
import random
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .gf import FieldTower, _is_irreducible
from .hermitian import HermCode, poly_from_vector, poly_vector
from .linalg import FpSpan, nullspace_of_columns, residues_mod_span
from .linpoly import LinPoly
from .scheme import DEFAULT_BUDGET, distributions, dual_strength


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


class EndoSolution(NamedTuple):
    """Solution space of a kernel or idealiser system over F_p.

    `pairs` carries (N1, N2) matrix pairs for kernel systems; `polys`
    carries the solution polynomials for idealiser systems.  `structure` is
    "field", "non-field" or "unknown"; only "unknown" is not `certified`.
    `certificate` is (coefficients, polynomial), None only for "unknown":
    the element sum(c_i basis_i) and its monic minimal polynomial, little
    endian, irreducible of degree `dim` with every power in the span for a
    field, and reducible or with a power outside the span for a non-field.
    """
    dim: int
    order: int
    structure: str
    certificate: Optional[tuple]
    pairs: Optional[list]
    polys: Optional[list[LinPoly]]
    meta: dict

    @property
    def certified(self) -> bool:
        return self.structure != "unknown"

    @property
    def field_order(self) -> Optional[int]:
        return self.order if self.structure == "field" else None


# Seeded elements tried for a minimal-polynomial certificate; the kernels
# and idealisers of the paper's families are settled within a few.
_CERTIFICATE_TRIES = 64


def _flat(mats: Iterable[Sequence[Sequence[int]]]) -> list[int]:
    return [x for mat in mats for row in mat for x in row]


def _minimal_polynomial(a: tuple, p: int, span: FpSpan) -> tuple[tuple[int, ...], bool]:
    """Monic minimal polynomial over F_p, little endian, of a tuple of square
    matrices multiplied blockwise: the one relation among the powers of `a`
    up to the first that lies in the span of the lower ones.  Also whether
    every power lies in `span` (the last is a combination of the others)."""
    power = tuple([[int(i == j) for j in range(len(b))] for i in range(len(b))] for b in a)
    krylov = FpSpan(len(_flat(a)), p)
    powers = [_flat(power)]
    while krylov.add(powers[-1]):
        power = tuple(_matmul_p(x, y, p) for x, y in zip(power, a))
        powers.append(_flat(power))
    (relation,) = nullspace_of_columns(powers, len(powers[0]), p)
    return tuple(relation), all(map(span.contains, powers[:-1]))


def _solve_algebra(tower: FieldTower, basis: list[list[int]],
                   blocks_of: Callable[[list[int]], tuple]) -> tuple[FpSpan, EndoSolution]:
    """The F_p-algebra spanned by the solution basis of a kernel or
    idealiser system, where a solution v acts as blocks_of(v), a tuple of
    m x m F_p matrices multiplied blockwise and linear in v.  Seeded
    nonzero elements a are tried.  A power of a outside the span proves the
    span is not closed, so "non-field"; so does a reducible minimal
    polynomial.  An irreducible one of degree dim with every power in the
    span proves "field": the span is then F_p[a] (Lidl and Niederreiter,
    Finite Fields, ch. 2-3).  "unknown" is left if no try settles it.
    Returns the F_p-span of the flattened blocks and the EndoSolution with
    no pairs or polys and an empty meta.
    """
    p = tower.p
    # the F_p scalars always solve, so the basis is never empty
    blocks = [blocks_of(v) for v in basis]
    span = FpSpan(len(_flat(blocks[0])), p)
    for bl in blocks:
        span.add(_flat(bl))
    dim = len(basis)
    structure, certificate = "unknown", None
    rng = random.Random(11)
    for _ in range(_CERTIFICATE_TRIES):
        coeffs = [rng.randrange(p) for _ in range(dim)]
        if not any(coeffs):
            continue
        poly, closed = _minimal_polynomial(
            blocks_of([sum(map(operator.mul, coeffs, col)) % p for col in zip(*basis)]), p, span)
        # F_p[a] is a field lying in the span; it is the span at degree dim
        subfield = closed and _is_irreducible(poly, p)
        if not subfield or len(poly) - 1 == dim:
            structure, certificate = ("field" if subfield else "non-field"), (coeffs, poly)
            break
    return span, EndoSolution(dim=dim, order=p ** dim, structure=structure,
                              certificate=certificate, pairs=None, polys=None, meta={})


def kernel_K(code: HermCode) -> EndoSolution:
    """The code kernel in block-diagonal form: pairs (N1, N2) of F_p-matrices
    with N2 X = X N1 for every codeword map X (generators suffice).

    meta["contains_q2_scalars"] records containment of the scalar pairs from
    F_{q^2}.
    """
    t = code.tower
    m, p = t.m, t.p
    size = m * m
    mats = [fp_matrix_of_poly(g) for g in code.generators]
    height = len(mats) * size
    # The system is solved from its 2 m^2 columns, N1 first, then N2.  Entry
    # g m^2 + i m + j of a column is its coefficient in (N2 X_g - X_g N1)_ij
    # = 0: N1[k][j] has column k of every X_g, negated, in column j of its
    # block, and N2[i][k] has row k of every X_g in row i, so each is one of
    # 2m columns moved down.
    cols = [[x for mat in mats for row in mat for x in [-row[k]] + [0] * (m - 1)]
            for k in range(m)]
    cols += [[x for mat in mats for x in mat[k] + [0] * (size - m)] for k in range(m)]
    shifted = [(k, j) for k in range(m) for j in range(m)]
    shifted += [(m + k, i * m) for i in range(m) for k in range(m)]
    basis = nullspace_of_columns(cols, height, p, shifted)

    def pair_of(v: list[int]) -> tuple:
        return ([v[r * m:(r + 1) * m] for r in range(m)],
                [v[m * m + r * m: m * m + (r + 1) * m] for r in range(m)])

    span, sol = _solve_algebra(t, basis, pair_of)
    contains_scalars = all(span.contains(_flat((_scalar_matrix(t, beta),) * 2))
                           for beta in t.basis_over_prime(2))
    return sol._replace(pairs=[pair_of(v) for v in basis],
                        meta={"contains_q2_scalars": contains_scalars})


def _idealiser(code: HermCode, side: str) -> EndoSolution:
    t = code.tower
    p, k = t.p, len(code.generators)
    width = t.n * t.m
    # Z is solved in the coordinates of poly_vector: Z o g (left) or g o Z
    # (right) lies in the code span iff its coordinates modulo the span are
    # zero.  Column j of the system holds those of u_j o g or g o u_j for
    # every generator g, u_j the unit polynomial of coordinate j.
    units = [LinPoly(t, [b if i == c else 0 for c in range(t.n)])
             for i in range(t.n) for b in _digit_basis(t)]
    coords = residues_mod_span([poly_vector(g) for g in code.generators],
                               [poly_vector(u.compose(g) if side == "left" else g.compose(u))
                                for u in units for g in code.generators], width, p)
    cols = [[x for c in coords[j * k:(j + 1) * k] for x in c] for j in range(width)]
    basis = nullspace_of_columns(cols, sum(map(len, coords[:k])), p)
    span, sol = _solve_algebra(t, basis, lambda v: (fp_matrix_of_poly(poly_from_vector(t, v)),))
    scalars = t.basis_over_prime(1)
    is_scalar_fq = span.dim == len(scalars) and all(
        span.contains(_flat((_scalar_matrix(t, c),))) for c in scalars)
    return sol._replace(polys=[poly_from_vector(t, v) for v in basis],
                        meta={"is_scalar_fq": is_scalar_fq, "side": side})


def left_idealiser(code: HermCode) -> EndoSolution:
    """{Z : Z o f in C for every f in C}, solved over F_p on generators."""
    return _idealiser(code, "left")


def right_idealiser(code: HermCode) -> EndoSolution:
    """{Z : f o Z in C for every f in C}, solved over F_p on generators."""
    return _idealiser(code, "right")


# -- supports --------------------------------------------------------------------


def universal_support(code: HermCode) -> frozenset[int]:
    """Indices i (q^2-exponent level) hit by a nonzero coefficient of some
    codeword; generators suffice since they are themselves codewords."""
    out: set[int] = set()
    for g in code.generators:
        out |= g.support()
    return frozenset(out)


# -- fingerprints ------------------------------------------------------------------


class Fingerprint(NamedTuple):
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
    inner, dual = distributions(code, budget)
    return Fingerprint(
        label=code.label,
        size=code.size,
        inner=inner,
        dual_inner=dual,
        design_strength=dual_strength(dual),
        kernel_order=kernel_K(code).order,
        left_idealiser_order=left_idealiser(code).order,
        right_idealiser_order=right_idealiser(code).order,
        support_size=len(universal_support(code)),
    )


class FingerprintComparison(NamedTuple):
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
