"""The Hermitian polynomial space, its bilinear form, duality, and the
matrix model.

Membership: f = sum c_i x^{q^{2i}} is Hermitian iff
c_{(n-i+1) mod n} = c_i^{q^{2n-2i+1}} for every i.  The exponent indices pair
up under i <-> (n-i+1) mod n; when n is odd the single fixed index carries a
coefficient constrained to F_{q^n}.

The matrix model uses the sesquilinear pairing s(x, y) = Tr_{q^2n/q^2}(y^q f(x))
on the fixed basis 1, g, ..., g^{n-1}: its Gram matrix is Hermitian exactly
when f satisfies the membership condition, and its rank equals the rank of f
(the radical of the pairing is ker f).  Codes are stored by F_p-generator
basis; spans are only ever materialized lazily.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .gf import FieldTower, make_tower
from .linalg import (FpSpan, nullspace_mod_p, nullspace_of_columns, rank_subfield_matrix,
                     span_walk, vector_add)
from .linpoly import LinPoly


def index_pairs(n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Orbits of i <-> (n-i+1) mod n: (representative, partner) pairs and fixed points."""
    pairs = []
    fixed = []
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        j = (n - i + 1) % n
        if j == i:
            fixed.append(i)
            seen.add(i)
        else:
            pairs.append((i, j))
            seen.update((i, j))
    return pairs, fixed


def is_hermitian(f: LinPoly) -> bool:
    t = f.tower
    n = t.n
    return all(f.coeffs[(n - i + 1) % n] == t.frobenius(c, 2 * n - 2 * i + 1)
               for i, c in enumerate(f.coeffs))


def from_free_coeffs(tower: FieldTower, free: Mapping[int, int]) -> LinPoly:
    """The unique Hermitian polynomial with the given free coefficients.

    Keys must be orbit representatives (pair representatives or the fixed
    index); omitted representatives default to zero.  The fixed-index value
    must lie in F_{q^n}.
    """
    n = tower.n
    pairs, fixed = index_pairs(n)
    reps = {i for i, _ in pairs} | set(fixed)
    bad = set(free) - reps
    if bad:
        raise ValueError(f"non-representative indices {sorted(bad)}; representatives are {sorted(reps)}")
    coeffs = [0] * n
    for i, j in pairs:
        c = free.get(i, 0)
        coeffs[i] = c
        coeffs[j] = tower.frobenius(c, 2 * n - 2 * i + 1)
    for i in fixed:
        c = free.get(i, 0)
        if not tower.in_subfield(c, n):
            raise ValueError(f"fixed-index coefficient at {i} must lie in F_(q^{n})")
        coeffs[i] = c
    return LinPoly(tower, coeffs)


def hermitian_basis(tower: FieldTower) -> list[LinPoly]:
    """F_p-basis of the Hermitian space (e*n^2 polynomials, cached)."""
    key = "hermitian_basis"
    if key not in tower.cache:
        pairs, fixed = index_pairs(tower.n)
        out = []
        for i, _ in pairs:
            for beta in tower.ambient_basis():
                out.append(from_free_coeffs(tower, {i: beta}))
        for i in fixed:
            for beta in tower.basis_over_prime(tower.n):
                out.append(from_free_coeffs(tower, {i: beta}))
        tower.cache[key] = out
    return tower.cache[key]


def hermitian_matrix_basis(tower: FieldTower) -> list[list[int]]:
    """F_p-basis of the Hermitian matrix space, as flat row-major entry
    vectors: the n diagonal positions over F_q first, then each position
    (j, k) with j < k over F_{q^2}, its mirror holding the conjugate."""
    n = tower.n
    out = []
    for j in range(n):
        for beta in tower.basis_over_prime(1):
            vec = [0] * (n * n)
            vec[j * n + j] = beta
            out.append(vec)
    for j in range(n):
        for k in range(j + 1, n):
            for beta in tower.basis_over_prime(2):
                vec = [0] * (n * n)
                vec[j * n + k] = beta
                vec[k * n + j] = tower.frobenius(beta, 1)
                out.append(vec)
    return out


def trace_poly(tower: FieldTower) -> LinPoly:
    """sum_i x^{q^{2i}}, the rank-one Hermitian polynomial with image F_{q^2}."""
    return LinPoly(tower, (1,) * tower.n)


def bilinear_b(f: LinPoly, g: LinPoly) -> int:
    """b(f, g) = Tr_{q^2n/q^2}(sum_i a_i b_i); symmetric, F_q-bilinear."""
    if f.tower != g.tower:
        raise ValueError("mismatched towers")
    t = f.tower
    acc = 0
    for a, b in zip(f.coeffs, g.coeffs):
        if a and b:
            acc = t.add(acc, t.mul(a, b))
    return t.rel_trace(acc, 2 * t.n, 2)


class HermMatrix:
    """Hermitian n x n matrix over F_{q^2}: conjugate-transpose fixed."""

    __slots__ = ("tower", "rows")

    def __init__(self, tower: FieldTower, rows: Sequence[Sequence[int]]):
        n = tower.n
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected an {n} x {n} matrix")
        for j in range(n):
            for k in range(n):
                if not tower.in_subfield(rows[j][k], 2):
                    raise ValueError("matrix entries must lie in F_{q^2}")
                if rows[j][k] != tower.frobenius(rows[k][j], 1):
                    raise ValueError("matrix is not conjugate-transpose symmetric")
        self.tower = tower
        self.rows = rows

    def rank(self) -> int:
        return rank_subfield_matrix(self.tower, self.rows)

    def entry_vector(self) -> tuple[int, ...]:
        return tuple(c for row in self.rows for c in row)

    def __eq__(self, other) -> bool:
        return (isinstance(other, HermMatrix) and self.tower == other.tower
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"HermMatrix({list(map(list, self.rows))})"


def form_matrix(f: LinPoly) -> list[list[int]]:
    """Raw Gram matrix of s(x, y) = Tr(y^q f(x)) on the basis 1, g, ..., g^{n-1}.

    No Hermitian validation; use gram_matrix for members of the space.
    """
    t = f.tower
    basis = t.q2_basis()
    images = [f.eval(b) for b in basis]
    conj = [t.frobenius(ek, 1) for ek in basis]
    return [[t.rel_trace(t.mul(ck, fj), 2 * t.n, 2) for ck in conj] for fj in images]


def gram_matrix(f: LinPoly) -> HermMatrix:
    """Matrix-model image of a Hermitian polynomial; rank is preserved."""
    return HermMatrix(f.tower, form_matrix(f))


def _gram_solver(tower: FieldTower):
    """The Hermitian basis and the F_p digit columns of its Gram matrices,
    kept in tower.cache: the columns of the map that `poly_from_gram` inverts."""
    key = "gram_solver"
    if key not in tower.cache:
        basis = hermitian_basis(tower)
        cols = [tower.digit_vector(gram_matrix(h).entry_vector()) for h in basis]
        tower.cache[key] = (basis, cols)
    return tower.cache[key]


def poly_from_gram(tower: FieldTower, mat: HermMatrix) -> LinPoly:
    """Inverse of gram_matrix: the Hermitian polynomial with the given Gram matrix.

    The basis's Gram columns are independent, so with the matrix's digits
    appended as a last column they have a null vector iff the matrix is in
    their span, and it is then 1 at that column and minus the coordinates
    at the others."""
    basis, cols = _gram_solver(tower)
    p = tower.p
    null = nullspace_of_columns(cols + [tower.digit_vector(mat.entry_vector())],
                                len(cols[0]), p)
    if not null:
        raise ValueError("matrix is not in the image of the Hermitian space")
    f = LinPoly.zero(tower)
    for x, h in zip(null[0], basis):
        if x:
            f = f + h.scale(p - x)
    if gram_matrix(f) != mat:
        raise AssertionError("Gram inversion failed to round-trip")
    return f


def poly_vector(f: LinPoly) -> list[int]:
    """Concatenated F_p digit vectors of the coefficients."""
    return f.tower.digit_vector(f.coeffs)


def poly_from_vector(tower: FieldTower, vec: Sequence[int]) -> LinPoly:
    m = tower.m
    return LinPoly(tower, (tower.from_digits(vec[i * m:(i + 1) * m]) for i in range(tower.n)))


class HermCode:
    """An F_p-linear span of Hermitian polynomials, stored by generator basis."""

    def __init__(self, tower: FieldTower, generators: Sequence[LinPoly],
                 label: str = "", declared_d: int | None = None,
                 model: str = "poly"):
        self.tower = tower
        gens = tuple(generators)
        for f in gens:
            if f.tower != tower:
                raise ValueError("generator tower mismatch")
            if not is_hermitian(f):
                raise ValueError(f"generator is not Hermitian: {f!r}")
        span = FpSpan(tower.n * tower.m, tower.p)
        for f in gens:
            if not span.add(poly_vector(f)):
                raise ValueError(f"generators are not F_p-independent: {f!r}")
        self.generators = gens
        self.span = span
        self.label = label
        self.declared_d = declared_d
        self.model = model
        self.cache: dict = {}  # derived per-code results, like FieldTower.cache

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def size(self) -> int:
        return self.tower.p ** self.dim

    @property
    def n(self) -> int:
        return self.tower.n

    def generator_forms(self) -> list[list[list[int]]]:
        """The generators' Gram matrices (`form_matrix`), kept in self.cache."""
        if "forms" not in self.cache:
            self.cache["forms"] = [form_matrix(f) for f in self.generators]
        return self.cache["forms"]

    @property
    def matrix_generators(self) -> tuple[HermMatrix, ...]:
        """The generators' Gram matrices, the generators of the matrix model."""
        return tuple(HermMatrix(self.tower, rows) for rows in self.generator_forms())

    def contains(self, f: LinPoly) -> bool:
        return self.span.contains(poly_vector(f))

    def iter_span(self) -> Iterable[LinPoly]:
        """All codewords, by odometer over F_p generator coordinates."""
        t = self.tower
        for cur in span_walk(t.p, [g.coeffs for g in self.generators], [0] * t.n,
                             vector_add(t)):
            yield LinPoly(t, cur)

    def elements(self) -> list[LinPoly]:
        return list(self.iter_span())

    def __repr__(self) -> str:
        return (f"HermCode(label={self.label!r}, q={self.tower.q}, n={self.n}, "
                f"dim_p={self.dim}, size={self.size})")


def full_space(tower: FieldTower, label: str = "full") -> HermCode:
    return HermCode(tower, hermitian_basis(tower), label=label, declared_d=1)


def dual_code(code: HermCode) -> HermCode:
    """Annihilator of the code inside the Hermitian space under b(f, g)."""
    t = code.tower
    basis = hermitian_basis(t)
    # one row per generator and digit position: the transposed digit vectors
    # of b(h, g) over the basis h
    rows = [row for g in code.generators
            for row in zip(*(t.digits(bilinear_b(h, g)) for h in basis))]
    gens = []
    for vec in nullspace_mod_p(rows, len(basis), t.p):
        f = LinPoly.zero(t)
        for x, h in zip(vec, basis):
            if x:
                f = f + h.scale(x)
        gens.append(f)
    label = f"{code.label}^perp" if code.label else "dual"
    return HermCode(t, gens, label=label, model=code.model)


# -- matrix-model ingestion ----------------------------------------------------


def matrix_span(tower: FieldTower, generators: Sequence[HermMatrix]) -> list[HermMatrix]:
    """Full additive span of matrix generators (desk scale only)."""
    n = tower.n
    states = [g.entry_vector() for g in generators]
    return [HermMatrix(tower, [state[r * n:(r + 1) * n] for r in range(n)])
            for state in span_walk(tower.p, states, [0] * (n * n), vector_add(tower))]


def matrix_code_rank_distribution(matrices: Iterable[HermMatrix]) -> tuple[int, ...]:
    """Rank histogram of an explicit matrix set, by direct elimination.

    This is the matrix-model oracle kept independent of the polynomial rank
    path; the two are compared in the test suite.
    """
    mats = list(matrices)
    if not mats:
        raise ValueError("empty matrix set")
    n = mats[0].tower.n
    if len(set(mats)) != len(mats):
        raise ValueError("matrices must be pairwise distinct")
    hist = [0] * (n + 1)
    for a in mats:
        hist[a.rank()] += 1
    return tuple(hist)


def code_from_matrix_set(tower: FieldTower, matrices: Sequence[HermMatrix],
                         label: str = "", declared_d: int | None = None) -> HermCode:
    """Build a polynomial-model code from Hermitian matrices.

    The input may be an independent generator list or a full additively
    closed set; either way it is reduced to an F_p basis and pulled back
    through the Gram-matrix isomorphism.
    """
    span = FpSpan(tower.n * tower.n * tower.m, tower.p)
    polys = []
    seen = set()
    for mat in matrices:
        if mat.rows in seen:
            raise ValueError("matrices must be pairwise distinct")
        seen.add(mat.rows)
        if span.add(tower.digit_vector(mat.entry_vector())):
            polys.append(poly_from_gram(tower, mat))
    return HermCode(tower, polys, label=label, declared_d=declared_d, model="matrix")


# -- serialization --------------------------------------------------------------


def code_to_dict(code: HermCode) -> dict:
    """Code-file dictionary; FFElements are little-endian F_p digit vectors."""
    t = code.tower
    if code.model == "matrix":
        gens = [[list(t.digits(c)) for c in mat.entry_vector()]
                for mat in code.matrix_generators]
    else:
        gens = [[list(t.digits(c)) for c in f.coeffs] for f in code.generators]
    return {
        "tower": t.to_dict(),
        "model": code.model,
        "label": code.label,
        "generators": gens,
        "declared_d": code.declared_d,
    }


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _file_digits(v, p: int, length: int | None, field: str) -> list[int]:
    """A digit vector from a code file: a list of integers in [0, p)."""
    if not (isinstance(v, list) and (length is None or len(v) == length)
            and all(_is_int(c) and 0 <= c < p for c in v)):
        size = "" if length is None else f"{length} "
        raise ValueError(f"code file field {field!r} must be a list of {size}digits in [0, {p})")
    return v


def code_from_dict(data: dict) -> HermCode:
    """The code a `code_to_dict` dictionary describes.

    Raises ValueError, naming the field, when the dictionary does not follow
    that schema, holds a digit outside [0, p) or declares d outside 1..n.
    """
    if not isinstance(data, dict):
        raise ValueError(f"code file must hold a JSON object, not {type(data).__name__}")
    spec = data.get("tower")
    if not isinstance(spec, dict):
        raise ValueError("code file field 'tower' must be an object with keys p, e, n, modulus")
    for key in ("p", "e", "n"):
        if not _is_int(spec.get(key)):
            raise ValueError(f"code file field 'tower.{key}' must be an integer")
    if spec["p"] < 2:
        raise ValueError(f"code file field 'tower.p' must be a prime, not {spec['p']}")
    modulus = _file_digits(spec.get("modulus"), spec["p"], None, "tower.modulus")
    t = make_tower(spec["p"], spec["e"], spec["n"], modulus)
    model = data.get("model", "poly")
    label = data.get("label", "")
    declared_d = data.get("declared_d")
    if model not in ("poly", "matrix"):
        raise ValueError("code file field 'model' must be 'poly' or 'matrix'")
    if not isinstance(label, str):
        raise ValueError("code file field 'label' must be a string")
    if declared_d is not None and not (_is_int(declared_d) and 1 <= declared_d <= t.n):
        raise ValueError(f"code file field 'declared_d' must be null or an integer "
                         f"from 1 to n = {t.n}")
    gens_data = data.get("generators")
    if not isinstance(gens_data, list):
        raise ValueError("code file field 'generators' must be a list")
    n = t.n
    width = n * n if model == "matrix" else n
    gens = []
    for i, g in enumerate(gens_data):
        if not (isinstance(g, list) and len(g) == width):
            raise ValueError(f"code file field 'generators[{i}]' must be a list of {width} "
                             f"field elements for the {model} model")
        gens.append([t.from_digits(_file_digits(v, t.p, t.m, f"generators[{i}][{j}]"))
                     for j, v in enumerate(g)])
    if model == "matrix":
        mats = [HermMatrix(t, [codes[i * n:(i + 1) * n] for i in range(n)]) for codes in gens]
        return code_from_matrix_set(t, mats, label=label, declared_d=declared_d)
    return HermCode(t, [LinPoly(t, codes) for codes in gens], label=label,
                    declared_d=declared_d, model="poly")
