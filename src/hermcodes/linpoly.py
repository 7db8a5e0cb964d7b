"""q^2-polynomials and q-polynomials over F_{q^2n}.

A LinPoly is sum_i c_i x^{q^{2i}} with n coefficients, the carrier of
codewords: an F_{q^2}-linear map of F_{q^2n}.  A QPoly is sum_i a_i x^{q^i}
with 2n coefficients, only F_q-linear, used for the kernel-bound checks on
polynomials whose support is an arithmetic progression of stride s.

All exponent arithmetic is modulo x^{q^{2n}} - x, i.e. indices live mod n at
the q^2 level and mod 2n at the q level.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Optional

from .gf import FieldTower
from .linalg import nullity_of_code_columns


class LinPoly:
    """sum_i c_i x^{q^{2i}} over F_{q^2n}, coefficients indexed by q^2-exponent."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: FieldTower, coeffs: Iterable[int]):
        coeffs = tuple(coeffs)
        if len(coeffs) != tower.n:
            raise ValueError(f"expected {tower.n} coefficients, got {len(coeffs)}")
        self.tower = tower
        self.coeffs = coeffs

    @classmethod
    def zero(cls, tower: FieldTower) -> "LinPoly":
        return cls(tower, (0,) * tower.n)

    @classmethod
    def identity(cls, tower: FieldTower) -> "LinPoly":
        return cls(tower, (1,) + (0,) * (tower.n - 1))

    @classmethod
    def monomial(cls, tower: FieldTower, c: int, i: int) -> "LinPoly":
        """c x^{q^{2i}}; the exponent index is reduced mod n."""
        coeffs = [0] * tower.n
        coeffs[i % tower.n] = c
        return cls(tower, coeffs)

    @classmethod
    def from_map(cls, tower: FieldTower, entries: Mapping[int, int]) -> "LinPoly":
        coeffs = [0] * tower.n
        for i, c in entries.items():
            coeffs[i % tower.n] = tower.add(coeffs[i % tower.n], c)
        return cls(tower, coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def support(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.coeffs) if c)

    def __add__(self, other: "LinPoly") -> "LinPoly":
        self._same(other)
        t = self.tower
        return LinPoly(t, (t.add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "LinPoly") -> "LinPoly":
        self._same(other)
        t = self.tower
        return LinPoly(t, (t.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "LinPoly":
        return LinPoly(self.tower, (self.tower.neg(a) for a in self.coeffs))

    def scale(self, c: int) -> "LinPoly":
        """Coefficientwise scaling, i.e. the map x -> c * f(x)."""
        t = self.tower
        return LinPoly(t, (t.mul(c, a) for a in self.coeffs))

    def eval(self, x: int) -> int:
        t = self.tower
        acc = 0
        for i, c in enumerate(self.coeffs):
            if c:
                acc = t.add(acc, t.mul(c, t.frobenius(x, 2 * i)))
        return acc

    def compose(self, other: "LinPoly") -> "LinPoly":
        """Coefficients of self(other(x)) reduced mod x^{q^{2n}} - x."""
        self._same(other)
        t = self.tower
        n = t.n
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            for j, d in enumerate(other.coeffs):
                if d:
                    k = (i + j) % n
                    out[k] = t.add(out[k], t.mul(c, t.frobenius(d, 2 * i)))
        return LinPoly(t, out)

    def adjoint(self) -> "LinPoly":
        """The adjoint for the symmetric form Tr_{q^2n/q^2}(xy).

        Defined by Tr(x f(y)) = Tr(y f^T(x)) for all x, y; concretely the
        coefficient at q^2-exponent (n - i) mod n is c_i^{q^{2(n-i)}}.
        """
        t = self.tower
        n = t.n
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            if c:
                out[(n - i) % n] = t.frobenius(c, 2 * (n - i))
        return LinPoly(t, out)

    def image_columns(self) -> list[int]:
        """Images of the ambient F_p power basis; additive in the polynomial."""
        return [self.eval(b) for b in self.tower.ambient_basis()]

    def kernel_dim(self) -> int:
        """dim over F_{q^2} of ker f."""
        nullity = nullity_of_code_columns(self.tower, self.image_columns())
        if nullity % (2 * self.tower.e):
            raise AssertionError("kernel of a q^2-polynomial must be an F_{q^2}-space")
        return nullity // (2 * self.tower.e)

    def rank(self) -> int:
        """Rank over F_{q^2} of the induced map on F_{q^2n}."""
        return self.tower.n - self.kernel_dim()

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinPoly) and self.tower == other.tower
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        terms = [f"{c}*x^(q^{2 * i})" if i else f"{c}*x"
                 for i, c in enumerate(self.coeffs) if c]
        return "LinPoly(" + (" + ".join(terms) or "0") + ")"

    def _same(self, other: "LinPoly") -> None:
        if self.tower != other.tower:
            raise ValueError("mismatched towers")


class QPoly:
    """sum_i a_i x^{q^i} over F_{q^2n}, coefficients indexed by q-exponent."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: FieldTower, coeffs: Iterable[int]):
        coeffs = tuple(coeffs)
        if len(coeffs) != 2 * tower.n:
            raise ValueError(f"expected {2 * tower.n} coefficients, got {len(coeffs)}")
        self.tower = tower
        self.coeffs = coeffs

    @classmethod
    def monomial(cls, tower: FieldTower, c: int, i: int) -> "QPoly":
        coeffs = [0] * (2 * tower.n)
        coeffs[i % (2 * tower.n)] = c
        return cls(tower, coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def support(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.coeffs) if c)

    def eval(self, x: int) -> int:
        t = self.tower
        acc = 0
        for i, c in enumerate(self.coeffs):
            if c:
                acc = t.add(acc, t.mul(c, t.frobenius(x, i)))
        return acc

    def shifted(self, k: int) -> "QPoly":
        """Composition with x^{q^k} on the right: exponents move up by k."""
        nn = 2 * self.tower.n
        out = [0] * nn
        for i, c in enumerate(self.coeffs):
            out[(i + k) % nn] = c
        return QPoly(self.tower, out)

    def kernel_dim_fq(self) -> int:
        """dim over F_q of ker f (f is only F_q-linear in general)."""
        cols = [self.eval(b) for b in self.tower.ambient_basis()]
        nullity = nullity_of_code_columns(self.tower, cols)
        if nullity % self.tower.e:
            raise AssertionError("kernel of a q-polynomial must be an F_q-space")
        return nullity // self.tower.e

    def __eq__(self, other) -> bool:
        return (isinstance(other, QPoly) and self.tower == other.tower
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        terms = [f"{c}*x^(q^{i})" if i else f"{c}*x"
                 for i, c in enumerate(self.coeffs) if c]
        return "QPoly(" + (" + ".join(terms) or "0") + ")"


def reindex_to_qpoly(f: LinPoly, s: int, shift: int = 0) -> QPoly:
    """View a q^2-polynomial as a q-polynomial, optionally composed with a
    monomial: the result equals f(x^{q^{s*shift}}) as a map on F_{q^2n}.

    Requires gcd(s, 2n) = 1 so that the stride-s exponent window used by the
    kernel-bound checks is a genuine re-indexing of residues mod 2n.
    """
    t = f.tower
    nn = 2 * t.n
    if math.gcd(s, nn) != 1:
        raise ValueError(f"gcd(s={s}, 2n={nn}) must be 1")
    off = (s * shift) % nn
    out = [0] * nn
    for i, c in enumerate(f.coeffs):
        out[(2 * i + off) % nn] = c
    return QPoly(t, out)


class GQReport(NamedTuple):
    """Outcome of the kernel bound check on a stride-s window polynomial."""
    s: int
    k: int
    kernel_dim: int
    bound_ok: bool
    norm_ok: Optional[bool]  # None unless kernel_dim == k
    norm_first: Optional[int] = None
    norm_last: Optional[int] = None


def gq_verify(f: QPoly, s: int, k: int) -> GQReport:
    """Check dim_{F_q} ker f <= k for f = a_0 x + a_1 x^{q^s} + ... + a_k x^{q^{sk}},
    and when the bound is attained, the end-coefficient norm relation
    N(a_0) = (-1)^{2n k} N(a_k).
    """
    t = f.tower
    nn = 2 * t.n
    if math.gcd(s, nn) != 1:
        raise ValueError(f"gcd(s={s}, 2n={nn}) must be 1")
    if not 0 <= k < nn:
        raise ValueError(f"window length k={k} out of range for degree {nn}")
    if f.is_zero():
        raise ValueError("the kernel bound presumes a nonzero polynomial")
    window = {(s * i) % nn for i in range(k + 1)}
    bad = f.support() - window
    if bad:
        raise ValueError(f"nonzero coefficient outside the stride-{s} window: exponents {sorted(bad)}")

    kd = f.kernel_dim_fq()
    bound_ok = kd <= k
    norm_ok = None
    n0 = nk = None
    if kd == k:
        a0 = f.coeffs[0]
        ak = f.coeffs[(s * k) % nn]
        n0 = t.rel_norm(a0, 2 * t.n, 1)
        nk = t.rel_norm(ak, 2 * t.n, 1)
        expected = nk if (nn * k) % 2 == 0 else t.neg(nk)
        norm_ok = n0 == expected
    return GQReport(s=s, k=k, kernel_dim=kd, bound_ok=bound_ok,
                    norm_ok=norm_ok, norm_first=n0, norm_last=nk)
