"""Builders for the maximum Hermitian code families.

Four families, each returned as a HermCode spanned by an explicit generator
basis obtained by feeding F_p-bases of the parameter subfields through the
construction map (the maps are F_q-linear in every parameter, asserted at
build time on random pairs):

  H family   - parameters b_j over F_{q^2n}, j = 1..(n-d+1)/2, s odd with
               gcd(s, n) = 1, n and d of opposite parity.
  E family   - b_0 over F_{q^n} plus b_j over F_{q^2n}, n and d both odd.
  M          - all Hermitian matrices with zero diagonal (matrix model).
  H~ family  - the 2-code built from gamma with non-square F_q-norm, q odd,
               n odd, gcd(s, 2n) = 1.

All construction exponents are reduced modulo 2n at the q level at build
time.  Every generator is checked against the Hermitian membership
condition; parameter choices that leave the Hermitian space (this happens
for s not congruent to 1 mod 2n, where the printed coefficient pairing no
longer lines up with the membership pairing) are rejected with an explicit
error rather than silently producing a code outside the space.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Callable, NamedTuple, Optional

from .gf import FieldTower, find_alpha, find_gamma, is_square, make_tower
from .hermitian import (HermCode, HermMatrix, code_from_matrix_set,
                        hermitian_matrix_basis, is_hermitian)
from .linpoly import LinPoly


class ParameterError(ValueError):
    """A construction parameter violates the family's hypotheses."""


class ConstructionParams(NamedTuple):
    """CLI-facing parameter record for a single construction instance."""
    family: str                 # "H", "E", "M", "Htilde"
    q: int
    n: int
    d: Optional[int] = None
    s: Optional[int] = None
    gamma_power: Optional[int] = None  # gamma = g^power, default from find_gamma

    def validate(self) -> None:
        if self.family not in ("H", "E", "M", "Htilde"):
            raise ParameterError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ParameterError("n must be positive")
        if self.family in ("H", "E"):
            if self.d is None or self.s is None:
                raise ParameterError(f"family {self.family} needs d and s")
        if self.family == "Htilde" and self.s is None:
            raise ParameterError("family Htilde needs s")
        if self.gamma_power is not None and self.family != "Htilde":
            raise ParameterError(f"family {self.family} takes no gamma")
        if self.s is not None and self.family == "M":
            raise ParameterError("family M takes no s")
        if self.d not in (None, 2) and self.family in ("M", "Htilde"):
            raise ParameterError(f"family {self.family} is a 2-code: d must be 2, not {self.d}")
        if self.family == "M" and self.n < 2:
            raise ParameterError(f"family M is a 2-code: n must be at least 2, not {self.n}")


def _prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            v = q
            while v % p == 0:
                v //= p
                e += 1
            if v != 1:
                raise ParameterError(f"q = {q} is not a prime power")
            return p, e
    raise ParameterError(f"q = {q} is not a prime power")


def tower_for(q: int, n: int) -> FieldTower:
    return make_tower(*_prime_power(q), n)


def build(params: ConstructionParams) -> HermCode:
    params.validate()
    t = tower_for(params.q, params.n)
    if params.family == "H":
        return build_H(t, params.d, params.s)
    if params.family == "E":
        return build_E(t, params.d, params.s)
    if params.family == "M":
        return build_M(t)
    gamma = None
    if params.gamma_power is not None:
        gamma = t.pow(t.generator, params.gamma_power)
    return build_Htilde(t, params.s, gamma=gamma)


def _assert_fq_linear(tower: FieldTower, slot_map: Callable[[int], LinPoly],
                      domain_deg: int, rng: random.Random) -> None:
    """Spot-check F_q-linearity of a parameter slot on random pairs."""
    def draw(k: int) -> int:
        # a random F_p-combination of a basis, so F_{q^k} is never listed
        return functools.reduce(tower.add, (tower.mul(rng.randrange(tower.p), b)
                                            for b in tower.basis_over_prime(k)))
    for _ in range(4):
        a, b = draw(domain_deg), draw(domain_deg)
        lam = draw(1)
        lhs = slot_map(tower.add(a, b))
        rhs = slot_map(a) + slot_map(b)
        if lhs != rhs:
            raise AssertionError("construction slot is not additive")
        if slot_map(tower.mul(lam, a)) != slot_map(a).scale(lam):
            raise AssertionError("construction slot is not F_q-homogeneous")


def _span_from_slots(tower: FieldTower,
                     slots: list[tuple[int, Callable[[int], LinPoly]]],
                     label: str, declared_d: int) -> HermCode:
    rng = random.Random(7)
    gens: list[LinPoly] = []
    for domain_deg, slot_map in slots:
        _assert_fq_linear(tower, slot_map, domain_deg, rng)
        for beta in tower.basis_over_prime(domain_deg):
            gens.append(slot_map(beta))
    for g in gens:
        if not is_hermitian(g):
            raise ParameterError(
                f"{label}: generator {g!r} violates the Hermitian membership "
                "condition; with these parameters the construction leaves the "
                "Hermitian space (use s = 1 mod 2n)")
    return HermCode(tower, gens, label=label, declared_d=declared_d)


def build_H(tower: FieldTower, d: int, s: int) -> HermCode:
    """Codewords sum_j ((b_j x)^{q^{2s(n-j+1)}} + b_j^{q^s} x^{q^{2sj}}),
    b_j over F_{q^2n}; size q^{n(n-d+1)} with minimum rank d."""
    n = tower.n
    if s % 2 == 0 or s < 1:
        raise ParameterError(f"H family needs odd positive s, got s={s}")
    if math.gcd(s, n) != 1:
        raise ParameterError(f"H family needs gcd(s, n) = 1, got s={s}, n={n}")
    if not 1 <= d <= n - 1:
        raise ParameterError(f"H family needs 1 <= d <= n-1, got d={d}")
    if (n - d + 1) % 2:
        raise ParameterError(f"H family needs n and d of opposite parity, got n={n}, d={d}")

    def make_slot(j: int) -> Callable[[int], LinPoly]:
        hi = (s * (n - j + 1)) % n
        lo = (s * j) % n
        hi_f = (2 * s * (n - j + 1)) % (2 * n)

        def slot(b: int) -> LinPoly:
            return LinPoly.from_map(tower, {hi: tower.frobenius(b, hi_f),
                                            lo: tower.frobenius(b, s)})
        return slot

    slots = [(2 * n, make_slot(j)) for j in range(1, (n - d + 1) // 2 + 1)]
    return _span_from_slots(tower, slots, f"H(n={n},d={d},s={s},q={tower.q})", d)


def build_E(tower: FieldTower, d: int, s: int) -> HermCode:
    """Codewords (b_0 x)^{q^{s(n+1)}} + sum_j ((b_j x)^{q^{s(n+2j+1)}} +
    b_j^{q^s} x^{q^{s(n-2j+1)}}), b_0 over F_{q^n}, b_j over F_{q^2n};
    n and d both odd.  The j-sum runs to (n-d)/2."""
    n = tower.n
    if n % 2 == 0 or d % 2 == 0 or not 1 <= d <= n:
        raise ParameterError(f"E family needs n and d both odd with 1 <= d <= n, got n={n}, d={d}")
    if s % 2 == 0 or s < 1 or math.gcd(s, n) != 1:
        raise ParameterError(f"E family needs odd s with gcd(s, n) = 1, got s={s}")

    def slot0(b: int) -> LinPoly:
        f = (s * (n + 1)) % (2 * n)
        return LinPoly.monomial(tower, tower.frobenius(b, f), (s * (n + 1) // 2) % n)

    def make_slot(j: int) -> Callable[[int], LinPoly]:
        hi_f = (s * (n + 2 * j + 1)) % (2 * n)
        hi = (s * (n + 2 * j + 1) // 2) % n
        lo = (s * (n - 2 * j + 1) // 2) % n

        def slot(b: int) -> LinPoly:
            return LinPoly.from_map(tower, {hi: tower.frobenius(b, hi_f),
                                            lo: tower.frobenius(b, s)})
        return slot

    slots: list[tuple[int, Callable[[int], LinPoly]]] = [(n, slot0)]
    slots += [(2 * n, make_slot(j)) for j in range(1, (n - d) // 2 + 1)]
    return _span_from_slots(tower, slots, f"E(n={n},d={d},s={s},q={tower.q})", d)


def build_M(tower: FieldTower) -> HermCode:
    """All Hermitian matrices with zero diagonal (matrix model), size q^{n(n-1)}."""
    n = tower.n
    # the basis lists the n * e diagonal vectors first
    gens = [HermMatrix(tower, [vec[r * n:(r + 1) * n] for r in range(n)])
            for vec in hermitian_matrix_basis(tower)[n * tower.e:]]
    return code_from_matrix_set(tower, gens, label=f"M(n={n},q={tower.q})", declared_d=2)


def _check_htilde_params(tower: FieldTower, s: int, gamma: int | None) -> int:
    n = tower.n
    if tower.q % 2 == 0:
        raise ParameterError("Htilde family needs odd q")
    if n % 2 == 0 or n < 3:
        raise ParameterError(f"Htilde family needs odd n >= 3, got n={n}")
    if math.gcd(s, 2 * n) != 1:
        raise ParameterError(f"Htilde family needs gcd(s, 2n) = 1, got s={s}")
    gamma = gamma if gamma is not None else find_gamma(tower)
    if is_square(tower, tower.rel_norm(gamma, 2 * n, 1)):
        raise ParameterError("gamma norm is a square in F_q")
    return gamma


def build_Htilde(tower: FieldTower, s: int, gamma: int | None = None) -> HermCode:
    """The 2-code b x^{q^{s(n+1)}} + a gamma x^{q^{s(n-1)}} +
    (a gamma)^{q^{s(n+2)}} x^{q^{s(n+3)}} + middle pairs c_i; size q^{n(n-1)}.

    a, b range over F_{q^n}, the c_i over F_{q^2n} for i = 1..(n-3)/2.
    """
    n = tower.n
    gamma = _check_htilde_params(tower, s, gamma)

    def slot_b(b: int) -> LinPoly:
        return LinPoly.monomial(tower, b, (s * (n + 1) // 2) % n)

    def slot_a(a: int) -> LinPoly:
        u = tower.mul(a, gamma)
        lo = (s * (n - 1) // 2) % n
        hi = (s * (n + 3) // 2) % n
        return LinPoly.from_map(tower, {lo: u,
                                        hi: tower.frobenius(u, s * (n + 2))})

    def make_slot(i: int) -> Callable[[int], LinPoly]:
        lo = (s * i) % n
        hi = (s * (n - i + 1)) % n

        def slot(c: int) -> LinPoly:
            return LinPoly.from_map(tower, {lo: c,
                                            hi: tower.frobenius(c, s * (2 * n - 2 * i + 1))})
        return slot

    slots: list[tuple[int, Callable[[int], LinPoly]]] = [(n, slot_b), (n, slot_a)]
    slots += [(2 * n, make_slot(i)) for i in range(1, (n - 3) // 2 + 1)]
    return _span_from_slots(tower, slots, f"Htilde(n={n},s={s},q={tower.q})", 2)


def build_Htilde_dual(tower: FieldTower, s: int, gamma: int | None = None,
                      alpha: int | None = None) -> HermCode:
    """Closed-form dual: c gamma^{-1} alpha x^{q^{s(n-1)}} +
    (c gamma^{-1} alpha)^{q^{s(n+2)}} x^{q^{s(n+3)}}, c over F_{q^n}.

    alpha must satisfy alpha^{q-1} = -1; every nonzero member is invertible.
    """
    n = tower.n
    gamma = _check_htilde_params(tower, s, gamma)
    alpha = alpha if alpha is not None else find_alpha(tower)
    if tower.pow(alpha, tower.q - 1) != tower.neg(1):
        raise ParameterError("alpha does not satisfy alpha^{q-1} = -1")
    base = tower.mul(tower.inv(gamma), alpha)
    lo = (s * (n - 1) // 2) % n
    hi = (s * (n + 3) // 2) % n

    def slot(c: int) -> LinPoly:
        u = tower.mul(c, base)
        return LinPoly.from_map(tower, {lo: u,
                                        hi: tower.frobenius(u, s * (n + 2))})

    return _span_from_slots(tower, [(n, slot)],
                            f"Htilde_dual(n={n},s={s},q={tower.q})", n)
