"""Exact arithmetic in the field tower F_p < F_q < F_{q^2} < F_{q^n} < F_{q^2n}.

A single ambient field F_p[x]/(modulus) of degree 2*n*e represents the whole
tower; subfields are subsets cut out by Frobenius fixed-point conditions, so
there is never more than one representation of an element.  Elements are
plain integer codes: the base-p digit encoding of the coefficient vector of
the residue polynomial, constant term first.  Code 0 is the zero element and
code 1 is the multiplicative identity.

The default modulus is chosen deterministically: the candidate coefficient
vectors (c_0, ..., c_{m-1}) of monic degree-m polynomials are scanned in
increasing order of the integer sum(c_i * p^i), and the first irreducible
polynomial whose root x is a primitive element wins.  Identical (p, e, n)
inputs therefore always produce identical towers, and the canonical
generator is always the residue class of x.

Fields of order up to 2^20 get exp, log and digits tables, so `mul` is two
lookups.  The exp table walks the powers of the generator.  When the
generator is x, which holds for every default modulus and for any supplied
modulus whose root x is primitive, each step is a shift-and-reduce on the
integer code (XOR for p = 2, two table lookups for odd p).  Otherwise each
step is a generic polynomial multiplication.

Addition is XOR for p = 2.  For odd p it works on chunks of c base-p
digits, through a table of the digit-wise sums of two chunks (P^2 entries
for P = p^c, c the largest with P^2 <= 2^14, and at least 1), so no digit
sum carries into the next chunk; at q = 3 and q = 5 (2ne = 6) a code is two
chunks.

Towers are interned per process: `make_tower` returns the same FieldTower
object for the same (p, e, n, modulus), so every code on that tower shares
its `cache` of derived tables (bases, eigenvalue tables).  Apart from that
cache, a tower never changes after construction, and every operation is a
pure function of its inputs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

# Discrete-log tables are built for fields up to this order; larger fields
# (allowed up to 2**32) fall back to polynomial arithmetic per operation.
_TABLE_LIMIT = 1 << 20
_ORDER_LIMIT = 1 << 32
# Odd-p addition works on chunks of base-p digits through a table indexed by
# a pair of chunks; the table has at most this many entries.
_CHUNK_LIMIT = 1 << 14


def _factorize(v: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs stay below 2**32)."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= v:
        while v % f == 0:
            out[f] = out.get(f, 0) + 1
            v //= f
        f += 1 if f == 2 else 2
    if v > 1:
        out[v] = out.get(v, 0) + 1
    return out


# -- dense F_p[x] helpers -----------------------------------------------------
#
# Used only for modulus search and validation; everything afterwards runs on
# integer codes.  Polynomials are little-endian coefficient tuples.


def _ptrim(a: Sequence[int]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _pmulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    # reduce modulo the monic polynomial `mod`
    m = len(mod) - 1
    for k in range(len(out) - 1, m - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for j in range(m):
                out[k - m + j] = (out[k - m + j] - c * mod[j]) % p
    return _ptrim(out)


def _ppowmod(a: Sequence[int], k: int, mod: Sequence[int], p: int) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    base = _ptrim(a)
    while k:
        if k & 1:
            result = _pmulmod(result, base, mod, p)
        base = _pmulmod(base, base, mod, p)
        k >>= 1
    return result


def _pmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    a = list(_ptrim(a))
    b = _ptrim(b)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - c * bj) % p
        a = list(_ptrim(a))
        if not a:
            break
    return tuple(a)


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _is_irreducible(mod: Sequence[int], p: int) -> bool:
    """Rabin test: x^{p^m} = x mod f, and gcd(x^{p^{m/r}} - x, f) trivial."""
    m = len(mod) - 1
    if m < 1 or mod[-1] != 1:
        return False
    xp = (0, 1)
    powers = []
    for _ in range(m):
        xp = _ppowmod(xp, p, mod, p)
        powers.append(xp)
    # x mod f is x itself unless m = 1
    if _ptrim(powers[-1]) != _pmod((0, 1), mod, p):
        return False
    for r in _factorize(m):
        k = m // r
        diff = list(powers[k - 1]) + [0, 0]
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(_ptrim(diff), mod, p)
        if len(g) != 1:
            return False
    return True


def _element_order_is(a_poly: Sequence[int], target: int, mod: Sequence[int], p: int) -> bool:
    """True iff the residue class of a_poly has multiplicative order `target`."""
    if _ppowmod(a_poly, target, mod, p) != (1,):
        return False
    for r in _factorize(target):
        if _ppowmod(a_poly, target // r, mod, p) == (1,):
            return False
    return True


class FieldTower:
    """Arithmetic context for F_{q^{2n}} with q = p^e and all tower subfields.

    Do not instantiate directly; use :func:`make_tower`, which owns the
    deterministic default-modulus search and validation.
    """

    __slots__ = ("p", "e", "n", "m", "q", "order", "modulus", "generator",
                 "_exp", "_log", "_digits", "_frob_exp", "_pw", "cache",
                 "_chunk", "_chunks", "_add_t", "_neg_t")

    def __init__(self, p: int, e: int, n: int, modulus: tuple[int, ...], generator_poly: tuple[int, ...]):
        self.p = p
        self.e = e
        self.n = n
        self.m = 2 * n * e
        self.q = p ** e
        self.order = p ** self.m
        self.modulus = modulus
        self._pw = [p ** i for i in range(self.m)]
        self.cache: dict = {}  # derived per-tower tables, shared via interning
        if p != 2:
            self._build_chunk_tables()

        if self.order <= _TABLE_LIMIT:
            self._build_tables(generator_poly)
        else:
            self._exp = None
            self._log = None
            self._digits = None
            self.generator = self._encode_poly(generator_poly)
        # q^k mod (order-1) for k in 0..2n-1, the Frobenius exponent lattice
        self._frob_exp = [pow(self.q, k, self.order - 1) for k in range(2 * n)]

    # -- representation helpers ------------------------------------------

    def _encode_poly(self, poly: Sequence[int]) -> int:
        return sum(c * w for c, w in zip(poly, self._pw))

    def digits(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of `a` in the power basis, constant term first."""
        if self._digits is not None:
            return self._digits[a]
        out = []
        p = self.p
        for _ in range(self.m):
            a, r = divmod(a, p)
            out.append(r)
        return tuple(out)

    def digit_vector(self, codes: Iterable[int]) -> list[int]:
        """The digit vectors of the given elements, concatenated."""
        return [d for c in codes for d in self.digits(c)]

    def from_digits(self, vec: Iterable[int]) -> int:
        vec = tuple(vec)
        if len(vec) != self.m:
            raise ValueError(f"expected {self.m} coefficients, got {len(vec)}")
        p = self.p
        return sum((c % p) * w for c, w in zip(vec, self._pw))

    def _build_tables(self, generator_poly: tuple[int, ...]) -> None:
        p, m, order = self.p, self.m, self.order
        size = order - 1
        # base-p digit tuples of the codes below p^h, h = ceil(m/2); the
        # walk's addition tables and the full digits table are built from them
        h = (m + 1) // 2
        half: list[tuple[int, ...]] = [()]
        for _ in range(h):
            half = [t + (d,) for d in range(p) for t in half]
        # the powers of the generator, by shift-and-reduce on integer codes
        # when it is x, else by generic polynomial multiplication
        if generator_poly == (0, 1):
            exp, last = self._walk_x(half, size)
        else:
            exp, last = self._walk_poly(generator_poly, size)
        # g^size = 1 for every nonzero g; g has order size only if also
        # g^(size/r) != 1 for each prime r dividing size
        if last != 1 or any(exp[size // r] == 1 for r in _factorize(size)):
            raise AssertionError("generator order mismatch while building tables")
        log = [0] * order
        for i, a in enumerate(exp):
            log[a] = i
        exp += exp  # two periods, so mul indexes log a + log b directly
        self._exp = exp
        self._log = log
        self.generator = exp[1]
        high = [t[:m - h] for t in half[:p ** (m - h)]]
        self._digits = [lo + hi for hi in high for lo in half]

    def _walk_x(self, half: list[tuple[int, ...]], size: int) -> tuple[list[int], int]:
        """Codes of x^0 .. x^(size-1) by shift-and-reduce, and the code of x^size.

        Multiplying by x moves every digit up one place; the top digit c
        leaves as c*x^m, which the modulus turns into -c*(modulus - x^m),
        and that code is added digit-wise mod p.  For p = 2 the addition is
        XOR.  For odd p, split cur = k*p^(h-1) + j: the new high half is a
        function of k alone (its top digit is c) and the new low half of
        j and c, so both come from tables built digit by digit, and no
        digit sum ever carries.
        """
        p, m = self.p, self.m
        low = self.modulus[:m]
        exp = [0] * size
        cur = 1
        if p == 2:
            top = 1 << (m - 1)
            red = self._encode_poly(low)
            for i in range(size):
                exp[i] = cur
                cur = ((cur ^ top) << 1) ^ red if cur >= top else cur << 1
            return exp, cur
        h = len(half[0])
        tl, nk, pw = p ** (h - 1), p ** (m - h), self._pw
        hi_add: list[int] = []
        lo_add: list[list[int]] = []
        for c in range(p):
            red = [(-c * a) % p for a in low]
            hi_add += [pw[h] * sum(((x + y) % p) * w for x, y, w in zip(t[:m - h], red[h:], pw))
                       for t in half[:nk]]
            lo_add += [[sum(((x + y) % p) * w for x, y, w in zip((0,) + t[:h - 1], red, pw))
                        for t in half[:tl]]] * nk
        for i in range(size):
            exp[i] = cur
            k, j = divmod(cur, tl)
            cur = hi_add[k] + lo_add[k][j]
        return exp, cur

    def _walk_poly(self, generator_poly: tuple[int, ...], size: int) -> tuple[list[int], int]:
        """Codes of g^0 .. g^(size-1) by generic polynomial multiplication,
        and the code of g^size; the route for a supplied modulus whose root
        x is not primitive."""
        exp = [0] * size
        cur: tuple[int, ...] = (1,)
        for i in range(size):
            exp[i] = self._encode_poly(cur)
            cur = _pmulmod(cur, generator_poly, self.modulus, self.p)
        return exp, self._encode_poly(cur)

    # -- ring operations ---------------------------------------------------

    def _build_chunk_tables(self) -> None:
        """Digit-wise addition and negation tables for odd p, on chunks of
        c base-p digits (codes below P = p^c): c is the largest value with
        P^2 <= _CHUNK_LIMIT and c <= m, and at least 1."""
        p = self.p
        c = 1
        while c < self.m and p ** (2 * c + 2) <= _CHUNK_LIMIT:
            c += 1
        self._chunk = P = p ** c
        self._chunks = -(-self.m // c)
        # grow both tables one digit at a time: x = p*x' + x0, y = p*y' + y0
        add1 = [(i + j) % p for i in range(p) for j in range(p)]
        add_t, neg_t, size = add1, [(-i) % p for i in range(p)], p
        for _ in range(c - 1):
            add_t = [add1[x0 * p + y0] + p * add_t[xs * size + ys]
                     for xs in range(size) for x0 in range(p)
                     for ys in range(size) for y0 in range(p)]
            neg_t = [(-x0) % p + p * nx for nx in neg_t for x0 in range(p)]
            size *= p
        self._add_t = add_t
        self._neg_t = neg_t

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        P, T = self._chunk, self._add_t
        if self._chunks <= 2:
            ah, al = divmod(a, P)
            bh, bl = divmod(b, P)
            return T[ah * P + bh] * P + T[al * P + bl]
        out, w = 0, 1
        while a or b:
            a, x = divmod(a, P)
            b, y = divmod(b, P)
            out += T[x * P + y] * w
            w *= P
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        P, N = self._chunk, self._neg_t
        out, w = 0, 1
        while a:
            a, x = divmod(a, P)
            out += N[x] * w
            w *= P
        return out

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        P, T, N = self._chunk, self._add_t, self._neg_t
        if self._chunks <= 2:
            ah, al = divmod(a, P)
            bh, bl = divmod(b, P)
            return T[ah * P + N[bh]] * P + T[al * P + N[bl]]
        out, w = 0, 1
        while a or b:
            a, x = divmod(a, P)
            b, y = divmod(b, P)
            out += T[x * P + N[y]] * w
            w *= P
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        prod = _pmulmod(self.digits(a), self.digits(b), self.modulus, self.p)
        return self._encode_poly(prod)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self._exp is not None:
            return self._exp[self.order - 1 - self._log[a]]
        return self.pow(a, self.order - 2)

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        k %= self.order - 1
        if self._exp is not None:
            return self._exp[(self._log[a] * k) % (self.order - 1)]
        return self._encode_poly(_ppowmod(self.digits(a), k, self.modulus, self.p))

    # -- Frobenius, subfields, trace, norm ---------------------------------

    def frobenius(self, a: int, k: int) -> int:
        """a^{q^k}; k is taken modulo 2n, negative k walks backwards."""
        if a == 0:
            return 0
        k %= 2 * self.n
        if k == 0:
            return a
        if self._exp is not None:
            return self._exp[(self._log[a] * self._frob_exp[k]) % (self.order - 1)]
        return self.pow(a, self._frob_exp[k])

    def in_subfield(self, a: int, k: int) -> bool:
        """Membership in F_{q^k} (k must divide 2n)."""
        if (2 * self.n) % k:
            raise ValueError(f"q-degree {k} is not a tower subfield degree")
        return self.frobenius(a, k) == a

    def rel_trace(self, a: int, from_deg: int, to_deg: int) -> int:
        """Trace from F_{q^from_deg} down to F_{q^to_deg}."""
        self._check_rel(a, from_deg, to_deg)
        acc = 0
        for i in range(from_deg // to_deg):
            acc = self.add(acc, self.frobenius(a, to_deg * i))
        return acc

    def rel_norm(self, a: int, from_deg: int, to_deg: int) -> int:
        """Norm from F_{q^from_deg} down to F_{q^to_deg}."""
        self._check_rel(a, from_deg, to_deg)
        if a == 0:
            return 0
        exp = (self.q ** from_deg - 1) // (self.q ** to_deg - 1)
        return self.pow(a, exp)

    def _check_rel(self, a: int, from_deg: int, to_deg: int) -> None:
        if from_deg % to_deg:
            raise ValueError(f"degree {to_deg} does not divide {from_deg}")
        if (2 * self.n) % from_deg:
            raise ValueError(f"q-degree {from_deg} is not a tower subfield degree")
        if not self.in_subfield(a, from_deg):
            raise ValueError(f"element {a} does not lie in F_q^{from_deg}")

    def prime_trace(self, a: int) -> int:
        """Trace from F_q to F_p of an F_q element, returned as an int in [0, p)."""
        if not self.in_subfield(a, 1):
            raise ValueError(f"element {a} does not lie in F_q")
        acc = a
        cur = a
        for _ in range(self.e - 1):
            cur = self.pow(cur, self.p)
            acc = self.add(acc, cur)
        if acc >= self.p:
            raise AssertionError("prime-field element with non-constant digits")
        return acc

    def subfield_generator(self, k: int) -> int:
        """Canonical primitive element of F_{q^k}: g^{(|F*|)/(q^k-1)}."""
        if (2 * self.n) % k:
            raise ValueError(f"q-degree {k} is not a tower subfield degree")
        return self.pow(self.generator, (self.order - 1) // (self.q ** k - 1))

    def subfield_elements(self, k: int) -> list[int]:
        """All elements of F_{q^k}, sorted by code (cached)."""
        key = ("subfield", k)
        if key not in self.cache:
            gk = self.subfield_generator(k)
            out = {0, 1}
            cur = gk
            for _ in range(self.q ** k - 2):
                out.add(cur)
                cur = self.mul(cur, gk)
            self.cache[key] = sorted(out)
        return self.cache[key]

    def basis_over_prime(self, k: int) -> list[int]:
        """F_p-basis of F_{q^k}: powers of the canonical subfield generator."""
        gk = self.subfield_generator(k)
        out = [1]
        for _ in range(k * self.e - 1):
            out.append(self.mul(out[-1], gk))
        return out

    def ambient_basis(self) -> list[int]:
        """The power basis of the whole field, 1, g, ..., g^{m-1}."""
        key = "ambient_basis"
        if key not in self.cache:
            self.cache[key] = self.basis_over_prime(2 * self.n)
        return self.cache[key]

    def q2_basis(self) -> list[int]:
        """The fixed F_{q^2}-basis of F_{q^2n}: 1, g, ..., g^{n-1}."""
        key = "q2_basis"
        if key not in self.cache:
            out = [1]
            for _ in range(self.n - 1):
                out.append(self.mul(out[-1], self.generator))
            self.cache[key] = out
        return self.cache[key]

    # -- misc ----------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"p": self.p, "e": self.e, "n": self.n, "modulus": list(self.modulus)}

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldTower)
                and (self.p, self.e, self.n, self.modulus)
                == (other.p, other.e, other.n, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.n, self.modulus))

    def __repr__(self) -> str:
        return f"FieldTower(p={self.p}, e={self.e}, n={self.n}, order={self.order})"


def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Least monic irreducible of degree m over F_p whose root is primitive.

    Candidates are ordered by the base-p integer encoding of their low
    coefficient vector, so the choice is reproducible everywhere.
    """
    target = p ** m - 1
    for k in range(p ** m):
        low = []
        v = k
        for _ in range(m):
            v, r = divmod(v, p)
            low.append(r)
        cand = tuple(low) + (1,)
        if cand[0] == 0:  # divisible by x
            continue
        if not _is_irreducible(cand, p):
            continue
        if _element_order_is((0, 1), target, cand, p):
            return cand
    raise AssertionError(f"no primitive irreducible of degree {m} over F_{p}")


# interned towers, keyed by (p, e, n, modulus); modulus None is the default
_TOWERS: dict = {}


def make_tower(p: int, e: int, n: int, modulus: Sequence[int] | None = None) -> FieldTower:
    """The tower context for F_p < F_q < F_{q^2} < F_{q^n} < F_{q^2n}.

    When `modulus` is omitted a deterministic default is selected (see module
    docstring).  A supplied modulus must be monic of degree 2ne, irreducible
    over F_p, and given little-endian with the constant term first.

    Towers are interned per process: equal arguments (the modulus reduced
    mod p) return the very same object, whose `cache` all callers share.
    """
    # the ceiling is tested before the trial division and the power,
    # which a huge p or m would make slow
    if p > _ORDER_LIMIT:
        raise ValueError(f"field order exceeds the supported 2^32 ceiling (p = {p})")
    if _factorize(p) != {p: 1}:
        raise ValueError(f"p = {p} is not prime")
    if e < 1 or n < 1:
        raise ValueError("e and n must be positive")
    m = 2 * n * e
    if m > 32 or p ** m > _ORDER_LIMIT:
        raise ValueError(f"field order p^{m} exceeds the supported 2^32 ceiling")

    key = (p, e, n, None if modulus is None else tuple(int(c) % p for c in modulus))
    if key in _TOWERS:
        return _TOWERS[key]
    if modulus is None:
        # x is primitive for the default modulus and is the least primitive
        # element by code, so the explicit-modulus route picks it too
        mod = _default_modulus(p, m)
        tower = _TOWERS.get((p, e, n, mod)) or FieldTower(p, e, n, mod, (0, 1))
    else:
        mod = key[3]
        if len(mod) != m + 1 or mod[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {m}")
        if not _is_irreducible(mod, p):
            raise ValueError("supplied modulus is reducible over F_p")
        tower = FieldTower(p, e, n, mod, _find_primitive(mod, p, m))
    _TOWERS[key] = _TOWERS[(p, e, n, mod)] = tower
    return tower


def _find_primitive(mod: tuple[int, ...], p: int, m: int) -> tuple[int, ...]:
    """Least element (by code) of maximal multiplicative order."""
    target = p ** m - 1
    for code in range(2, p ** m):
        poly = []
        v = code
        for _ in range(m):
            v, r = divmod(v, p)
            poly.append(r)
        if _element_order_is(_ptrim(poly), target, mod, p):
            return _ptrim(poly)
    raise AssertionError("no primitive element found in a finite field")


def is_square(tower: FieldTower, a: int) -> bool:
    """Square test inside F_q (q odd); zero counts as a square."""
    if tower.q % 2 == 0:
        raise ValueError("square classes are trivial in characteristic 2")
    if not tower.in_subfield(a, 1):
        raise ValueError("square test expects an F_q element")
    if a == 0:
        return True
    return tower.pow(a, (tower.q - 1) // 2) == 1


def find_gamma(tower: FieldTower) -> int:
    """Least power of the tower generator whose F_q-norm is a non-square.

    Such elements exist for every odd q because the norm maps onto F_q*.
    """
    if tower.q % 2 == 0:
        raise ValueError("non-square norms require odd q")
    g = tower.generator
    cur = g
    for _ in range(tower.order - 1):
        if not is_square(tower, tower.rel_norm(cur, 2 * tower.n, 1)):
            return cur
        cur = tower.mul(cur, g)
    raise AssertionError("norm map failed to reach a non-square")


def find_alpha(tower: FieldTower) -> int:
    """Deterministic alpha with alpha^{q-1} = -1 (q odd).

    alpha = g^{(|F*|/2)/(q-1)} works: raising to q-1 lands on the unique
    element of order 2.
    """
    if tower.q % 2 == 0:
        raise ValueError("alpha^{q-1} = -1 is degenerate for even q")
    k = (tower.order - 1) // (2 * (tower.q - 1))
    alpha = tower.pow(tower.generator, k)
    minus_one = tower.neg(1)
    if tower.pow(alpha, tower.q - 1) != minus_one:
        raise AssertionError("alpha construction violated its defining relation")
    return alpha
