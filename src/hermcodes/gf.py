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

A tower starts without exp/log tables: `mul`, `inv`, `pow` and `frobenius`
multiply residues in F_p[x]/(modulus), and each call charges its count of
polynomial products to the tower.  Where m(p-1)^2 <= 255 (every p <= 5 and
p = 7 up to m = 6) a residue is packed one coefficient per byte lane of an
integer, and a product is one integer product reduced mod p lane-wise and
then mod the modulus by a Barrett step (`_LaneRing`); a code is packed and
unpacked through tables of its two halves.  Other fields multiply
coefficient tuples by the schoolbook (`_pmulmod`).  A field of order up to
2^20 builds its exp and log tables once the charges reach a fixed share of
the cost of the build; from then on `mul` is two lookups.  So light work on
a large field, such as constructing one code at q = 9, never builds, while
a long analysis builds early.  The exp table walks the powers of the
generator.  When the generator is x, which holds for every default modulus
and for any supplied modulus whose root x is primitive, each step is a
shift-and-reduce on the integer code (XOR for p = 2, two table lookups
for odd p).  Otherwise each step is a generic polynomial multiplication.
`digits` joins the digit tuples of the low and high halves of a code, two
lookups in one table of p^(m/2) entries.

Addition is XOR for p = 2.  For odd p it works on chunks of c base-p
digits, through a table of the digit-wise sums of two chunks (P^2 entries
for P = p^c, c the largest with P^2 <= 2^14, and at least 1), so no digit
sum carries into the next chunk; at q = 3 and q = 5 (2ne = 6) a code is two
chunks.

Towers are interned per process: `make_tower` returns the same FieldTower
object for the same (p, e, n, modulus), so every code on that tower shares
its `cache` of derived tables (bases, eigenvalue tables).  Apart from that
cache, the work charge and the exp/log tables, a tower never changes after
construction.  Every operation is a pure function of its inputs: both
routes give the same codes, so when the tables are built changes only the
time an operation takes.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

# Discrete-log tables are built for fields up to this order, and only once
# the table-free work on the tower has cost about as much as building them
# (FieldTower._charge); larger fields (allowed up to 2**32) always take the
# polynomial route.  Either route gives the same codes.
_TABLE_LIMIT = 1 << 20
_ORDER_LIMIT = 1 << 32
# The build threshold, in table-free products: order // _BUILD_DIVISOR.
# A table-free `mul` costs 2.0-3.6 us at every m from 2 to 20 on byte lanes
# (a charged product inside `pow` about half that), and the exp/log build
# 0.2-0.5 us per element (CPython 3.11, 2-vCPU host), so the build costs
# about as much as order / 7 to order / 18 products.  The tower builds
# after a fifth to a half of those: the analyses that reach the threshold
# run on far past the build, and pay at most half of it first, while the
# light CLI calls (at most 2,354 products on the q = 9 field, a sixth of
# its threshold) never build.
_BUILD_DIVISOR = 36
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


def pack_lanes(values: Iterable[int]) -> int:
    """Integers in [0, 256) as one integer with a byte lane each, the first
    in the lowest byte: the format of `_LaneRing` residues and of the
    F_p rows of `linalg` at 3 <= p <= 13."""
    return int.from_bytes(bytes(values), "little")


@functools.cache
def lane_mod_table(p: int) -> bytes:
    """The `bytes.translate` table that reduces every byte lane mod p."""
    return bytes(b % p for b in range(256))


# -- dense F_p[x] helpers -----------------------------------------------------
#
# The table-free route, the modulus search and the validation of supplied
# moduli all compute in F_p[x]/(mod) through a _PolyRing.  Polynomials are
# little-endian coefficient tuples.


def _ptrim(a: Sequence[int]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _pmulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> tuple[int, ...]:
    """Schoolbook product mod the monic `mod`: the route for moduli whose
    byte lanes could overflow, and the tests' oracle for the lane route."""
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


class _PolyRing:
    """F_p[x]/(mod) for a monic `mod` of degree m, by schoolbook products.

    Residues are trimmed coefficient tuples; `_poly_ring` picks this class
    only where the byte lanes of `_LaneRing` could overflow.  `pack` takes
    a reduced coefficient tuple (degree below m, entries in [0, p)) to the
    ring's residue, `unpack` takes a residue back to a trimmed tuple, and
    `one` is the residue 1.
    """

    __slots__ = ("p", "m", "mod")
    one: int | tuple[int, ...] = (1,)

    def __init__(self, mod: Sequence[int], p: int):
        self.p = p
        self.mod = tuple(mod)
        self.m = len(mod) - 1

    def pack(self, poly: Sequence[int]):
        return _ptrim(poly)

    def unpack(self, r) -> tuple[int, ...]:
        return r

    def mul(self, a, b):
        return _pmulmod(a, b, self.mod, self.p)

    def pow(self, a, k: int):
        """a^k for k >= 0, by left-to-right square-and-multiply."""
        if k == 0:
            return self.one
        result = a
        for bit in bin(k)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result


class _LaneRing(_PolyRing):
    """F_p[x]/(mod) on byte lanes, for m >= 2 and m(p-1)^2 <= 255.

    A residue is one integer with a byte lane per coefficient, constant term
    lowest.  The product of two residues is one integer product (Kronecker
    substitution): lane k holds sum_{i+j=k} a_i b_j <= m(p-1)^2, so no lane
    carries, and `bytes.translate` reduces the 2m-1 lanes mod p at once.
    The product c is reduced by an exact polynomial Barrett step, with the
    constants mu = floor(x^(2m-2) / mod) and -mod's low part packed once:

        quot = floor(floor(c / x^m) * mu / x^(m-2)),
        c mod mod = (c mod x^m) - quot * (mod - x^m) mod x^m,

    which is exact over a field for every c of degree <= 2m-2, and whose
    lanes stay below m(p-1)^2 as well.
    """

    __slots__ = ("_mu", "_neg_low", "_mask", "_translate")
    one = 1

    def __init__(self, mod: Sequence[int], p: int):
        super().__init__(mod, p)
        m, mod = self.m, self.mod
        # mu by long division of x^(2m-2), degree m-2
        rem = [0] * (2 * m - 2) + [1]
        mu = [0] * (m - 1)
        for k in range(2 * m - 2, m - 1, -1):
            c = rem[k]
            if c:
                mu[k - m] = c
                for j in range(m + 1):
                    rem[k - m + j] = (rem[k - m + j] - c * mod[j]) % p
        self._mu = pack_lanes(mu)
        self._neg_low = pack_lanes((-c) % p for c in mod[:m])
        self._mask = (1 << (8 * m)) - 1
        self._translate = lane_mod_table(p)

    def pack(self, poly: Sequence[int]) -> int:
        return pack_lanes(poly)

    def unpack(self, r: int) -> tuple[int, ...]:
        return _ptrim(r.to_bytes(self.m, "little"))

    def mul(self, a: int, b: int) -> int:
        m, t, mask = self.m, self._translate, self._mask
        c = int.from_bytes((a * b).to_bytes(2 * m - 1, "little").translate(t), "little")
        quot = ((c >> (8 * m)) * self._mu) >> (8 * m - 16)
        quot = int.from_bytes(quot.to_bytes(m - 1, "little").translate(t), "little")
        r = ((c & mask) + quot * self._neg_low) & mask
        return int.from_bytes(r.to_bytes(m, "little").translate(t), "little")


def _poly_ring(mod: Sequence[int], p: int) -> _PolyRing:
    """F_p[x]/(mod) on byte lanes where no lane can overflow, else schoolbook."""
    m = len(mod) - 1
    return (_LaneRing if m >= 2 and m * (p - 1) ** 2 <= 255 else _PolyRing)(mod, p)


def _is_irreducible(mod: Sequence[int], p: int) -> bool:
    """Rabin test: x^{p^m} = x mod f, and gcd(x^{p^{m/r}} - x, f) trivial."""
    m = len(mod) - 1
    if m < 1 or mod[-1] != 1:
        return False
    ring = _poly_ring(mod, p)
    xp = ring.pack((0, 1))
    powers = []
    for _ in range(m):
        xp = ring.pow(xp, p)
        powers.append(ring.unpack(xp))
    # x mod f is x itself unless m = 1
    if powers[-1] != _pmod((0, 1), mod, p):
        return False
    for r in _factorize(m):
        k = m // r
        diff = list(powers[k - 1]) + [0, 0]
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(_ptrim(diff), mod, p)
        if len(g) != 1:
            return False
    return True


def _element_order_is(ring: _PolyRing, a_poly: Sequence[int], target: int) -> bool:
    """True iff the residue class of a_poly has multiplicative order `target`."""
    a, one = ring.pack(a_poly), ring.one
    if ring.pow(a, target) != one:
        return False
    return all(ring.pow(a, target // r) != one for r in _factorize(target))


class FieldTower:
    """Arithmetic context for F_{q^{2n}} with q = p^e and all tower subfields.

    Do not instantiate directly; use :func:`make_tower`, which owns the
    deterministic default-modulus search and validation.
    """

    __slots__ = ("p", "e", "n", "m", "q", "order", "modulus", "generator",
                 "_generator_poly", "_exp", "_log", "_spent", "_build_at",
                 "_half", "_half_size", "_frob_exp", "_pw", "cache",
                 "_chunk", "_chunks", "_add_t", "_neg_t",
                 "_ring", "_lane_lo", "_lane_hi", "_lane_code", "_lane_mask")

    def __init__(self, p: int, e: int, n: int, modulus: tuple[int, ...], generator_poly: tuple[int, ...]):
        self.p = p
        self.e = e
        self.n = n
        self.m = m = 2 * n * e
        self.q = p ** e
        self.order = p ** self.m
        self.modulus = modulus
        self._pw = [p ** i for i in range(self.m)]
        self.cache: dict = {}  # derived per-tower tables, shared via interning
        if p != 2:
            self._build_chunk_tables()
        self._ring = ring = _poly_ring(modulus, p)
        if not _element_order_is(ring, generator_poly, self.order - 1):
            raise AssertionError("generator order mismatch: not a primitive element")
        self._generator_poly = generator_poly
        self.generator = self._encode_poly(generator_poly)
        # base-p digit tuples of the codes below p^(m/2): `digits` joins
        # those of the low and the high half of a code (m = 2ne is even)
        half: list[tuple[int, ...]] = [()]
        for _ in range(m // 2):
            half = [t + (d,) for d in range(p) for t in half]
        self._half, self._half_size = half, p ** (m // 2)
        # on a lane ring, the half codes packed as the low and the high m/2
        # byte lanes (4m bits) of a residue, and the half code of each
        # packed low half
        self._lane_lo = self._lane_hi = self._lane_code = self._lane_mask = None
        if isinstance(ring, _LaneRing):
            self._lane_lo = [pack_lanes(t) for t in half]
            self._lane_hi = [v << (4 * m) for v in self._lane_lo]
            self._lane_code = {v: i for i, v in enumerate(self._lane_lo)}
            self._lane_mask = (1 << (4 * m)) - 1
        # exp/log tables wait until the table-free work has paid a share of
        # them (see _BUILD_DIVISOR), and are never built above _TABLE_LIMIT
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._spent = 0
        self._build_at = (self.order // _BUILD_DIVISOR
                          if self.order <= _TABLE_LIMIT else math.inf)
        # q^k mod (order-1) for k in 0..2n-1, the Frobenius exponent lattice
        self._frob_exp = [pow(self.q, k, self.order - 1) for k in range(2 * n)]

    # -- representation helpers ------------------------------------------

    def _encode_poly(self, poly: Sequence[int]) -> int:
        return sum(c * w for c, w in zip(poly, self._pw))

    def _to_ring(self, a: int) -> int | tuple[int, ...]:
        """The residue of code `a` in the tower's _PolyRing."""
        if self._lane_lo is None:
            return self.digits(a)
        size = self._half_size
        return self._lane_lo[a % size] | self._lane_hi[a // size]

    def _from_ring(self, r: int | tuple[int, ...]) -> int:
        """The code of a residue in the tower's _PolyRing."""
        if self._lane_lo is None:
            return self._encode_poly(r)
        code = self._lane_code
        return code[r & self._lane_mask] + self._half_size * code[r >> (4 * self.m)]

    def digits(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of `a` in the power basis, constant term first."""
        half, size = self._half, self._half_size
        return half[a % size] + half[a // size]

    def digit_vector(self, codes: Iterable[int]) -> list[int]:
        """The digit vectors of the given elements, concatenated."""
        return [d for c in codes for d in self.digits(c)]

    def from_digits(self, vec: Iterable[int]) -> int:
        vec = tuple(vec)
        if len(vec) != self.m:
            raise ValueError(f"expected {self.m} coefficients, got {len(vec)}")
        p = self.p
        return sum((c % p) * w for c, w in zip(vec, self._pw))

    def _charge(self, cost: int) -> bool:
        """Charge `cost` table-free products; once the charges reach
        `_build_at`, build the exp/log tables.  True iff the tables exist."""
        self._spent += cost
        if self._spent < self._build_at:
            return False
        self._build_tables()
        return True

    def _build_tables(self) -> None:
        order = self.order
        size = order - 1
        # the powers of the generator, by shift-and-reduce on integer codes
        # when it is x, else by generic polynomial multiplication
        if self._generator_poly == (0, 1):
            exp, last = self._walk_x(self._half, size)
        else:
            exp, last = self._walk_poly(self._generator_poly, size)
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
        ring = self._ring
        gen = ring.pack(generator_poly)
        exp = [0] * size
        cur = ring.one
        for i in range(size):
            exp[i] = self._from_ring(cur)
            cur = ring.mul(cur, gen)
        return exp, self._from_ring(cur)

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

    # mul, inv, pow and frobenius take the table route once the tables
    # exist, and until then the polynomial route through the tower's
    # _PolyRing, charged in products: 1 for a product, 2 * bit_length(k)
    # for a k-th power

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is None and not self._charge(1):
            return self._from_ring(self._ring.mul(self._to_ring(a), self._to_ring(b)))
        return self._exp[self._log[a] + self._log[b]]

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
        if self._exp is None and not self._charge(2 * k.bit_length()):
            return self._from_ring(self._ring.pow(self._to_ring(a), k))
        return self._exp[(self._log[a] * k) % (self.order - 1)]

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
    coefficient vector, so the choice is reproducible everywhere.  No
    irreducibility test is needed: if x has order p^m - 1 modulo f, the
    units of F_p[x]/(f) number at least p^m - 1, so every nonzero residue
    is a unit, F_p[x]/(f) is a field and f is irreducible.
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
        if _element_order_is(_poly_ring(cand, p), (0, 1), target):
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
    ring = _poly_ring(mod, p)
    for code in range(2, p ** m):
        poly = []
        v = code
        for _ in range(m):
            v, r = divmod(v, p)
            poly.append(r)
        if _element_order_is(ring, _ptrim(poly), target):
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
