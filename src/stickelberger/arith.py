"""Modular arithmetic, primitive roots, and the residue fields F_{q^f}.

Field elements are coefficient tuples over F_q in the polynomial basis of
a fixed monic irreducible modulus; a :class:`FieldDesc` bundles the
modulus together with the distinguished element of multiplicative order p
that pins down the p-th power residue character.
"""

import math
import struct
from functools import lru_cache
from itertools import islice, product, repeat
from typing import NamedTuple

# The first 40 primes, the fixed Miller-Rabin bases.
_MR_EXTRA_WITNESSES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173,
)
# (psi_k, k): psi_k is the smallest strong pseudoprime to the first k prime
# bases (OEIS A014233; Jaeschke, Math. Comp. 61 (1993); Sorenson-Webster,
# Math. Comp. 86 (2017)), so the first k bases decide every n < psi_k.
# psi_8 = psi_7 and psi_10 = psi_11 = psi_9, so those rows are left out.
_MR_PSI = (
    (2047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)
MILLER_RABIN_DETERMINISTIC_BOUND = _MR_PSI[-1][0]
MILLER_RABIN_WITNESS_COUNT = len(_MR_EXTRA_WITNESSES)
# (bound, bases): the bases decide every n < bound.  Below psi_5 Jaeschke's
# sets (Math. Comp. 61 (1993)) need fewer bases than the first primes.
_MR_BASES = (
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1_662_803)),
) + tuple(
    (psi, _MR_EXTRA_WITNESSES[:k]) for psi, k in _MR_PSI if psi > 1_122_004_669_633
)


def _primes_below(n):
    """The primes below n, by a sieve of Eratosthenes on a bytearray."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for d in range(2, math.isqrt(n - 1) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, n, d)))
    return [m for m in range(n) if sieve[m]]


# Trial division by every prime below 1024 is one gcd with their product.
_SMALL_PRIMES = frozenset(_primes_below(1024))
_PRIMORIAL = math.prod(_SMALL_PRIMES)


class VerificationError(AssertionError):
    """A mathematical check failed: the computation contradicts a theorem
    it relies on.  Raised explicitly, so the check survives `python -O`;
    it subclasses AssertionError for callers that catch that."""


def _miller_rabin(n: int, witnesses) -> bool:
    # n - 1 = d * 2^s with d odd: the lowest set bit of n - 1 is 2^s
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in witnesses:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test: one gcd with the primes below 1024, Miller-Rabin above.

    Below MILLER_RABIN_DETERMINISTIC_BOUND = psi_13 the answer is proven:
    n < bound runs the bases of the first row of `_MR_BASES` that covers
    it.  At or above psi_13 a fixed list of 40 prime bases is used, so
    results stay reproducible.
    """
    if n < 2:
        return False
    if math.gcd(n, _PRIMORIAL) != 1:
        return n in _SMALL_PRIMES
    # no prime factor below 1024, so n < 1024^2 has none at all
    if n < 1024 * 1024:
        return True
    for bound, bases in _MR_BASES:
        if n < bound:
            return _miller_rabin(n, bases)
    return _miller_rabin(n, _MR_EXTRA_WITNESSES)


def factorize(n: int) -> dict:
    """Trial-division factorization, returns {prime: exponent}.

    Only meant for the desk-scale group orders that appear here (p-1,
    q^f-1 and the like); do not feed it cryptographic-size integers.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out = {}
    for d in (2, 3):
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    d = 5
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2 if d % 6 == 5 else 4
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_order(a: int, p: int) -> int:
    """Order of a in (Z/pZ)^* for prime p."""
    a %= p
    if a == 0:
        raise ValueError("order of 0 is undefined")
    e = p - 1
    for ell in factorize(p - 1):
        while e % ell == 0 and pow(a, e // ell, p) == 1:
            e //= ell
    return e


def primitive_root(p: int) -> int:
    """Smallest generator of (Z/pZ)^* for an odd prime p.

    The smallest-root convention makes every object built downstream of a
    primitive root deterministic.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    cofactors = [(p - 1) // ell for ell in factorize(p - 1)]
    for v in range(2, p):
        if all(pow(v, c, p) != 1 for c in cofactors):
            return v
    raise VerificationError("unreachable: (Z/pZ)^* is cyclic")


def canon_power(v: int, k: int, p: int) -> int:
    """Representative of v^k mod p in [1, p-1]; negative k means the
    inverse power."""
    if v % p == 0:
        raise ValueError(f"{v} is divisible by {p}")
    r = pow(v % p, k, p)
    if not 1 <= r <= p - 1:
        raise VerificationError(f"{v}^{k} mod {p} = {r} is not a unit")
    return r


# struct codes of the slot widths packed by one struct call; wider slots
# take one int.to_bytes call each, which beat widening them to 8 bytes
_STRUCT_CODES = {1: "B", 2: "H", 4: "I"}


def _slot_width(bits):
    """Bytes in a slot that holds `bits` bits; 3 is widened to 4."""
    width = (bits + 7) // 8
    return 4 if width == 3 else width


def _pack(xs, width):
    code = _STRUCT_CODES.get(width)
    if code:
        raw = struct.pack(f"<{len(xs)}{code}", *xs)
    else:
        raw = b"".join(map(int.to_bytes, xs, repeat(width), repeat("little")))
    return int.from_bytes(raw, "little")


def _unpack(n, width, count):
    """The first `count` width-byte slots of a nonnegative packed integer."""
    size = width * count
    raw = (n & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    code = _STRUCT_CODES.get(width)
    if code:
        return struct.unpack(f"<{count}{code}", raw)
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, size, width)]


def packed_mul(a, b, p: int, stop: int, start: int = 0) -> list:
    """Coefficients start..stop-1 of the product of the polynomials with
    coefficient lists a and b, reduced mod p.

    Entries must be residues in [0, p).  Kronecker substitution: each list
    is packed into one integer with byte-aligned slots wide enough for any
    product coefficient, so one bigint product does the whole convolution.
    """
    a, b = a[:stop], b[:stop]
    if not a or not b:
        return [0] * (stop - start)
    width = _slot_width((min(len(a), len(b)) * (p - 1) ** 2).bit_length())
    window = (_pack(a, width) * _pack(b, width)) >> (8 * width * start)
    return [c % p for c in _unpack(window, width, stop - start)]


def _pack_signed(xs, width):
    positive = _pack([max(x, 0) for x in xs], width)
    return positive - _pack([max(-x, 0) for x in xs], width)


def signed_packed_mul(a, b) -> list:
    """The full product (length len(a)+len(b)-1) of two nonempty integer
    coefficient lists of any sign, by Kronecker substitution.

    Each list packs as its positive part minus its negative part, so the
    product is the exact signed sum of c_k * 2^(8*width*k).  No |c_k|
    exceeds min(nnz) * max|a| * max|b| < 2^(8*width-1), so adding
    2^(8*width-1) to every slot makes all slots nonnegative without
    carries; they are then unpacked like those of `packed_mul` and the
    offset removed.
    """
    count = len(a) + len(b) - 1
    bound = (
        min(len(a) - a.count(0), len(b) - b.count(0))
        * max(map(abs, a))
        * max(map(abs, b))
    )
    if not bound:
        return [0] * count
    width = _slot_width(bound.bit_length() + 1)
    half = 1 << (8 * width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    product = _pack_signed(a, width) * _pack_signed(b, width) + offset
    return [c - half for c in _unpack(product, width, count)]


# ---------------------------------------------------------------------------
# F_{q^f} in the polynomial basis


class FieldDesc(NamedTuple):
    """The residue field of a prime of Z[zeta_p] above q.

    f is the multiplicative order of q mod p, `modulus` a monic irreducible
    of degree f over F_q (coefficients low-to-high, length f+1; for f=1 the
    search gives x, so elements are plain residues), `generator` a
    generator of the multiplicative group found by lexicographic search,
    and `zeta_p_image` = generator^((q^f-1)/p), of order exactly p.

    Picking zeta_p_image IS picking the prime ideal: it fixes the image of
    zeta_p in the residue field, hence which conjugate ideal the character
    belongs to.
    """

    p: int
    q: int
    f: int
    modulus: tuple
    generator: tuple
    zeta_p_image: tuple

    @property
    def order(self) -> int:
        return self.q ** self.f


def _poly_mulmod(a, b, modulus, q):
    f = len(modulus) - 1
    conv = [0] * (2 * f - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    for e in range(2 * f - 2, f - 1, -1):
        c = conv[e] % q
        if c:
            for i in range(f):
                conv[e - f + i] -= c * modulus[i]
        conv[e] = 0
    return tuple(c % q for c in conv[:f])


def _poly_powmod(a, e, modulus, q):
    f = len(modulus) - 1
    result = (1,) + (0,) * (f - 1)
    base = tuple(a) + (0,) * (f - len(a))
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, modulus, q)
        base = _poly_mulmod(base, base, modulus, q)
        e >>= 1
    return result


def _is_irreducible(modulus, q, f):
    """Rabin's test.  x^(q^f) == x mod F = modulus makes F_q[x]/(F) a product
    of fields F_(q^d), d | f, where a nonzero h has h^(q^f-1) = 1: so h is
    prime to F exactly when h^(q^f-1) == 1 mod F.  F is irreducible when that
    holds for h = x^(q^(f/ell)) - x at each prime ell | f, since a factor of
    degree d < f has d | f/ell for some ell and then divides that h."""
    x = (0, 1) + (0,) * (f - 2) if f >= 2 else (-modulus[0] % q,)
    if _poly_powmod(x, q ** f, modulus, q) != x:
        return False
    for ell in factorize(f):
        frob = _poly_powmod(x, q ** (f // ell), modulus, q)
        diff = tuple((frob[i] - x[i]) % q for i in range(f))
        if _poly_powmod(diff, q ** f - 1, modulus, q) != (1,) + (0,) * (f - 1):
            return False
    return True


def _vectors(q, f):
    """Every vector of F_q^f, zero first, the constant coefficient moving
    fastest: the one enumeration order of the field searches."""
    return (v[::-1] for v in product(range(q), repeat=f))


def _find_modulus(q, f):
    # the first irreducible x^f + low in _vectors order: for f >= 2 the test
    # rejects a low with zero constant term (x | F); for f = 1 it takes x
    for low in _vectors(q, f):
        if _is_irreducible(low + (1,), q, f):
            return low + (1,)
    raise VerificationError(f"no irreducible degree-{f} polynomial over F_{q}")


def _find_generator(fd_modulus, q, f):
    group_order = q ** f - 1
    cofactors = [group_order // ell for ell in factorize(group_order)]
    one = (1,) + (0,) * (f - 1)
    for cand in islice(_vectors(q, f), 1, None):
        if all(_poly_powmod(cand, c, fd_modulus, q) != one for c in cofactors):
            return cand
    raise VerificationError("multiplicative group of a finite field is cyclic")


def field_make(p: int, q: int) -> FieldDesc:
    """Build the residue field description for a prime q =/= p.

    f is computed as the multiplicative order of q mod p; the modulus and
    group generator are found by one deterministic lexicographic search for
    every f (for f = 1: x and the smallest primitive root mod q).
    """
    if not is_prime(p) or p < 3:
        raise ValueError(f"p={p} is not an odd prime")
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    if q == p:
        raise ValueError("q must differ from p")
    f = multiplicative_order(q, p)
    modulus = _find_modulus(q, f)
    g0 = _find_generator(modulus, q, f)
    zeta = _poly_powmod(g0, (q ** f - 1) // p, modulus, q)
    fd = FieldDesc(p=p, q=q, f=f, modulus=modulus, generator=g0, zeta_p_image=zeta)
    one = (1,) + (0,) * (f - 1)
    if zeta == one or ff_pow(zeta, p, fd) != one:
        raise VerificationError("zeta_p_image must have order exactly p")
    return fd


def ff_mul(a, b, fd: FieldDesc):
    return _poly_mulmod(a, b, fd.modulus, fd.q)


def ff_pow(a, e, fd: FieldDesc):
    return _poly_powmod(a, e, fd.modulus, fd.q)


def ff_trace(x, fd: FieldDesc) -> int:
    """Trace down to the prime field: x + x^q + ... + x^(q^(f-1)), as a
    residue mod q."""
    acc = list(x) + [0] * (fd.f - len(x))
    t = tuple(acc)
    for _ in range(fd.f - 1):
        t = ff_pow(t, fd.q, fd)
        for i in range(fd.f):
            acc[i] = (acc[i] + t[i]) % fd.q
    if any(c % fd.q for c in acc[1:]):
        raise VerificationError("trace landed outside the prime field")
    return acc[0] % fd.q


@lru_cache(maxsize=None)
def _zeta_power_table(fd: FieldDesc):
    table = {}
    cur = (1,) + (0,) * (fd.f - 1)
    for c in range(fd.p):
        table[cur] = c
        cur = ff_mul(cur, fd.zeta_p_image, fd)
    return table


def residue_char_exponent(x, fd: FieldDesc) -> int:
    """Exponent c with x^((q^f-1)/p) = zeta_p_image^c, for nonzero x.

    The residue character used in the Gauss sum is the inverse one,
    zeta_p^(-c); callers negate the exponent themselves.
    """
    x = tuple(x) + (0,) * (fd.f - len(x))
    if all(c % fd.q == 0 for c in x):
        raise ValueError("character undefined at 0")
    y = ff_pow(x, (fd.order - 1) // fd.p, fd)
    table = _zeta_power_table(fd)
    if y not in table:
        raise VerificationError("p-th power residue landed outside <zeta_p_image>")
    return table[y]

