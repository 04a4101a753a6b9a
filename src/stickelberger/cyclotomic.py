"""Exact arithmetic in Z[zeta_p] and Z[zeta_pq], plus the two valuations
the verification suites run on: the lambda-adic one at the prime over p,
and the valuations at the p-1 primes over a split q.

Three jobs read an element off its values at the roots of Phi_p modulo a
prime power ell^k, and all three take their roots from one table,
`hensel_roots`: the powers of the Newton lift of the smallest root of
Phi_n mod ell.  Split valuations use ell = q (`ideal_valuation`), norms
to Q the smallest prime ell = 1 (mod p) (`root_values`, `norm`), and an
element of Z[zeta_p] given as a power of an element of Z[zeta_pq] the
smallest prime ell = 1 (mod pq) (`zeta_p_power`).

Elements are kept in the reduced power basis: zeta_p^0..zeta_p^(p-2),
using zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)).  All coefficients are
arbitrary-precision Python ints.
"""

import math
from itertools import accumulate, repeat
from operator import add, mul, sub

from .arith import VerificationError, is_prime, primitive_root, signed_packed_mul


def _reduce_exponents(p, vec):
    """Fold a coefficient vector indexed by exponents 0..len-1 (len < 2p-1)
    into the reduced basis of length p-1."""
    out = list(vec[: p - 1]) + [0] * max(0, p - 1 - len(vec))
    for e in range(p, len(vec)):
        out[e - p] += vec[e]
    if len(vec) >= p:
        c = vec[p - 1]
        if c:
            for i in range(p - 1):
                out[i] -= c
    return out


class CoeffVector:
    """Immutable integer coefficient vector, the base of the two rings
    CycInt and BiCycInt, which both carry their prime as `p`.

    The product is one packed bigint product for both rings; a subclass
    supplies only its fold, `_fold`, which reduces the product's list of
    coefficients into its basis.  Every element-wise operation goes through
    `_map`; a subclass with another coefficient shape (BiCycInt's rows)
    overrides it, `is_zero` and `_flat`.  Int operands are embedded by
    `_coerce`.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        coeffs = tuple(map(int, coeffs))
        if len(coeffs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def from_int(cls, p, n):
        return cls(p, (n,) + (0,) * (p - 2))

    def __repr__(self):
        return f"{type(self).__name__}(p={self.p}, {self.coeffs})"

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def _coerce(self, other):
        if isinstance(other, int):
            return self.from_int(self.p, other)
        if not isinstance(other, type(self)):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if other.p != self.p:
            raise ValueError(f"mixed rings: p={self.p} and p={other.p}")
        return other

    def _map(self, op, *others):
        """op applied entry by entry to self and the same-ring `others`."""
        return type(self)(self.p, map(op, self.coeffs, *[b.coeffs for b in others]))

    def __add__(self, other):
        return self._map(add, self._coerce(other))

    def __sub__(self, other):
        return self._map(sub, self._coerce(other))

    def _flat(self):
        """The coefficients as one list for `signed_packed_mul`."""
        return self.coeffs

    def __mul__(self, other):
        """The ring product: one Kronecker-packed product of the flat
        coefficient lists, folded back into the basis by the ring."""
        other = self._coerce(other)
        return self._fold(signed_packed_mul(self._flat(), other._flat()))

    def __pow__(self, e, modulus=None):
        """self^e by squaring.  With a modulus, as in Python's 3-argument
        pow, every coefficient is reduced mod it after each product."""
        if e < 0:
            raise ValueError("only nonnegative exponents")
        if modulus is None:
            reduce = lambda a: a
        else:
            reduce = lambda a: a._map(lambda c: c % modulus)
        result = reduce(self._coerce(1))
        base = reduce(self)
        while True:
            if e & 1:
                result = reduce(result * base)
            e >>= 1
            if not e:
                return result
            base = reduce(base * base)

    def is_zero(self):
        return not any(self.coeffs)


class CycInt(CoeffVector):
    """Element of Z[zeta_p] as a length-(p-1) integer coefficient vector."""

    __slots__ = ()

    @classmethod
    def zeta(cls, p, k=1):
        """zeta_p^k, any integer k."""
        vec = [0] * p
        vec[k % p] = 1
        return cls(p, _reduce_exponents(p, vec))

    # bound here, not inherited: perfbench/tracer.py rebinds products in vars(cls)
    __mul__ = CoeffVector.__mul__

    def _fold(self, conv):
        return CycInt(self.p, _reduce_exponents(self.p, conv))

    def conj(self):
        return galois_apply(self.p - 1, self)

    def to_json_obj(self):
        return {"p": self.p, "coeffs": [str(c) for c in self.coeffs]}


def galois_apply(t, a: CycInt) -> CycInt:
    """zeta_p -> zeta_p^t on a CycInt; t must be a unit mod p."""
    p = a.p
    if t % p == 0:
        raise ValueError("t must be coprime to p")
    vec = [0] * p
    for i, c in enumerate(a.coeffs):
        vec[(t * i) % p] += c
    return CycInt(p, _reduce_exponents(p, vec))


# ---------------------------------------------------------------------------
# Z[zeta_pq]


class BiCycInt(CoeffVector):
    """Element of Z[zeta_pq] as a (p-1) x (q-1) integer coefficient matrix;
    entry (i, j) multiplies zeta_p^i zeta_q^j.  Reduced modulo both
    cyclotomic polynomials."""

    __slots__ = ("q",)

    def __init__(self, p, q, coeffs):
        coeffs = tuple(tuple(map(int, row)) for row in coeffs)
        if len(coeffs) != p - 1 or any(len(row) != q - 1 for row in coeffs):
            raise ValueError(f"need a ({p - 1})x({q - 1}) matrix")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_int(cls, p, q, n):
        rows = [[0] * (q - 1) for _ in range(p - 1)]
        rows[0][0] = n
        return cls(p, q, rows)

    @classmethod
    def from_exponent_grid(cls, p, q, grid):
        """Reduce a grid of coefficients of zeta_p^i zeta_q^j, i < 2p-1 and
        j < 2q-1, into the basis: the zeta_q direction row by row, then the
        zeta_p direction column by column."""
        half = [_reduce_exponents(q, row) for row in grid]
        cols = [_reduce_exponents(p, col) for col in zip(*half)]
        return cls(p, q, zip(*cols))

    def _coerce(self, other):
        """Ints embed; a BiCycInt must share q."""
        if isinstance(other, int):
            return BiCycInt.from_int(self.p, self.q, other)
        if isinstance(other, BiCycInt) and other.q != self.q:
            raise ValueError(f"mixed rings: q={self.q} and q={other.q}")
        return super()._coerce(other)

    def _map(self, op, *others):
        rows = zip(self.coeffs, *[b.coeffs for b in others])
        return BiCycInt(self.p, self.q, (map(op, *r) for r in rows))

    def is_zero(self):
        return not any(map(any, self.coeffs))

    # bound here, not inherited: perfbench/tracer.py rebinds products in vars(cls)
    __mul__ = CoeffVector.__mul__

    def _flat(self):
        """The entries row by row with row stride 2q-3, the width of a row
        of the unreduced product: entry (i, j) sits at i*(2q-3) + j, so the
        1-D product of two such lists is the 2-D convolution."""
        pad = (0,) * (self.q - 2)
        flat = [c for row in self.coeffs for c in row + pad]
        return flat[: len(flat) - len(pad)]

    def _fold(self, flat):
        stride = 2 * self.q - 3
        rows = [flat[i : i + stride] for i in range(0, len(flat), stride)]
        return BiCycInt.from_exponent_grid(self.p, self.q, rows)

    def galois(self, s=1, t=1):
        """zeta_p -> zeta_p^s, zeta_q -> zeta_q^t."""
        p, q = self.p, self.q
        if s % p == 0 or t % q == 0:
            raise ValueError("galois exponents must be units")
        grid = [[0] * q for _ in range(p)]
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c:
                    grid[(s * i) % p][(t * j) % q] += c
        return BiCycInt.from_exponent_grid(p, q, grid)

    def conj(self):
        """Complex conjugation: inverts both roots of unity."""
        return self.galois(self.p - 1, self.q - 1)

    def to_json_obj(self):
        return {
            "p": self.p,
            "q": self.q,
            "coeffs": [[str(c) for c in row] for row in self.coeffs],
        }


# ---------------------------------------------------------------------------
# lambda-adic valuations


def lambda_element(p) -> CycInt:
    """lambda = zeta_p - 1, the generator of the prime over p."""
    return CycInt.zeta(p) - 1


def _lambda_quotient(col, p):
    """col / lambda for a Z[zeta_p] coefficient vector whose coefficient sum
    S is divisible by p: b_i = (i+1) S/p - (col_0 + ... + col_i), read off
    the coefficients of lambda * b with zeta^(p-1) folded back."""
    step = sum(col) // p
    return [k * step - s for k, s in enumerate(accumulate(col), 1)]


def _valuation_bound(p, coeffs):
    """An upper bound for the valuation of a nonzero element of Z[zeta_p]
    with these coefficients at any prime ideal over a rational prime ell:
    v <= v_ell(N(a)) <= (p-1) * log2(sum |a_i|), since every conjugate of a
    has absolute value at most sum |a_i| and the ideal has norm >= 2."""
    return (p - 1) * sum(map(abs, coeffs)).bit_length()


def _lambda_valuation(columns, p):
    """How many times lambda divides every Z[zeta_p] vector in `columns`.
    Z[zeta_p]/(lambda) = F_p via zeta -> 1, so lambda divides a vector
    exactly when p divides its coefficient sum.  Dividing past the norm
    bound can only mean a broken quotient."""
    bound = _valuation_bound(p, [c for col in columns for c in col])
    v = 0
    while all(sum(col) % p == 0 for col in columns):
        if v == bound:
            raise VerificationError(
                f"lambda valuation exceeds its norm bound {bound} at p={p}"
            )
        columns = [_lambda_quotient(col, p) for col in columns]
        v += 1
    return v


def lambda_valuation(a: CycInt):
    """lambda-adic valuation, exact; math.inf for 0."""
    return math.inf if a.is_zero() else _lambda_valuation([a.coeffs], a.p)


def bi_lambda_valuation(a: BiCycInt):
    """The same valuation in Z[zeta_pq], which is free over Z[zeta_p] on the
    zeta_q^j: lambda divides an element when it divides every column."""
    if a.is_zero():
        return math.inf
    return _lambda_valuation(list(zip(*a.coeffs)), a.p)


# ---------------------------------------------------------------------------
# Roots of unity mod ell^k: norms, split valuations and G by evaluation


def _lift_root(p, q, r, precision):
    """The root of Phi_p mod q^precision that lifts the root r mod q.

    Newton's method on x^p - 1, whose roots other than 1 are exactly those
    of Phi_p; the lift is unique because x^p - 1 is separable mod q != p.
    While r^p = 1 mod q^k, the step r - (r^p - 1) / (p r^(p-1)) equals
    r - r (r^p - 1) / p mod q^(2k), so each step doubles the precision.
    """
    target = q ** precision
    modulus = q
    r %= q
    while modulus < target:
        modulus = min(modulus * modulus, target)
        r = (r - r * (pow(r, p, modulus) - 1) * pow(p, -1, modulus)) % modulus
    if pow(r, p, target) != 1 or r % q == 1:
        raise VerificationError(f"Newton lift of a root of Phi_{p} mod {q} failed")
    return r


def hensel_roots(n, ell, k):
    """(ell^k, (r^0, ..., r^(n-1)) mod ell^k) for primes n and ell = 1
    (mod n), where r is the Newton lift of the smallest root of Phi_n
    mod ell.  The lift of a power is the power of the lift, since lifts are
    unique, so r^t is the root that lifts the t-th power of the smallest."""
    if not is_prime(n) or (ell - 1) % n:
        raise ValueError(f"{ell} is not 1 mod the prime {n}: no split roots")
    modulus = ell ** k
    base = pow(primitive_root(ell), (ell - 1) // n, ell)
    smallest = min(_power_table(base, n, ell)[1:])
    return modulus, tuple(_power_table(_lift_root(n, ell, smallest, k), n, modulus))


def _power_table(r, n, modulus):
    """[r^0, ..., r^(n-1)] mod modulus."""
    return list(accumulate(repeat(r, n - 1), lambda a, b: a * b % modulus, initial=1))


def _values_at_roots(coeffs, powers, modulus):
    """[b(r^t) mod modulus for t = 1..n-1]: the values of the polynomial
    with these coefficients (at most n of them) at the roots r^t, from
    the table `powers` = r^0..r^(n-1) of `hensel_roots`."""
    n = len(powers)
    terms = [(i, c) for i, c in enumerate(coeffs) if c]
    return [sum(c * powers[t * i % n] for i, c in terms) % modulus for t in range(1, n)]


def _prime_power_above(n, bits):
    """(ell, k): the smallest prime ell = 1 (mod n) and a k with
    ell^k > 2^bits.  Since log2(ell) >= bit_length(ell) - 1, the k below
    suffices."""
    ell = n + 1
    while not is_prime(ell):
        ell += n
    return ell, bits // (ell.bit_length() - 1) + 1


def ideal_valuation(a: CycInt, q) -> dict:
    """{t: v_P(a)}: the exact valuations of a at the p-1 degree-1 primes
    P = (q, zeta_p - r^t) over a split q, with r the lift of the smallest
    root of Phi_p mod q (`hensel_roots`).

    The completion at P sends zeta_p to the q-adic root that r^t
    approximates, so the value a(r^t) mod q^n, when nonzero, has the
    valuation of a.  The first table, mod q^(2p+4), gives the valuations
    of G, at most p-1, in one pass; a zero value sends the table to twice
    the precision, and a zero value past the norm bound of a can only mean
    a broken lift.
    """
    if a.is_zero():
        raise ValueError("valuation of 0 requested")
    p = a.p
    bound = _valuation_bound(p, a.coeffs)
    precision = 2 * p + 4
    valuations = {}
    while True:
        modulus, powers = hensel_roots(p, q, precision)
        for t, y in enumerate(_values_at_roots(a.coeffs, powers, modulus), 1):
            if y and t not in valuations:
                v = 0
                while y % q == 0:
                    y //= q
                    v += 1
                valuations[t] = v
        if len(valuations) == p - 1:
            return dict(sorted(valuations.items()))
        if precision > bound:
            raise VerificationError(
                f"valuation at q={q} exceeds its norm bound {bound}"
            )
        precision *= 2


def root_values(p, vectors, bound):
    """(modulus, [[b(r^t) mod modulus for t = 1..p-1] for b in vectors]):
    the values of each Z[zeta_p] coefficient vector b at the p-1 roots r^t
    of Phi_p, modulo a power of the smallest prime ell = 1 (mod p) above
    2 * bound^(p-1).  That is twice a bound on N(a) for every a whose
    conjugates all have absolute value at most `bound`, such as
    sum |a_i| <= bound, so the residue in [0, modulus) of the product of
    the values of a is N(a), which is positive for a != 0."""
    ell, k = _prime_power_above(p, (p - 1) * bound.bit_length() + 1)
    modulus, powers = hensel_roots(p, ell, k)
    return modulus, [_values_at_roots(b, powers, modulus) for b in vectors]


def zeta_p_power(g: BiCycInt, e, bits) -> CycInt:
    """G = g^e as an element of Z[zeta_p], for a g in Z[zeta_pq] whose e-th
    power lies in Z[zeta_p], from the values of G at the roots of Phi_p
    modulo a power ell^k > 2^bits of the smallest prime ell = 1 (mod pq).

    zeta_p -> r_p^t, zeta_q -> r_q is a ring map to Z/ell^k for roots r_p
    of Phi_p and r_q of Phi_q mod ell^k (`hensel_roots`), so
    G(r_p^t) = g(r_p^t, r_q)^e: one pass over the entries contracts the
    zeta_q direction at r_q, and the p-1 values follow from the contracted
    column.  G has no zeta^(p-1) term, so the inverse transform over the
    p-th roots gives G(1) = -sum_t G(r_p^t) r_p^t, and then coefficient i
    = (1/p) sum_t G(r_p^t) r_p^(-ti), t = 0..p-1.  Their symmetric
    residues are exact when ell^k is more than twice their absolute
    values: 4 (sum |g_ij|)^e suffices, since every conjugate of G has
    absolute value at most (sum |g_ij|)^e.  Raises VerificationError
    unless Phi_p(r_p) = Phi_q(r_q) = 0 mod ell^k.
    """
    p, q = g.p, g.q
    ell, k = _prime_power_above(p * q, bits)
    modulus, powers_p = hensel_roots(p, ell, k)
    _, powers_q = hensel_roots(q, ell, k)
    if sum(powers_p) % modulus or sum(powers_q) % modulus:
        raise VerificationError(
            f"no roots of Phi_{p} and Phi_{q} modulo the "
            f"{modulus.bit_length()}-bit evaluation modulus"
        )
    column = [sum(map(mul, row, powers_q)) % modulus for row in g.coeffs]
    values = [pow(y, e, modulus) for y in _values_at_roots(column, powers_p, modulus)]
    values.insert(0, -sum(map(mul, values, powers_p[1:])) % modulus)
    # the transform at r_p^s for s = 0, p-1, p-2, ..., 2 gives i = 0..p-2
    transform = _values_at_roots(values, powers_p, modulus)
    p_inverse = pow(p, -1, modulus)
    coeffs = []
    for c in [sum(values)] + transform[:0:-1]:
        c = c * p_inverse % modulus
        coeffs.append(c - modulus if 2 * c > modulus else c)
    return CycInt(p, coeffs)


def shift_norms(p, items, shifts):
    """(tag, s, N(b + s)) for each (tag, values, at_one, modulus) of
    `items` and each integer shift s of `shifts`, lazily: `values` are the
    values of b at the p-1 roots r^1..r^(p-1) of Phi_p (`root_values`, any
    representatives mod `modulus`) and `at_one` is any integer = b(1)
    (mod p), such as the sum of its coefficients.  N(b + s) =
    prod_t (b(r^t) + s), the residue in [0, modulus): a norm from
    Q(zeta_p) is the product of the (p-1)/2 values |b(r^t) + s|^2, so it
    is positive unless b + s = 0.

    r^t and r^(p-t) are complex conjugates, so the product runs over the
    (p-1)/2 pairs of values v = b(r^t), w = b(r^(p-t)), index i with
    index p-2-i: (v + s)(w + s) = vw + s(v + w + s).  The vw and v + w
    of an item are taken once, and a shift costs (p-1)/2 products.

    Each N is checked against N(a) = a(1)^(p-1) (mod p), from
    a = a(1) (mod lambda), which by Fermat is 1 unless p divides a(1),
    and then 0.  A modulus too small moves N by a multiple of it, which is
    prime to p, and a table of non-roots gives an unrelated residue:
    either fails the check unless the error is divisible by p.
    """
    half = (p - 1) // 2
    for tag, values, at_one, modulus in items:
        pairs = [(v * w % modulus, v + w) for v, w in zip(values[:half], reversed(values))]
        for s in shifts:
            n = 1
            for vw, v_plus_w in pairs:
                n = n * (vw + s * (v_plus_w + s)) % modulus
            if (n - ((at_one + s) % p != 0)) % p:
                raise VerificationError(
                    f"norm {n} of an element of Z[zeta_{p}] is not a(1)^{p - 1} mod {p}"
                )
            yield tag, s, n


def norm(a: CycInt) -> int:
    """The norm of a to Q, a positive integer; ValueError for 0.

    N(a) = Res(Phi_p, a) is the product of the values a(r^t), t = 1..p-1,
    at the roots r^t of Phi_p, taken by `shift_norms` over conjugate pairs
    with the one shift 0.  Every conjugate of a has absolute value at most
    sum |a_i|, which sizes the modulus.
    """
    if a.is_zero():
        raise ValueError("norm of 0 is degenerate")
    modulus, (values,) = root_values(a.p, [a.coeffs], sum(map(abs, a.coeffs)))
    [(_, _, n)] = shift_norms(a.p, [(a, values, sum(a.coeffs), modulus)], (0,))
    return n
