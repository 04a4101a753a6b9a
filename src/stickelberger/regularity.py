"""Irregular-prime machinery: the per-prime Bernoulli oracle and the root
scan of the quotient polynomial Q over F_p.

Both halves of the scan are quasi-linear in p.  The oracle reads B_k mod p
off the inverse of the even series 2(cosh x - 1)/x^2 in y = x^2, of length
(p-1)/2, by x^2/(cosh x - 1) = -2 sum_j (2j-1) B_2j x^2j/(2j)!; the
scanner evaluates Q only at the odd exponents, by one cyclic chirp over
(p-1)/2 points, since the factorization through Q1 settles the even ones.
The two routes share only the packed-product helper `arith.packed_mul`,
which tests pin against the schoolbook product; the tests also cross-check
the oracle against an exact-rational Bernoulli recurrence.  Every odd root
the scanner reports is re-evaluated on Q by Horner's rule.
"""

from typing import NamedTuple

from .arith import VerificationError, canon_power, is_prime, packed_mul, primitive_root
from .cyclotomic import _power_table
from .groupring import (
    fp_gr_eval,
    fp_gr_eval_powers,
    polynomial_Q,
    polynomial_Q1_factorization,
)

# no route here fills it: perfbench/tracer.py reports its length
_bernoulli_cache = [1]


def _series_inverse(e, p, n):
    """Inverse of the power series e (with e[0] = 1) mod (p, x^n), by the
    Newton step r <- r (2 - e r), which doubles the correct length h.

    e r = 1 + x^h H mod x^2h, so the step is r <- r - x^h (r H): only the
    coefficients of e r from h on are computed.
    """
    r = [1]
    while len(r) < n:
        h = len(r)
        m = min(2 * h, n)
        high = packed_mul(e, r, p, m, h)
        r += [-c % p for c in packed_mul(r, high, p, m - h)]
    return r


def bernoulli_mod_p(p: int) -> dict:
    """k -> B_k mod p for every even k in [2, p-3].

    x^2 / (cosh x - 1) = -2 sum_j (2j-1) B_2j x^2j / (2j)!, so in y = x^2,
    with r the inverse of e(y) = 2 (cosh x - 1) / x^2 = sum_j 2 y^j / (2j+2)!
    mod (p, y^m) and m = (p-1)/2, B_2j = -2j (2j-2)! r_j.  Only (2j)! with
    2j <= p-1 occur, and those are units mod p.
    """
    if not is_prime(p) or p < 3:
        raise ValueError(f"p={p} is not an odd prime")
    m = (p - 1) // 2
    even_factorials = [1] * (m + 1)  # (2j)! for j in [0, m]
    for j in range(1, m + 1):
        even_factorials[j] = even_factorials[j - 1] * (2 * j - 1) * (2 * j) % p
    e = [0] * m  # e_j = 2 / (2j+2)!
    e[m - 1] = 2 * pow(even_factorials[m], -1, p) % p
    for j in range(m - 1, 0, -1):
        e[j - 1] = e[j] * (2 * j + 1) * (2 * j + 2) % p
    r = _series_inverse(e, p, m)
    return {2 * j: -2 * j * even_factorials[j - 1] * r[j] % p for j in range(1, m)}


def irregular_indices(p: int) -> frozenset:
    """Even k in [2, p-3] with p dividing the numerator of B_k."""
    return frozenset(k for k, r in bernoulli_mod_p(p).items() if r == 0)


class RegularityVerdict(NamedTuple):
    p: int
    v: int
    odd_roots: frozenset  # m with Q(v^(2m+1)) = 0 mod p, 1 <= m <= (p-3)/2
    all_roots: frozenset  # n in [2, p-2] with Q(v^n) = 0 mod p
    irregular_indices: frozenset  # even k with B_k = 0 mod p, from the oracle
    verdict: str  # "regular" / "irregular", decided by the oracle
    agreement: bool  # |odd_roots| == |irregular_indices|


def q_root_scan(p: int, v: int | None = None) -> RegularityVerdict:
    """The roots n in [2, p-2] of Q(v^n) mod p, with the odd-exponent root
    count crossed against the Bernoulli oracle.

    With h = (p-1)/2, the factorization Q = Q1 * (1 + sigma + ... +
    sigma^(h-1)) is checked first.  Every even n is then a root, since
    x = v^n has x^h = 1 and x != 1, so the second factor vanishes at x.
    At an odd n = 2j+1, x^h = -1 and Q(x) = -2 Q1(x)/(x - 1), so n is a
    root exactly when Q1 folded by x^h = -1, c_i = Q1_i - Q1_(i+h), has
    sum_i c_i v^i w^(ij) = 0 with w = v^2 of order h: one chirp over h
    points.  Each odd root is then confirmed on Q by Horner's rule.  No
    odd root means the scan is consistent with p being regular.
    """
    if v is None:
        v = primitive_root(p)
    q_poly = polynomial_Q(p, v)
    h = (p - 1) // 2
    q1, factored = polynomial_Q1_factorization(q_poly, v)
    if not factored:
        raise VerificationError(f"p={p}: Q is not Q1 * (1 + sigma + ... + sigma^{h - 1})")
    folded = [(a - b) * x % p for a, b, x in zip(q1[:h], q1[h:], _power_table(v, h, p))]
    values = fp_gr_eval_powers(folded, v * v % p, p)
    odd_roots = [j for j in range(1, h) if values[j] == 0]
    # the verdict rests on the odd roots: confirm each one by Horner's rule
    for n in (2 * j + 1 for j in odd_roots):
        if fp_gr_eval(q_poly, canon_power(v, n, p)) != 0:
            raise VerificationError(f"Q(v^{n}) mod {p}: chirp and Horner disagree")
    irr = irregular_indices(p)
    return RegularityVerdict(
        p=p,
        v=v,
        odd_roots=frozenset(odd_roots),
        all_roots=frozenset([*range(2, p - 1, 2), *(2 * j + 1 for j in odd_roots)]),
        irregular_indices=irr,
        verdict="irregular" if irr else "regular",
        agreement=len(odd_roots) == len(irr),
    )
