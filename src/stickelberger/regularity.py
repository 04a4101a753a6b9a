"""Irregular-prime machinery: the per-prime Bernoulli oracle and the root
scan of the quotient polynomial Q over F_p.

Both halves of the scan are quasi-linear in p.  The oracle reads B_k mod p
off the inverse of the even series 2(cosh x - 1)/x^2 in y = x^2, of length
(p-1)/2, by x^2/(cosh x - 1) = -2 sum_j (2j-1) B_2j x^2j/(2j)!; the
scanner evaluates Q only at the odd exponents, by one cyclic chirp over
(p-1)/2 points, since the factorization through Q1 settles the even ones.
The two routes share only the packed-product helper `arith.packed_mul`,
which tests pin against the schoolbook product; the tests also cross-check
the oracle against an exact-rational Bernoulli recurrence.  The scan ties
the routes value by value: by Herbrand's form of Stickelberger's theorem
(Washington, GTM 83, sec. 6.3), (p-n) Q(v^n) = (v^n - v) B_(p-n) mod p
at every odd n, so each odd value of Q is checked against the oracle's
table, and the irregular indices are read off that table.
"""

from typing import NamedTuple

from .arith import VerificationError, is_prime, packed_mul, primitive_root
from .cyclotomic import _power_table
from .groupring import fp_gr_eval_powers, polynomial_Q, polynomial_Q1_factorization

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


class RegularityVerdict(NamedTuple):
    p: int
    v: int
    odd_roots: frozenset  # m with Q(v^(2m+1)) = 0 mod p, 1 <= m <= (p-3)/2
    all_roots: frozenset  # n in [2, p-2] with Q(v^n) = 0 mod p
    irregular_indices: frozenset  # even k with B_k = 0 mod p, from the oracle
    verdict: str  # "regular" / "irregular", decided by the oracle
    agreement: bool  # {p-(2m+1)} == irregular_indices: True, or q_root_scan raises


def q_root_scan(p: int, v: int | None = None) -> RegularityVerdict:
    """The roots n in [2, p-2] of Q(v^n) mod p, with every odd value of Q
    checked against the Bernoulli oracle.

    With h = (p-1)/2, the factorization Q = Q1 * (1 + sigma + ... +
    sigma^(h-1)) is checked first.  Every even n is then a root, since
    x = v^n has x^h = 1 and x != 1, so the second factor vanishes at x.
    At an odd n = 2j+1, x^h = -1 and Q(x) = -2 Q1(x)/(x - 1), so n is a
    root exactly when Q1 folded by x^h = -1, c_i = Q1_i - Q1_(i+h), has
    sum_i c_i v^i w^(ij) = 0 with w = v^2 of order h: one chirp over h
    points.  By Herbrand's form of Stickelberger's theorem (Washington,
    GTM 83, sec. 6.3, with B_(1,omega^(k-1)) = B_k/k mod p from ch. 5),
    2n Q1(x) = (x - 1)(x - v) B_(p-n) mod p for n = 3, 5, ..., p-2, and
    each of these h-1 values is checked.  So the odd roots are the n with
    p | B_(p-n), and no odd root means p is regular.
    """
    if v is None:
        v = primitive_root(p)
    q_poly = polynomial_Q(p, v)
    h = (p - 1) // 2
    q1, factored = polynomial_Q1_factorization(q_poly, v)
    if not factored:
        raise VerificationError(f"p={p}: Q is not Q1 * (1 + sigma + ... + sigma^{h - 1})")
    powers = _power_table(v, p - 1, p)
    folded = [(a - b) * x % p for a, b, x in zip(q1[:h], q1[h:], powers)]
    values = fp_gr_eval_powers(folded, v * v % p, p)
    bernoulli = bernoulli_mod_p(p)
    for n, x, value in zip(range(3, p - 1, 2), powers[3::2], values[1:]):
        if (2 * n * value - (x - 1) * (x - v) * bernoulli[p - n]) % p:
            raise VerificationError(f"Q(v^{n}) mod {p}: chirp and Bernoulli oracle disagree")
    odd_roots = frozenset(j for j in range(1, h) if values[j] == 0)
    irr = frozenset(k for k, b in bernoulli.items() if b == 0)
    return RegularityVerdict(
        p=p,
        v=v,
        odd_roots=odd_roots,
        all_roots=frozenset([*range(2, p - 1, 2), *(2 * j + 1 for j in odd_roots)]),
        irregular_indices=irr,
        verdict="irregular" if irr else "regular",
        agreement=True,
    )
