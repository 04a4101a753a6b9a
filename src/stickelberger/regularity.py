"""Irregular-prime machinery: the per-prime Bernoulli oracle and the root
scan of the quotient polynomial Q over F_p.

Both halves of the scan are quasi-linear in p.  The oracle reads B_k mod p
off the inverse of the even series 2(cosh x - 1)/x^2 in y = x^2, of length
(p-1)/2, by x^2/(cosh x - 1) = -2 sum_j (2j-1) B_2j x^2j/(2j)!; the scanner
gets every value Q(v^n) from one chirp correlation.  The two routes share
only the packed-product helper `arith.packed_mul`, which tests pin against
the schoolbook product; the tests also cross-check the oracle against an
exact-rational Bernoulli recurrence.  Every odd root the scanner reports is
re-evaluated by Horner's rule.
"""

from typing import NamedTuple

from .arith import VerificationError, canon_power, is_prime, packed_mul, primitive_root
from .groupring import fp_gr_eval, fp_gr_eval_powers, polynomial_Q

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
    """Evaluate Q at v^n for n in [2, p-2] and cross the odd-exponent root
    count against the Bernoulli oracle.  All values come from one chirp
    product; each odd root is then confirmed by Horner's rule.

    Odd exponents are exactly the residues X with X^((p-1)/2) = -1; no such
    root means the scan is consistent with p being regular.
    """
    if v is None:
        v = primitive_root(p)
    q_poly = polynomial_Q(p, v)
    values = fp_gr_eval_powers(q_poly, v, p)
    all_roots = [n for n in range(2, p - 1) if values[n] == 0]
    odd_exponents = [n for n in all_roots if n % 2 == 1]
    # the verdict rests on the odd roots: confirm each one by Horner's rule
    for n in odd_exponents:
        if fp_gr_eval(q_poly, canon_power(v, n, p)) != 0:
            raise VerificationError(f"Q(v^{n}) mod {p}: chirp and Horner disagree")
    irr = irregular_indices(p)
    return RegularityVerdict(
        p=p,
        v=v,
        odd_roots=frozenset((n - 1) // 2 for n in odd_exponents),
        all_roots=frozenset(all_roots),
        irregular_indices=irr,
        verdict="irregular" if irr else "regular",
        agreement=len(odd_exponents) == len(irr),
    )
