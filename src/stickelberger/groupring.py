"""Elements of Z[G_p], G_p the Galois group of the p-th cyclotomic field,
that the verification suites revolve around: the Stickelberger element S,
its power-basis form P, the quotient polynomials Q and Q1, and the folded
element S2 used for inertial degree f > 1.

An element of Z[G_p] is the tuple of its p-1 integer coefficients, so p
is the tuple's length plus one.  Coefficient i always multiplies sigma^i
where sigma: zeta -> zeta^v for the chosen primitive root v; exponent
arithmetic is mod p-1.  S2 is an element of Z[G_p/D], D = <sigma^m> the
decomposition group of q: the tuple of its m = (p-1)/f coefficients, so
a caller reads m, and f = (p-1)/m, from its length.

S, P and Q each have one builder from (p, v); S2 and the identity checks
take the elements they read, so a caller builds each element once.  The
checks read coefficients and take no ring product: multiplying by sigma
is a shift, by v a scale, and by 1 + sigma + ... + sigma^(k-1) a running
sum over a window of k exponents.
"""

from itertools import accumulate
from operator import eq, sub

from .arith import (
    VerificationError,
    canon_power,
    is_prime,
    multiplicative_order,
    packed_mul,
)
from .cyclotomic import _power_table


def fp_gr_eval(g: tuple, x: int) -> int:
    """Evaluate sum c_i x^i mod p (as a plain polynomial value)."""
    p = len(g) + 1
    acc = 0
    for c in reversed(g):
        acc = (acc * x + c) % p
    return acc


def _chirp(u, count, p):
    """u^C(k,2) mod p for k in [0, count), by running products:
    C(k+1,2) - C(k,2) = k."""
    out = [1] * count
    step = 1  # u^k
    for k in range(1, count):
        out[k] = out[k - 1] * step % p
        step = step * u % p
    return out


def fp_gr_eval_powers(g: tuple, u: int, p: int) -> list:
    """[sum_i c_i u^(ik) mod p for k < n] from one n-by-n packed product,
    where u has order n = len(g): v of order p-1 on an element of Z[G_p],
    v^f of order m on S2, v^2 of order (p-1)/2 on Q1 folded by
    x^((p-1)/2) = -1.  A u with u^n != 1 mod p is refused.

    Bluestein's chirp: i*k = C(i+k,2) - C(i,2) - C(k,2), so
    g(u^k) = u^(-C(k,2)) * sum_i (c_i u^(-C(i,2))) * u^C(i+k,2), a
    correlation of two fixed sequences.  Exponents only matter mod the
    order of u, so no square root of u is needed, and the chirp is cyclic
    up to a sign: u^C(n+k,2) = eps * u^C(k,2) with eps = u^C(n,2) = +-1.
    So with P the product of the reversed weights and the first n chirp
    terms, the correlation at k is P_(n-1+k) + eps * P_(k-1).
    """
    n = len(g)
    if pow(u, n, p) != 1:
        raise ValueError(f"{u}^{n} is not 1 mod {p}")
    chirp = _chirp(u % p, n, p)
    inverse_chirp = _chirp(canon_power(u, -1, p), n, p)
    eps = pow(u, n * (n - 1) // 2, p)
    weighted = [c * w % p for c, w in zip(reversed(g), reversed(inverse_chirp))]
    prod = packed_mul(weighted, chirp, p, 2 * n - 1)
    wrapped = [0, *prod[: n - 1]]  # P_(k-1), none at k = 0
    corr = [s + eps * t for s, t in zip(prod[n - 1 :], wrapped)]
    return [s * w % p for s, w in zip(corr, inverse_chirp)]


def stickelberger_S(p, v) -> tuple:
    """S = sum_t t * w_t^(-1) translated into sigma-powers.

    w_t: zeta -> zeta^t, and w_t^(-1) = sigma^i exactly when v^i = t^(-1)
    mod p, so the coefficient lands at the discrete log of t^(-1), which is
    -dlog(t) mod p-1.  The logs come from v's own powers, a route apart
    from P's inverse powers.
    """
    dlog = {r: i for i, r in enumerate(_power_table(v, p - 1, p))}
    if len(dlog) != p - 1:
        raise ValueError(f"{v} is not a primitive root mod {p}")
    coeffs = [0] * (p - 1)
    for t in range(1, p):
        coeffs[-dlog[t] % (p - 1)] += t
    return tuple(coeffs)


def polynomial_P(p, v) -> tuple:
    """P(sigma) = sum_i sigma^i v^(-i) with representatives in [1, p-1].

    A unit v is a primitive root exactly when 1 does not recur among its
    inverse powers v^(-1), ..., v^(-(p-2)).
    """
    inverse_powers = _power_table(pow(v, p - 2, p), p - 1, p)  # v^(p-2) = v^(-1)
    if v % p == 0 or inverse_powers.count(1) > 1:
        raise ValueError(f"{v} is not a primitive root mod {p}")
    return tuple(inverse_powers)


def orbit_sums(g, m):
    """g's coefficients summed over the cosets of m, a divisor of p-1:
    for P, [sum_j v^(-(i+jm)) for i < m]."""
    return [sum(g[i::m]) for i in range(m)]


def polynomial_Q(p, v) -> tuple:
    """Q = sum delta_i sigma^i, satisfying P * (sigma - v) = p * Q, with
    delta_i = (v^(-(i-1)) - v^(-i) v)/p exact integers in (-p, 0] and
    delta_0 = 0."""
    inverse_v = canon_power(v, -1, p)
    deltas = []
    prev = v % p  # v^(-(i-1)); at i = 0 that is v^1
    cur = 1  # v^(-i)
    for i in range(p - 1):
        num = prev - cur * v
        if num % p:
            raise VerificationError(f"delta_{i} numerator {num} is not divisible by {p}")
        d = num // p
        if not -p < d <= 0:
            raise VerificationError(f"delta_{i}={d} out of (-p, 0]")
        deltas.append(d)
        prev, cur = cur, cur * inverse_v % p
    if deltas[0] != 0:
        raise VerificationError("delta_0 must vanish")
    return tuple(deltas)


def q_identity_holds(P, Q, v) -> bool:
    """Exact check of P * (sigma - v) = p * Q in Z[G_p]: coefficient i of
    the left side is P_(i-1) - v P_i, indices mod p-1."""
    p = len(P) + 1
    return len(Q) == len(P) and all(
        prev - v * cur == p * d for prev, cur, d in zip(P[-1:] + P[:-1], P, Q)
    )


def polynomial_Q1_factorization(Q, v):
    """Q1 = (1 - sigma) * (sum_{i<h} delta_i sigma^i) + (1 - v) sigma^h
    with h = (p-1)/2, that is delta_0, the differences delta_i - delta_(i-1)
    for 0 < i < h, then 1 - v - delta_(h-1) and zeros; together with the
    verdict of the exact factorization Q = Q1 * (1 + sigma + ... +
    sigma^(h-1)), whose coefficient i is the cyclic window sum
    Q1_(i-h+1) + ... + Q1_i, read off one prefix sum of Q1."""
    n, h = len(Q), len(Q) // 2
    q1 = [Q[0], *map(sub, Q[1:h], Q[: h - 1]), 1 - v - Q[h - 1]] + [0] * (n - h - 1)
    run = list(accumulate(q1[n - h + 1 :] + q1, initial=0))  # Q1_(k-h+1) at k
    return tuple(q1), all(map(eq, map(sub, run[h:], run), Q))


def polynomial_S2(P, q) -> tuple:
    """Folded Stickelberger element for a prime q of inertial degree f > 1,
    an element of Z[G_p/D] with m = (p-1)/f coefficients: coefficient i is
    (sum_j v^(-(i+jm)))/p, an exact integer, read from P's coefficients."""
    p = len(P) + 1
    if not is_prime(q) or q == p:
        raise ValueError(f"q={q} is not a prime other than p={p}")
    f = multiplicative_order(q, p)
    if f == 1:
        raise ValueError(f"q={q} splits (f = 1), where S2 is undefined")
    blocks = orbit_sums(P, (p - 1) // f)
    for i, block in enumerate(blocks):
        if block % p:
            raise VerificationError(f"S2 coefficient {i} is not integral")
    return tuple(block // p for block in blocks)


def s2_refold_identity_holds(S, S2) -> bool:
    """p * S2[i] must equal the sum of S's coefficients over exponents
    congruent to i mod m = len(S2)."""
    p = len(S) + 1
    return [p * c for c in S2] == orbit_sums(S, len(S2))
