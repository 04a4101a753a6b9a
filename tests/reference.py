"""Slow, direct references that the fast routes in `src/` are tested
against.  Nothing here is used by the package itself.
"""

from fractions import Fraction
from itertools import combinations, islice, product
from math import comb, gcd
from operator import add, mul
from typing import NamedTuple

from stickelberger.arith import (
    FieldDesc,
    VerificationError,
    _MR_EXTRA_WITNESSES,
    _MR_PSI,
    _miller_rabin,
    _vectors,
    canon_power,
    ff_mul,
    ff_trace,
    is_prime,
    multiplicative_order,
    primitive_root,
)
from stickelberger.cyclotomic import (
    BiCycInt,
    CycInt,
    _lift_root,
    _reduce_exponents,
    galois_apply,
    lambda_element,
)
from stickelberger.groupring import (
    fp_gr_eval,
    orbit_sums,
    polynomial_P,
    polynomial_Q,
)
from stickelberger.regularity import _series_inverse


def schoolbook_cyc_mul(a: CycInt, b: CycInt) -> CycInt:
    """a * b in Z[zeta_p] by the quadratic convolution, then the fold
    zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))."""
    p = a.p
    conv = [0] * (2 * p - 3)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                if y:
                    conv[i + j] += x * y
    return CycInt(p, _reduce_exponents(p, conv))


def schoolbook_group_ring_mul(a: tuple, b: tuple) -> tuple:
    """a * b in Z[G_p], elements as coefficient tuples of one length p-1:
    exponents added mod p-1."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % n] += x * y
    return tuple(out)


def _sigma_power(p, i, coefficient=1) -> tuple:
    """coefficient * sigma^i in Z[G_p]."""
    vec = [0] * (p - 1)
    vec[i % (p - 1)] = coefficient
    return tuple(vec)


def q_identity_by_product(P, Q, v) -> bool:
    """P * (sigma - v) = p * Q through general ring products."""
    p = len(P) + 1
    sigma_minus_v = (-v, 1) + (0,) * (p - 3)
    return schoolbook_group_ring_mul(P, sigma_minus_v) == tuple(p * d for d in Q)


def q1_factorization_by_product(Q, v):
    """Q1 = (1 - sigma) * (sum_{i<=(p-3)/2} delta_i sigma^i)
    + (1 - v) sigma^((p-1)/2) and the verdict of
    Q = Q1 * (1 + sigma + ... + sigma^((p-3)/2)), through general ring
    products."""
    p = len(Q) + 1
    half = (p - 1) // 2
    low_part = Q[:half] + (0,) * (p - 1 - half)
    one_minus_sigma = (1, -1) + (0,) * (p - 3)
    q1 = tuple(
        map(add, schoolbook_group_ring_mul(one_minus_sigma, low_part), _sigma_power(p, half, 1 - v))
    )
    ladder = (1,) * half + (0,) * (p - 1 - half)
    return q1, schoolbook_group_ring_mul(q1, ladder) == Q


def schoolbook_bicyc_mul(a: BiCycInt, b: BiCycInt) -> BiCycInt:
    """a * b in Z[zeta_pq]: the quadratic 2-D convolution, then the zeta_q
    reduction row by row and the zeta_p reduction column by column."""
    p, q = a.p, a.q
    conv = [[0] * (2 * q - 3) for _ in range(2 * p - 3)]
    for i, ra in enumerate(a.coeffs):
        for j, x in enumerate(ra):
            for k, rb in enumerate(b.coeffs):
                for l, y in enumerate(rb):
                    conv[i + k][j + l] += x * y
    half = [_reduce_exponents(q, row) for row in conv]
    cols = [_reduce_exponents(p, [row[j] for row in half]) for j in range(q - 1)]
    return BiCycInt(p, q, [[col[i] for col in cols] for i in range(p - 1)])


def embed(a: CycInt, q) -> BiCycInt:
    """a in Z[zeta_p] as an element of Z[zeta_pq]: its coefficients on
    zeta_q^0."""
    rows = [[0] * (q - 1) for _ in range(a.p - 1)]
    for i, c in enumerate(a.coeffs):
        rows[i][0] = c
    return BiCycInt(a.p, q, rows)


def to_cyc(b: BiCycInt) -> CycInt:
    """b as an element of Z[zeta_p], its zeta_q^0 column; ValueError when
    b has a nonzero zeta_q part."""
    if any(c for row in b.coeffs for c in row[1:]):
        raise ValueError("element has nonzero zeta_q part")
    return CycInt(b.p, tuple(row[0] for row in b.coeffs))


def power_in_zeta_pq(g: BiCycInt) -> CycInt:
    """G = g^p by ring products in Z[zeta_pq], read off the zeta_q^0 column;
    ValueError unless the power lies in Z[zeta_p]."""
    return to_cyc(g ** g.p)


def four_term_grid(p, q, grid) -> BiCycInt:
    """A full p x q exponent grid in the basis, entry by entry: zeta_p^(p-1)
    and zeta_q^(q-1) each fold as minus the sum of the lower powers, so
    entry (i, j) collects grid[i][j] - grid[p-1][j] - grid[i][q-1] +
    grid[p-1][q-1]."""
    top = grid[p - 1]
    rows = [
        [grid[i][j] - top[j] - grid[i][q - 1] + top[q - 1] for j in range(q - 1)]
        for i in range(p - 1)
    ]
    return BiCycInt(p, q, rows)


def ff_elements(fd: FieldDesc):
    """All nonzero field elements, in the order of the generator search."""
    return islice(_vectors(fd.q, fd.f), 1, None)


def irreducible_by_trial_division(F, q) -> bool:
    """A monic F of degree f over F_q (coefficients low-to-high) is
    irreducible when no monic polynomial of degree 1..f//2 divides it:
    the remainder of F by every such g is computed by long division."""
    f = len(F) - 1
    for d in range(1, f // 2 + 1):
        for low in product(range(q), repeat=d):
            rem = list(F)
            for top in range(f, d - 1, -1):
                c = rem[top] % q
                for i, y in enumerate(low + (1,)):
                    rem[top - d + i] -= c * y
            if not any(c % q for c in rem[:d]):
                return False
    return True


def coset_grid_expanded(fd: FieldDesc, grid):
    """The walk's counts from `gauss._character_grid` as counts of field
    elements: for f > 1 a trace-zero step stands for q-1 elements in
    column 0 and any other step for one element in each nonzero column,
    so row r becomes [(q-1) Z_r] + [S_r - Z_r] * (q-1), with Z_r its
    trace-zero steps and S_r all its steps.  For f = 1 each step is one
    element already."""
    if fd.f == 1:
        return grid
    q = fd.q
    return [[(q - 1) * row[0]] + [sum(row) - row[0]] * (q - 1) for row in grid]


def full_walk_grid(fd: FieldDesc):
    """The grid of `gauss._character_grid`, as counts of field elements
    (`coset_grid_expanded`), by one field product per element: x = gen^k
    over k = 0..q^f-2 lands in row -k mod p and in the column of Tr x, the
    dot product of x with the basis traces.
    VerificationError unless x first returns to 1 at step q^f-1, which
    proves that every nonzero element was visited exactly once."""
    p, q, f = fd.p, fd.q, fd.f
    one = (1,) + (0,) * (f - 1)
    basis_traces = [ff_trace(tuple(int(i == j) for j in range(f)), fd) for i in range(f)]
    grid = [[0] * q for _ in range(p)]
    x = one
    for k in range(fd.order - 1):
        if k and x == one:
            raise VerificationError(
                f"generator of F_{q}^{f} has order {k}, not {fd.order - 1}"
            )
        grid[-k % p][sum(map(mul, x, basis_traces)) % q] += 1
        x = ff_mul(x, fd.generator, fd)
    if x != one:
        raise VerificationError(
            f"generator of F_{q}^{f} does not have order {fd.order - 1}"
        )
    return grid


def smallest_prime_with_order(p: int, f: int, limit: int = 100_000) -> int:
    """Smallest prime q with multiplicative order f mod p (q =/= p)."""
    if (p - 1) % f != 0:
        raise ValueError(f"{f} does not divide p-1={p - 1}")
    q = 2
    while q < limit:
        if q != p and is_prime(q) and multiplicative_order(q, p) == f:
            return q
        q += 1
    raise ValueError(f"no prime of order {f} mod {p} below {limit}")


def primitive_roots(p):
    """Every primitive root mod p in [1, p-1]."""
    return [v for v in range(1, p) if multiplicative_order(v, p) == p - 1]


def inverse_powers_by_term(p, v):
    """[v^0, v^(-1), ..., v^(-(p-2))] mod p in [1, p-1], one modular
    inverse power per term."""
    return [canon_power(v, -i, p) for i in range(p - 1)]


def conjugate_product_norm(a: CycInt) -> int:
    """N(a) as the product of all p-1 Galois conjugates sigma^i(a), with
    sigma: zeta -> zeta^v for a primitive root v, by orbit doubling:
    P_m = prod_{i<m} sigma^i(a) gives P_2m = P_m * sigma^m(P_m), and an odd
    count takes one more conjugate, P_(2m+1) = P_2m * sigma^2m(a)."""
    if a.is_zero():
        raise ValueError("norm of 0 is degenerate")
    p = a.p
    v = primitive_root(p)
    acc, m = a, 1
    for bit in bin(p - 1)[3:]:
        acc = acc * galois_apply(pow(v, m, p), acc)
        m *= 2
        if bit == "1":
            acc = acc * galois_apply(pow(v, m, p), a)
            m += 1
    if any(acc.coeffs[1:]):
        raise ValueError(f"{acc!r} is not a rational integer")
    return acc.coeffs[0]


def class_number(discriminant):
    """h(D) for a negative discriminant D, the number of reduced primitive
    forms (a, b, c) with b^2 - 4ac = D: |b| <= a <= c, and b >= 0 when
    |b| = a or a = c (Cohen, GTM 138, sec. 5.3).  Reduced forms have
    3a^2 <= |D|."""
    count, a = 0, 1
    while 3 * a * a <= -discriminant:
        for b in range(-a + 1, a + 1):
            c, rest = divmod(b * b - discriminant, 4 * a)
            if not rest and c >= a and not (c == a and b < 0) and gcd(a, b, c) == 1:
                count += 1
        a += 1
    return count


def is_prime_first_bases(n):
    """Primality by trial division by 2..37, then Miller-Rabin with the
    first k prime bases below psi_k (`_MR_PSI`) and all 40 at or above
    psi_13.  `is_prime` reaches the same answers by another route: one gcd
    with the primes below 1024, then Jaeschke's short base sets."""
    if n < 2:
        return False
    for d in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % d == 0:
            return n == d
    if n < 41 * 41:
        return True
    for psi, k in _MR_PSI:
        if n < psi:
            return _miller_rabin(n, _MR_EXTRA_WITNESSES[:k])
    return _miller_rabin(n, _MR_EXTRA_WITNESSES)


def graded_lex_shell(length, total, bound):
    """The integer vectors of this length with entries in [-bound, bound]
    and L1 norm `total`, sorted: the compositions of total into `length`
    parts of at most `bound`, by stars and bars, each with every choice of
    signs for its nonzero parts."""
    shell = []
    slots = total + length - 1
    for bars in combinations(range(slots), length - 1):
        parts = [b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,))]
        if max(parts) <= bound:
            shell += product(*[(c, -c) if c else (0,) for c in parts])
    return sorted(shell)


def probe_sweep(p, search_bound, coeff_bound=2):
    """The first `search_bound` candidates a + lambda^(p+1) * x of the norm
    probe, in sweep order, as (a, x_vec, q1): the x by L1 shell, sorted
    within each shell, each with a = 1..p-1."""
    shift = lambda_element(p) ** (p + 1)
    count = 0
    for total in range((p - 1) * coeff_bound + 1):
        for x_vec in graded_lex_shell(p - 1, total, coeff_bound):
            base = shift * CycInt(p, x_vec)
            for a in range(1, p):
                if count == search_bound:
                    return
                count += 1
                yield a, x_vec, base + a


def probe_witnesses(p, search_bound, coeff_bound=2):
    """(a, x_vec, q, p^((q-1)/p) mod q) for every candidate whose
    conjugate-product norm is, up to sign, a prime q by
    `is_prime_first_bases`."""
    witnesses = []
    for a, x_vec, q1 in probe_sweep(p, search_bound, coeff_bound):
        n = abs(conjugate_product_norm(q1))
        if is_prime_first_bases(n):
            witnesses.append((a, x_vec, n, pow(p, (n - 1) // p, n)))
    return witnesses


def sigma_values_by_loop(p, f, v, coeffs):
    """l -> sum_i c_i v^(lfi) mod p for l in [1, m-1], m = len(coeffs), one
    power per term."""
    values = {}
    for l in range(1, len(coeffs)):
        x = canon_power(v, l * f, p)
        values[l] = sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p
    return values


def hensel_roots_by_lifts(p, q):
    """(label, root) of every root of Phi_p mod q^(2p+4), each lifted on
    its own: the label of a residue is its discrete log base the smallest
    residue."""
    base = pow(primitive_root(q), (q - 1) // p, q)
    residues = sorted(pow(base, t, q) for t in range(1, p))
    labels = {pow(residues[0], t, q): t for t in range(1, p)}
    return sorted((labels[r], _lift_root(p, q, r, 2 * p + 4)) for r in residues)


def q_roots_by_horner(p, v):
    """n in [2, p-2] with Q(v^n) = 0 mod p, every value by Horner's rule on
    Q itself: the scan's odd and even roots by one direct route."""
    q_poly = polynomial_Q(p, v)
    return frozenset(
        n for n in range(2, p - 1) if fp_gr_eval(q_poly, canon_power(v, n, p)) == 0
    )


def bernoulli_mod_p_full_series(p):
    """k -> B_k mod p for every even k in [2, p-3], from the inverse r of
    the full series (e^x - 1)/x = sum x^k / (k+1)! mod (p, x^(p-2)):
    x / (e^x - 1) = sum B_k x^k / k!, so B_k = k! r_k.  It computes the odd
    coefficients too, which `bernoulli_mod_p` never reads."""
    factorials = [1] * (p - 1)  # j! for j in [0, p-2]
    for j in range(1, p - 1):
        factorials[j] = factorials[j - 1] * j % p
    inverse_factorials = [1] * (p - 1)
    inverse_factorials[p - 2] = pow(factorials[p - 2], -1, p)
    for j in range(p - 2, 1, -1):
        inverse_factorials[j - 1] = inverse_factorials[j] * j % p
    r = _series_inverse(inverse_factorials[1:], p, p - 2)
    return {k: factorials[k] * r[k] % p for k in range(2, p - 2, 2)}


# B_0, B_1, ... computed on demand and never shrunk
_bernoulli_cache = [1]


def bernoulli_fraction(n: int):
    """Exact Bernoulli number B_n as a Fraction (B_1 = -1/2 convention), via
    sum_j C(n+1, j) B_j = 0."""
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        acc = Fraction(0)
        for j, b in enumerate(_bernoulli_cache):
            if b:
                acc += comb(m + 1, j) * b
        _bernoulli_cache.append(-acc / (m + 1))
    return Fraction(_bernoulli_cache[n])


def bernoulli_mod(k: int, p: int) -> int:
    """B_k mod p for a single index; rejects k = 0 mod p-1 where the
    von Staudt-Clausen denominator kills the reduction."""
    if k > 0 and k % (p - 1) == 0:
        raise ValueError(f"B_{k} mod {p}: denominator divisible by {p}")
    b = bernoulli_fraction(k)
    if b.denominator % p == 0:
        raise ValueError(f"B_{k} has denominator divisible by {p}")
    return b.numerator * pow(b.denominator, -1, p) % p


class HalfBernoulliCheck(NamedTuple):
    p: int
    v: int
    q_at_minus_one: int  # Q(v^((p-1)/2)) mod p
    s1: int  # sum of even-index inverse powers of v
    s2: int  # sum of odd-index inverse powers of v
    big_v: int  # -(s1 - s2)
    ok: bool


def b_half_check(p: int, v: int | None = None) -> HalfBernoulliCheck:
    """For p = 3 mod 4: Q(v^((p-1)/2)) is nonzero mod p, and the integer
    identities behind it hold: S1 + S2 = p(p-1)/2 (odd), V = -(S1 - S2)
    nonzero with |V| < p(p-1)/2."""
    if p % 4 != 3:
        raise ValueError("hypothesis requires (p-1)/2 odd, i.e. p = 3 mod 4")
    if v is None:
        v = primitive_root(p)
    s1, s2 = orbit_sums(polynomial_P(p, v), 2)
    value = fp_gr_eval(polynomial_Q(p, v), canon_power(v, (p - 1) // 2, p))
    big_v = -(s1 - s2)
    ok = (
        value != 0
        and s1 + s2 == p * (p - 1) // 2
        and big_v != 0
        and abs(big_v) < p * (p - 1) // 2
    )
    return HalfBernoulliCheck(
        p=p, v=v, q_at_minus_one=value, s1=s1, s2=s2, big_v=big_v, ok=ok
    )
