"""Principality congruences for prime ideals of inertial degree f > 1, the
half-degree corollary, and the norm-probe search over elements congruent
to a rational integer mod lambda^(p+1).

Certificates are one-directional by design: a full set of nonvanishing
congruence values certifies p-principality, but nothing here ever claims
non-principality.
"""

from itertools import islice
from operator import add
from typing import NamedTuple

from .arith import (
    MILLER_RABIN_WITNESS_COUNT,
    MILLER_RABIN_DETERMINISTIC_BOUND,
    VerificationError,
    canon_power,
    is_prime,
    primitive_root,
)
from .cyclotomic import CycInt, lambda_element, root_values, shift_norms
from .groupring import fp_gr_eval_powers, orbit_sums, polynomial_P, polynomial_S2


class PrincipalityReport(NamedTuple):
    p: int
    q: int
    f: int
    m: int
    v: int
    s2_coeffs: tuple
    sigma_values: dict  # l in [1, m-1] -> sum_i c_i v^(lfi) mod p
    full_orbit_sum_ok: bool  # the l = m identity: p * sum c_i = p(p-1)/2
    certificate: str  # "p-principal" / "inconclusive"


def principality_test(p: int, q: int, v: int | None = None) -> PrincipalityReport:
    """Evaluate the m-1 congruences sum_i c_i v^(lfi) mod p built from the
    m coefficients c_i of the folded Stickelberger element S2, all from one
    chirp product over m points; m = len(S2) and f = (p-1)/m.

    All values nonzero certifies that the prime ideals over q are
    p-principal; a vanishing value is inconclusive.  The computed values
    leave few certificates: sigma_l is 0 whenever l*f is even, and
    B_k / k mod p with k = p - l*f when l*f is odd.  So every m >= 3 is
    inconclusive (sigma_2 = 0), m = 1 (q inert) certifies with an empty
    battery, and m = 2 certifies exactly when p = 3 (mod 4): then sigma_1
    = 2 B_((p+1)/2) = -h(-p) mod p, never 0 (see `half_degree_corollary`).
    """
    if not is_prime(p) or p < 3:
        raise ValueError(f"p={p} is not an odd prime")
    if v is None:
        v = primitive_root(p)
    s2 = polynomial_S2(polynomial_P(p, v), q)
    m = len(s2)
    f = (p - 1) // m
    values = fp_gr_eval_powers(s2, canon_power(v, f, p), p)
    sigma_values = {l: values[l] for l in range(1, m)}
    full_orbit_ok = p * sum(s2) == p * (p - 1) // 2
    certificate = (
        "p-principal"
        if full_orbit_ok and all(val != 0 for val in sigma_values.values())
        else "inconclusive"
    )
    return PrincipalityReport(
        p=p,
        q=q,
        f=f,
        m=m,
        v=v,
        s2_coeffs=s2,
        sigma_values=sigma_values,
        full_orbit_sum_ok=full_orbit_ok,
        certificate=certificate,
    )


class HalfDegreeVerdict(NamedTuple):
    p: int
    v: int
    sigma: int  # the single l = 1 congruence value, an exact integer
    sigma_mod_p: int
    verdict: bool  # True: every prime ideal with f = (p-1)/2 is p-principal


def half_degree_corollary(p: int, v: int | None = None) -> HalfDegreeVerdict:
    """For p = 3 mod 4 and f = (p-1)/2 (so m = 2): the single congruence
    value is [sum v^(-2j)]/p - [sum v^(-(1+2j))]/p, (the quadratic residues
    in [1, p-1] less the non-residues)/p = -h(-p) by Dirichlet's class
    number formula, and 0 < h(-p) < p, so it is nonzero mod p (Washington,
    GTM 83, ch. 4; Davenport, Multiplicative Number Theory, ch. 6; Cohen,
    GTM 138, sec. 5.3-5.4)."""
    if p % 4 != 3:
        raise ValueError("corollary requires p = 3 mod 4")
    if p == 3:
        raise ValueError("p = 3 gives f = 1, outside the f > 1 hypothesis")
    if v is None:
        v = primitive_root(p)
    even_orbit, odd_orbit = orbit_sums(polynomial_P(p, v), 2)
    if even_orbit % p or odd_orbit % p:
        raise VerificationError("orbit sums must be divisible by p")
    sigma = even_orbit // p - odd_orbit // p
    return HalfDegreeVerdict(
        p=p, v=v, sigma=sigma, sigma_mod_p=sigma % p, verdict=sigma % p != 0
    )


class ProbeWitness(NamedTuple):
    a: int
    x_coeffs: tuple
    norm_q: int
    residue: int  # p^((q-1)/p) mod q
    passes: bool

    def to_json_obj(self):
        return {
            "a": self.a,
            "x_coeffs": list(self.x_coeffs),
            "q": str(self.norm_q),
            "residue": str(self.residue),
            "passes": self.passes,
        }


class ProbeReport(NamedTuple):
    p: int
    search_bound: int
    coeff_bound: int
    candidates_tested: int
    witnesses: list
    counterexamples: list
    status: str  # "ok" / "no candidates"
    probabilistic_primality_used: bool
    miller_rabin_witness_count: int = MILLER_RABIN_WITNESS_COUNT


def _shell_sums(multiples, total, bound, x, values):
    """(x + y, values + the sum of multiples[len(x) + i][y_i] over y_i != 0)
    for every y with entries in [-bound, bound] and L1 norm `total` that
    makes x as long as `multiples`, lexicographically: an entry c fits when
    the entries after it can make up total - |c|.  Each prefix adds its
    multiple once, so the sums are shared by every x below it."""
    k = len(x)
    if k == len(multiples):
        yield x, values
        return
    remaining = len(multiples) - k - 1
    row = multiples[k]
    reach = min(bound, total)
    for c in range(-reach, reach + 1):
        if total <= abs(c) + remaining * bound:
            sums = list(map(add, values, row[c])) if c else values
            yield from _shell_sums(multiples, total - abs(c), bound, x + (c,), sums)


def _sweep_values(p, coeff_bound):
    """(x, values, 0, modulus) for every x of the sweep, lazily, the
    items of `shift_norms`: the values of b = lambda^(p+1) * x at the p-1
    roots of Phi_p mod `modulus`, and 0 for b(1), right mod p since lambda
    divides b; its coefficient sum is a multiple of p, not 0 (the two rows
    sum to -18 and 9 at p = 3), and `shift_norms` reads it only mod p.
    The x run over the vectors with entries in [-coeff_bound, coeff_bound]
    by L1 shell, lexicographically within each shell (`_shell_sums`).

    b is linear in x: the sum of x_i times the row lambda^(p+1) * zeta^i.
    The rows are evaluated once per shell, at a modulus sized for the
    whole shell: sum |b_i| <= |x|_1 * max_i |row_i|_1, and the shifts add
    at most p-1 to each conjugate.  The multiples c * row for
    0 < |c| <= min(coeff_bound, shell) are built with the shell, and the
    shell is walked by prefix, so an x costs one addition of value lists
    per nonzero entry past the longest prefix it shares with the x before
    it, and no product.
    """
    shift = lambda_element(p) ** (p + 1)
    rows = [(shift * CycInt.zeta(p, i)).coeffs for i in range(p - 1)]
    widest = max(sum(map(abs, row)) for row in rows)
    zero = [0] * (p - 1)
    for total in range((p - 1) * coeff_bound + 1):
        modulus, table = root_values(p, rows, total * widest + p - 1)
        reach = min(coeff_bound, total)
        multiples = [
            {c: [c * v for v in row_values] for c in range(-reach, reach + 1) if c}
            for row_values in table
        ]
        for x, values in _shell_sums(multiples, total, coeff_bound, (), zero):
            yield x, values, 0, modulus


def principal_norm_probe(
    p: int, search_bound: int = 10_000, coeff_bound: int = 2
) -> ProbeReport:
    """Sweep q1 = a + lambda^(p+1) * x over small-coefficient x; whenever
    norm(q1) is a prime q, the power test p^((q-1)/p) = 1 mod q must
    pass.  Any failing witness lands in `counterexamples`.

    The candidates are one lazy stream, cut at `search_bound` by islice:
    the x of `_sweep_values`, each with the shifts a = 1..p-1, and their
    norms from `shift_norms`, which share one evaluation of
    lambda^(p+1) * x.  The cut falls inside the last x when p-1 does not
    divide the bound, and no norm past it is computed.

    Norms repeat: complex conjugation maps a + lambda^(p+1) * x to
    a + lambda^(p+1) * zeta^(-1) * conj(x), of the same norm, and for
    small x both are often in the sweep (22378 distinct norms among the
    first 30000 candidates at p = 7).  So each distinct norm gets one
    verdict, kept in a dict: one primality test, and for a prime one
    split check and one power.  Every candidate still gets its own
    witness row, in sweep order.

    An exhausted sweep without prime-norm hits is reported as
    status="no candidates", not as a failure.
    """
    if not is_prime(p) or p < 3:
        raise ValueError(f"p={p} is not an odd prime")
    tested = 0
    witnesses, counterexamples = [], []
    # norm -> p^((norm-1)/p) mod norm if the norm is prime, else None
    verdicts = {}
    candidates = shift_norms(p, _sweep_values(p, coeff_bound), range(1, p))
    for tested, (x, a, n) in enumerate(islice(candidates, search_bound), 1):
        residue = verdicts.get(n, verdicts)
        if residue is verdicts:  # the dict itself marks an untested norm
            residue = verdicts[n] = _norm_verdict(p, n)
        if residue is not None:
            witness = ProbeWitness(a, x, n, residue, residue == 1)
            witnesses.append(witness)
            if not witness.passes:
                counterexamples.append(witness)
    return ProbeReport(
        p=p,
        search_bound=search_bound,
        coeff_bound=coeff_bound,
        candidates_tested=tested,
        witnesses=witnesses,
        counterexamples=counterexamples,
        status="ok" if witnesses else "no candidates",
        probabilistic_primality_used=any(
            w.norm_q >= MILLER_RABIN_DETERMINISTIC_BOUND for w in witnesses
        ),
    )


def _norm_verdict(p, n):
    """p^((n-1)/p) mod n if n is prime, else None; a prime n must split."""
    if not is_prime(n):
        return None
    if n % p != 1:
        raise VerificationError(f"prime norm {n} is not 1 mod {p}, so it does not split")
    return pow(p, (n - 1) // p, n)
