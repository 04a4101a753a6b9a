"""Gauss sums g(q) over the residue fields of Z[zeta_p], their p-th powers
G = g^p in Z[zeta_p], and machine verification of the structural facts
they satisfy: g * conj(g) = q^f, the resolvent form and its tau-twist
exponent rho for split q, the ideal factorization of G through the
Stickelberger element, and the sharp lambda-adic valuations of g^p + 1.

g lives in Z[zeta_pq] for split q and in Z[zeta_p] for f > 1, and is
built in the ring it lives in.  G is never a power in Z[zeta_pq].  For
split q, the exact tau(g) = zeta_p^rho g puts G in Z[zeta_p], and G comes
from its values at the roots of Phi_p modulo a power of a prime
ell = 1 (mod pq) (`cyclotomic.zeta_p_power`).  For f > 1, G is the power
of g in Z[zeta_p].

g is summed from the counts of one walk over the powers of the field
generator with no product in the field (`_character_grid`): the traces
follow the recurrence of the generator's minimal polynomial, and for
f > 1 one step stands for a coset of F_q^*, whose elements share one
character, so a row of counts gives g's coefficient on one power of
zeta_p.  The walk costs q^f/(q-1) steps of f terms, so q = 2 walks the
most: cold, `gauss verify` on (337, 2), a field of 2^21 elements, took
4.1 s, and (41, 2) 1.5 s where the walk of one field product per element
took 23 s.

A record's `checks` dict holds hard verification results (all must be
true); `flags` holds convention diagnostics that never fail a record.
"""

from collections import deque
from operator import mul
from typing import NamedTuple

from .arith import (
    FieldDesc,
    VerificationError,
    factorize,
    ff_mul,
    ff_pow,
    ff_trace,
    field_make,
    primitive_root,
)
from .cyclotomic import (
    BiCycInt,
    CycInt,
    _reduce_exponents,
    _valuation_bound,
    bi_lambda_valuation,
    hensel_roots,
    ideal_valuation,
    lambda_valuation,
    norm,
    zeta_p_power,
)
from .groupring import polynomial_P, polynomial_S2


class GaussSumRecord(NamedTuple):
    """A computed Gauss sum with every verified property attached."""

    p: int
    q: int
    f: int
    v: int
    g: BiCycInt | CycInt  # in Z[zeta_pq] for split q, in Z[zeta_p] when f > 1
    G: CycInt  # g^p in Z[zeta_p]: from its values mod ell^k, or g ** p
    rho: int | None  # tau-twist exponent, split case only
    valuation_profile: dict | None  # ideal label -> valuation of G
    checks: dict
    flags: dict

    @property
    def ok(self):
        return all(bool(x) for x in self.checks.values())

    def to_json_obj(self):
        g = g_in_zeta_p = self.g.to_json_obj()
        if self.f == 1:
            g_in_zeta_p = None
        else:
            # "g" is the embedding in Z[zeta_pq]: g's coefficients on zeta_q^0
            zeros = ["0"] * (self.q - 2)
            g = {"p": self.p, "q": self.q, "coeffs": [[c] + zeros for c in g["coeffs"]]}
        return {
            "p": self.p,
            "q": self.q,
            "f": self.f,
            "v": self.v,
            "g": g,
            "g_in_zeta_p": g_in_zeta_p,
            "G": self.G.to_json_obj(),
            "rho": self.rho,
            "valuation_profile": (
                {str(k): v for k, v in sorted(self.valuation_profile.items())}
                if self.valuation_profile is not None
                else None
            ),
            "checks": dict(self.checks),
            "flags": dict(self.flags),
            "ok": self.ok,
        }


def _recurrence(powers, q):
    """a_0..a_(f-1) with x^f = sum a_i x^i, from the coordinates of the
    powers x^0..x^f, by Gauss-Jordan elimination mod q; VerificationError
    when x^0..x^(f-1) are dependent, that is when x has degree below f."""
    f = len(powers) - 1
    rows = [list(row) for row in zip(*powers)]  # row r: coordinate r of each power
    for c in range(f):
        pivot = next((r for r in range(c, f) if rows[r][c]), None)
        if pivot is None:
            raise VerificationError(f"the generator of F_{q}^{f} has degree below {f}")
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inverse = pow(rows[c][c], -1, q)
        rows[c] = [x * inverse % q for x in rows[c]]
        for r in range(f):
            if r != c and rows[r][c]:
                scale = rows[r][c]
                rows[r] = [(x - scale * y) % q for x, y in zip(rows[r], rows[c])]
    return [row[f] for row in rows]


def _character_grid(fd: FieldDesc):
    """Count the walk's steps on the p x q grid of exponents
    zeta_p^(-c(x)) zeta_q^(Tr x), before any basis reduction; column 0
    counts trace-zero steps.  No step multiplies in the field.

    x runs over gen^k.  Since zeta_p_image = gen^((q^f-1)/p), the
    character exponent of gen^k is c = k mod p.  The traces t_k = Tr gen^k
    are a linear recurring sequence: with gen^f = sum a_i gen^i, the
    F_q-linear trace gives t_(k+f) = sum a_i t_(k+i), one f-term dot
    product per step (Lidl-Niederreiter, Finite Fields, ch. 8).  The a_i
    come from one f x f solve mod q (`_recurrence`), and t_0..t_(f-1) from
    `ff_trace` (which checks that each lands in F_q).

    For f = 1 the loop takes all q-1 steps, with t_(k+1) = gen t_k, and
    the grid is the defining sum itself.  For f > 1 it takes one step per
    coset of F_q^*, k < e = (q^f-1)/(q-1): p divides e, so gen^e, which
    generates F_q^*, leaves the character alone, and Tr(lambda x) =
    lambda Tr(x).  A step with t_k = 0 stands for q-1 trace-zero elements
    in row -k mod p; any other step for one element in each nonzero
    column, so the coset sums to q-1 or to -1 (`gauss_sum`).

    VerificationError unless gen^(q^f-1) = 1 and gen^((q^f-1)/ell) != 1
    for each prime ell | q^f-1, which proves ord(gen) = q^f-1, so the
    gen^k are the nonzero elements, each once; and unless sum a_i gen^i
    = gen^f in the field, which proves the recurrence is gen's.
    """
    p, q, f = fd.p, fd.q, fd.f
    n = fd.order - 1
    one = (1,) + (0,) * (f - 1)
    gen = fd.generator
    if ff_pow(gen, n, fd) != one or any(
        ff_pow(gen, n // ell, fd) == one for ell in factorize(n)
    ):
        raise VerificationError(f"generator of F_{q}^{f} does not have order {n}")
    powers = [one]
    for _ in range(f):
        powers.append(ff_mul(powers[-1], gen, fd))
    a = _recurrence(powers, q)
    if tuple(sum(map(mul, row, a)) % q for row in zip(*powers[:f])) != powers[f]:
        raise VerificationError(f"the recurrence is not that of the generator of F_{q}^{f}")
    window = deque((ff_trace(x, fd) for x in powers[:f]), f)
    walked = [[0] * q for _ in range(p)]
    for k in range(n // (q - 1) if f > 1 else n):
        walked[-k % p][window[0]] += 1
        window.append(sum(map(mul, window, a)) % q)
    return walked


def resolvent_form(p: int, q: int, rho: int) -> BiCycInt:
    """The explicit resolvent sum zeta_q + zeta_p^rho zeta_q^(u^-1) + ...
    with u the smallest primitive root mod q; q = 1 mod p required."""
    if (q - 1) % p != 0:
        raise ValueError("resolvent form needs q = 1 mod p")
    u_inv = pow(primitive_root(q), -1, q)
    grid = [[0] * q for _ in range(p)]
    exp_q = 1
    for i in range(q - 1):
        grid[(i * rho) % p][exp_q] += 1
        exp_q = exp_q * u_inv % q
    return BiCycInt.from_exponent_grid(p, q, grid)


def extract_rho(g: BiCycInt) -> int:
    """The unique rho with tau(g) = zeta_p^rho g, where tau: zeta_q ->
    zeta_q^u fixes zeta_p."""
    p, q = g.p, g.q
    if (q - 1) % p != 0:
        raise ValueError("rho extraction needs q = 1 mod p")
    if g.is_zero():
        raise ValueError("rho undefined for 0")
    twisted = g.galois(1, primitive_root(q))
    candidate = g
    for rho in range(p):
        if candidate == twisted:
            return rho
        candidate = _times_zeta_p(candidate)
    raise VerificationError("no rho found: tau-twist is not a zeta_p multiple")


def _times_zeta_p(b: BiCycInt) -> BiCycInt:
    """b * zeta_p as a basis shift: row i moves to row i+1, and the row
    pushed to zeta_p^(p-1) folds back as -(1 + zeta_p + ... + zeta_p^(p-2))."""
    top = b.coeffs[-1]
    rows = [tuple(-c for c in top)]
    rows += [tuple(a - c for a, c in zip(row, top)) for row in b.coeffs[:-1]]
    return BiCycInt(b.p, b.q, rows)


def _stickelberger_profile(G: CycInt, p, q):
    """Valuations of G at the p-1 labelled ideals (q, zeta_p - r^t), and the
    roots r^s mod q that order them as the S coefficients: label s matches
    when the valuation at label s*t mod p is t for every t."""
    profile = ideal_valuation(G, q)
    _, residues = hensel_roots(p, q, 1)
    matches = [
        residues[s]
        for s in profile
        if all(profile[s * t % p] == t for t in range(1, p))
    ]
    return profile, matches


def _power_plus_one_valuation(G: CycInt, e):
    """v(G^e + 1), exact, from G^e + 1 with coefficients reduced mod p^K.
    p is a unit times lambda^(p-1), so the reduction moves the element by
    a multiple of lambda^(K(p-1)), and a value below K(p-1) is exact.  K
    starts at 3 and doubles; every conjugate of G^e + 1 has absolute value
    at most (sum |G_i|)^e + 1, and a K past the norm bound that gives can
    only mean a broken G."""
    p = G.p
    bound = _valuation_bound(p, [sum(map(abs, G.coeffs)) ** e + 1])
    K = 3
    while True:
        v = lambda_valuation(pow(G, e, p ** K) + 1)
        if v < K * (p - 1):
            return v
        if K * (p - 1) > bound:
            raise VerificationError(
                f"v(G^{e} + 1) exceeds its norm bound {bound} at p={p}"
            )
        K *= 2


def pi_adic_profile(g: BiCycInt, G: CycInt, p, q) -> dict:
    """Exact lambda-adic valuations of g+1, G+1 and G^p+1, with the branch
    verdicts: v(G+1) = p exactly when p^((q-1)/p) is not a p-th power mod
    q, at least p+1 when it is; correspondingly 2p-1 exactly or at least 2p
    for G^p + 1.  G is the record's G in Z[zeta_p], and both valuations of
    G are taken with coefficients mod p^K (`_power_plus_one_valuation`)."""
    if (q - 1) % p != 0:
        raise ValueError("pi-adic profile applies to split q only")
    v_g = bi_lambda_valuation(g + 1)
    v_G = _power_plus_one_valuation(G, 1)
    v_Gp = _power_plus_one_valuation(G, p)
    power_cond = pow(p, (q - 1) // p, q) == 1
    branch_ok = (v_G >= p + 1 and v_Gp >= 2 * p) if power_cond else (
        v_G == p and v_Gp == 2 * p - 1
    )
    return {
        "v_g_plus_1": v_g,
        "v_G_plus_1": v_G,
        "v_Gp_plus_1": v_Gp,
        "p_power_residue_condition": power_cond,
        "branch_exact": branch_ok,
    }


def gauss_sum(fd: FieldDesc) -> GaussSumRecord:
    """Construct g(q) exactly and run every structural check for the pair."""
    p, q = fd.p, fd.q
    v = primitive_root(p)
    f = fd.f
    grid = _character_grid(fd)
    if f == 1:
        g = BiCycInt.from_exponent_grid(p, q, grid)
    else:
        # a coset of Z trace-zero steps among S sums to Z(q-1) - (S-Z)
        # (zeta_q + ... + zeta_q^(q-1) = -1), so g lies in Z[zeta_p]
        g = CycInt(p, _reduce_exponents(p, [q * row[0] - sum(row) for row in grid]))

    checks = {"g_times_conj_equals_q_to_f": g * g.conj() == q ** f}
    flags = {}

    rho = None
    profile = None

    if f == 1:
        # tau(g) = zeta_p^rho g gives tau(g^p) = g^p, and tau generates
        # Gal(Q(zeta_pq)/Q(zeta_p)), so G = g^p lies in Z[zeta_p]
        rho = extract_rho(g)
        checks["G_in_zeta_p"] = True
        # exact above 4 (sum |g_ij|)^p, a bound that rests on no other check
        size = 4 * sum(abs(c) for row in g.coeffs for c in row) ** p
        G = zeta_p_power(g, p, size.bit_length())

        # the defining sum has no trace-zero term at all when q splits
        checks["zeta_q0_slice_zero"] = not any(row[0] for row in grid)
        # v(g + 1) is taken once, for this check and the flags below
        pi_profile = pi_adic_profile(g, G, p, q)
        checks["g_congruent_minus_one_mod_pi"] = pi_profile["v_g_plus_1"] >= 1

        checks["resolvent_matches_extracted_rho"] = resolvent_form(p, q, rho) == g
        minus_v = (-v) % p
        flags["rho_equals_minus_v_directly"] = rho == minus_v
        # some Galois twist of g must be the rho = -v resolvent; the twist
        # exponent is recorded
        s = minus_v * pow(rho, -1, p) % p if rho % p else None
        if s is None:
            checks["rho_relabel_consistent"] = False
        else:
            checks["rho_relabel_consistent"] = (
                g.galois(s, 1) == resolvent_form(p, q, minus_v)
            )
            flags["rho_relabel_exponent"] = s

        # N(G conj(G)) = N(G)^2, so G conj(G) = q^p gives |N(G)| = q^(p(p-1)/2)
        checks["norm_G_equals_q_to_stickelberger_weight"] = G * G.conj() == q ** p
        profile, matches = _stickelberger_profile(G, p, q)
        checks["stickelberger_profile_unique_relabel"] = len(matches) == 1
        if matches:
            zeta_residue = fd.zeta_p_image[0] % q
            flags["profile_canonical_root"] = matches[0]
            flags["profile_matches_character_root"] = matches[0] == zeta_residue
        checks["pi_adic_branch_exact"] = pi_profile.pop("branch_exact")
        flags.update(pi_profile)
    else:
        G = g ** p
        checks["G_in_zeta_p"] = True
        checks["g_in_zeta_p"] = True
        s2 = polynomial_S2(polynomial_P(p, v), q)
        weight = sum(s2)
        checks["norm_g_equals_q_to_s2_weight"] = norm(g) == q ** (f * weight)
        checks["s2_weight_is_half_group_sum"] = p * weight == p * (p - 1) // 2
        # g = -1 mod lambda holds for every f; the p-th power then sits
        # at least one step above the split-case floor.
        checks["g_congruent_minus_one_mod_pi"] = lambda_valuation(g + 1) >= 1
        checks["G_plus_one_above_split_floor"] = _power_plus_one_valuation(G, 1) >= p + 1
        if f % 2 == 0:
            checks["g_is_unit_times_q_half_f"] = _is_unit_times_power(g, q, f)

    return GaussSumRecord(
        p=p,
        q=q,
        f=f,
        v=v,
        g=g,
        G=G,
        rho=rho,
        valuation_profile=profile,
        checks=checks,
        flags=flags,
    )


def build_record(p: int, q: int) -> GaussSumRecord:
    """Field construction plus full verification for a prime pair."""
    return gauss_sum(field_make(p, q))


def _is_unit_times_power(g: CycInt, q, f):
    """For even f: g must be +-zeta_p^w q^(f/2).  In the reduced basis that
    is either a single coefficient +-q^(f/2), or all coefficients equal to
    -+q^(f/2) (when w = p-1 folds)."""
    magnitude = q ** (f // 2)
    nonzero = [c for c in g.coeffs if c]
    if len(nonzero) == 1 and abs(nonzero[0]) == magnitude:
        return True
    return len(set(g.coeffs)) == 1 and abs(g.coeffs[0]) == magnitude
