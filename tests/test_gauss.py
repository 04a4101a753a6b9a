import cmath
import json
import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from stickelberger.arith import (
    VerificationError,
    ff_mul,
    ff_trace,
    field_make,
    is_prime,
    multiplicative_order,
    primitive_root,
    residue_char_exponent,
)
from stickelberger.cyclotomic import (
    BiCycInt,
    CycInt,
    _reduce_exponents,
    bi_lambda_valuation,
    lambda_element,
    lambda_valuation,
    norm,
    zeta_p_power,
)
from stickelberger import arith, cyclotomic, gauss
from stickelberger.cli import SUITE_INERT_PAIRS, SUITE_SPLIT_PAIRS
from stickelberger.gauss import (
    _character_grid,
    _power_plus_one_valuation,
    _stickelberger_profile,
    _times_zeta_p,
    build_record,
    extract_rho,
    gauss_sum,
    pi_adic_profile,
    resolvent_form,
)
from stickelberger.groupring import polynomial_P, polynomial_S2
from reference import (
    coset_grid_expanded,
    embed,
    ff_elements,
    full_walk_grid,
    power_in_zeta_pq,
    to_cyc,
)

SPLIT_PAIRS = [(3, 7), (3, 13), (5, 11), (5, 31), (7, 29), (11, 23)]
INERT_PAIRS = [(5, 3), (7, 2), (11, 3), (5, 7)]


def complex_value(b: BiCycInt | CycInt):
    zp = cmath.exp(2j * cmath.pi / b.p)
    if isinstance(b, CycInt):
        return sum(c * zp**i for i, c in enumerate(b.coeffs))
    zq = cmath.exp(2j * cmath.pi / b.q)
    return sum(
        c * zp**i * zq**j
        for i, row in enumerate(b.coeffs)
        for j, c in enumerate(row)
    )


def g_in_zeta_pq(record):
    """The record's g as an element of Z[zeta_pq]; for f > 1 the record
    holds it in Z[zeta_p]."""
    return record.g if record.f == 1 else embed(record.g, record.q)


def direct_complex_sum(fd):
    """Floating-point oracle sharing no code with the exact reduction."""
    zp = cmath.exp(2j * cmath.pi / fd.p)
    zq = cmath.exp(2j * cmath.pi / fd.q)
    return sum(
        zp ** (-residue_char_exponent(x, fd)) * zq ** ff_trace(x, fd)
        for x in ff_elements(fd)
    )


@pytest.mark.parametrize("pair", SPLIT_PAIRS + INERT_PAIRS)
def test_construction_against_numeric_oracle(pair):
    fd = field_make(*pair)
    g = gauss_sum(fd).g
    assert abs(complex_value(g) - direct_complex_sum(fd)) < 1e-6
    assert abs(abs(complex_value(g)) - fd.q ** (fd.f / 2)) < 1e-6


@pytest.mark.parametrize("pair", SPLIT_PAIRS + INERT_PAIRS)
def test_conjugate_product_is_q_to_f(pair):
    record = build_record(*pair)
    assert record.g * record.g.conj() == record.q ** record.f
    assert record.checks["g_times_conj_equals_q_to_f"]


@pytest.mark.parametrize("pair", SPLIT_PAIRS + INERT_PAIRS)
def test_all_checks_pass(pair):
    record = build_record(*pair)
    assert record.ok, record.checks


class TestFrozen37:
    """Every number here was derived by hand: G = g^3 = 7 * J(chi, chi)
    with the Jacobi sum J = 2 + 3 zeta_3."""

    def test_G(self):
        record = build_record(3, 7)
        assert record.G == CycInt(3, (14, 21))

    def test_valuation_profile(self):
        record = build_record(3, 7)
        assert record.valuation_profile == {1: 1, 2: 2}
        assert record.flags["profile_canonical_root"] == 2  # the zeta image

    def test_pi_adic(self):
        record = build_record(3, 7)
        assert record.flags["v_G_plus_1"] == 3
        assert record.flags["v_Gp_plus_1"] == 5
        assert lambda_valuation(record.G + 1) == 3

    def test_rho(self):
        record = build_record(3, 7)
        assert record.rho == 1  # = -v mod 3 for v = 2


class TestSplitStructure:
    @pytest.mark.parametrize("pair", SPLIT_PAIRS)
    def test_zeta_q0_slice_and_congruence(self, pair):
        record = build_record(*pair)
        assert record.checks["zeta_q0_slice_zero"]
        assert bi_lambda_valuation(record.g + 1) >= 1

    @pytest.mark.parametrize("pair", SPLIT_PAIRS)
    def test_profile_is_S_up_to_unique_relabel(self, pair):
        record = build_record(*pair)
        assert record.checks["stickelberger_profile_unique_relabel"]
        assert sorted(record.valuation_profile.values()) == list(
            range(1, record.p)
        )
        # empirical across the whole battery: the unique relabelling is the
        # character's own embedding
        assert record.flags["profile_matches_character_root"]

    @pytest.mark.parametrize("pair", SPLIT_PAIRS)
    def test_norm_of_G(self, pair):
        record = build_record(*pair)
        assert record.checks["norm_G_equals_q_to_stickelberger_weight"]

    @pytest.mark.parametrize("pair", SPLIT_PAIRS)
    def test_verify_stickelberger_op(self, pair):
        # re-deriving the per-ideal profile from G alone reproduces the
        # record's profile and its stickelberger_profile_unique_relabel check
        record = build_record(*pair)
        profile, matches = _stickelberger_profile(record.G, record.p, record.q)
        assert profile == record.valuation_profile
        assert len(matches) == 1
        assert record.checks["stickelberger_profile_unique_relabel"]


class TestResolvent:
    def test_trivial_rho_collapses_to_minus_one(self):
        # rho = 0: the sum is just all nontrivial q-th roots of unity
        assert resolvent_form(5, 11, 0) == -1

    def test_term_count(self):
        # q - 1 unit coefficients before reduction: check through the
        # complex embedding at rho = 1
        g = resolvent_form(5, 11, 1)
        value = complex_value(g)
        zp = cmath.exp(2j * cmath.pi / 5)
        zq = cmath.exp(2j * cmath.pi / 11)
        u_inv = pow(2, -1, 11)  # smallest primitive root mod 11 is 2
        expected = sum(zp**i * zq ** pow(u_inv, i, 11) for i in range(10))
        assert abs(value - expected) < 1e-9

    def test_round_trip_through_extract_rho(self):
        for rho in range(1, 5):
            g = resolvent_form(5, 11, rho)
            assert extract_rho(g) == rho

    def test_tau_twist_identity(self):
        # tau(g) = zeta_p^rho g for the explicit resolvent
        p, q, rho = 5, 11, 3
        g = resolvent_form(p, q, rho)
        u = primitive_root(q)
        lhs = g.galois(1, u)
        rhs = embed(CycInt.zeta(p, rho), q) * g
        assert lhs == rhs

    def test_constant_in_zeta_q_gives_rho_zero(self):
        g = embed(CycInt(3, (5, -2)), 7)
        assert extract_rho(g) == 0

    def test_gauss_sum_is_resolvent_at_extracted_rho(self):
        for pair in SPLIT_PAIRS:
            record = build_record(*pair)
            assert resolvent_form(*pair, record.rho) == record.g

    def test_kummer_normalized_resolvent_is_galois_twist(self):
        # rho = -v holds after one global conjugation, the same for all pairs
        for (p, q) in SPLIT_PAIRS:
            record = build_record(p, q)
            s = record.flags.get("rho_relabel_exponent")
            assert record.checks["rho_relabel_consistent"]
            assert record.g.galois(s, 1) == resolvent_form(p, q, (-record.v) % p)

    def test_rejects_inert_q(self):
        with pytest.raises(ValueError):
            resolvent_form(5, 3, 1)
        with pytest.raises(ValueError):
            extract_rho(BiCycInt.from_int(5, 3, 1))


class TestInertStructure:
    @pytest.mark.parametrize("pair", INERT_PAIRS + [(13, 2)])
    def test_g_collapses(self, pair):
        # g is built in Z[zeta_p] from the coset counts; the per-element
        # walk, reduced in Z[zeta_pq], must collapse to the same element
        fd = field_make(*pair)
        full = BiCycInt.from_exponent_grid(fd.p, fd.q, full_walk_grid(fd))
        assert gauss_sum(fd).g == to_cyc(full)

    def test_builds_nothing_in_z_zeta_pq(self, monkeypatch):
        counts = Counter()
        real_init, real_mul = BiCycInt.__init__, BiCycInt.__mul__

        def counted_init(self, *args):
            counts["BiCycInt"] += 1
            real_init(self, *args)

        def counted_mul(self, other):
            counts["BiCycInt.__mul__"] += 1
            return real_mul(self, other)

        monkeypatch.setattr(BiCycInt, "__init__", counted_init)
        monkeypatch.setattr(BiCycInt, "__mul__", counted_mul)
        for pair in INERT_PAIRS + [(13, 2)]:
            assert build_record(*pair).ok
        assert counts == {}
        # the split record still builds and multiplies there
        assert build_record(5, 11).ok
        assert counts["BiCycInt"] > 0 and counts["BiCycInt.__mul__"] > 0

    def test_even_f_unit_form(self):
        # f = 4 for (5, 3): g = +-zeta^w * 9
        record = build_record(5, 3)
        assert record.checks["g_is_unit_times_q_half_f"]
        nonzero = [c for c in record.g.coeffs if c]
        assert (len(nonzero) == 1 and abs(nonzero[0]) == 9) or all(
            abs(c) == 9 for c in record.g.coeffs
        )

    @pytest.mark.parametrize("pair", INERT_PAIRS)
    def test_norm_certificate(self, pair):
        # recomputed outside gauss_sum, then read from the record's checks
        record = build_record(*pair)
        p, q, f = record.p, record.q, record.f
        weight = sum(polynomial_S2(polynomial_P(p, record.v), q))
        assert norm(record.g) == q ** (f * weight)
        assert record.g * record.g.conj() == q**f
        assert record.checks["norm_g_equals_q_to_s2_weight"]
        assert record.checks["g_times_conj_equals_q_to_f"]

    @pytest.mark.parametrize("pair", INERT_PAIRS)
    def test_G_one_step_above_split_floor(self, pair):
        record = build_record(*pair)
        assert lambda_valuation(record.G + 1) >= record.p + 1

    @pytest.mark.parametrize("pair", INERT_PAIRS + [(13, 2), (43, 2)])
    def test_split_floor_check_is_exact(self, pair):
        # the record takes v(G + 1) mod p^K; that must equal the exact
        # valuation, also for G + lambda^p, where the exact valuation is p
        record = cached_record(*pair)
        p = record.p
        exact = lambda_valuation(record.G + 1)
        assert record.checks["G_plus_one_above_split_floor"] == (exact >= p + 1)
        for G in (record.G, record.G + lambda_element(p) ** p):
            assert _power_plus_one_valuation(G, 1) == lambda_valuation(G + 1)
        assert lambda_valuation(record.G + lambda_element(p) ** p + 1) == p


class TestPiAdicSharpness:
    @pytest.mark.parametrize(
        "pair", [(3, 7), (3, 13), (5, 11), (7, 29), (11, 23)]
    )
    def test_exact_when_p_not_a_power_residue(self, pair):
        p, q = pair
        assert pow(p, (q - 1) // p, q) != 1
        record = build_record(p, q)
        assert record.flags["v_G_plus_1"] == p
        assert record.flags["v_Gp_plus_1"] == 2 * p - 1

    def test_5_31_is_a_power_residue_case(self):
        assert pow(5, 6, 31) == 1
        record = build_record(5, 31)
        assert record.flags["v_G_plus_1"] >= 6
        assert record.flags["v_Gp_plus_1"] >= 10

    def test_searched_power_residue_pair(self):
        p = 3
        q = next(
            c
            for c in range(p + 1, 1000)
            if is_prime(c) and c % p == 1 and pow(p, (c - 1) // p, c) == 1
        )
        assert q == 61
        record = build_record(p, q)
        assert record.flags["v_G_plus_1"] >= p + 1
        assert record.ok

    def test_both_directions_over_q_scan(self):
        # equality at p iff the power condition fails, for every split q
        p = 3
        for q in range(5, 100):
            if not is_prime(q) or q % p != 1:
                continue
            record = build_record(p, q)
            exact = record.flags["v_G_plus_1"] == p
            assert exact == (pow(p, (q - 1) // p, q) != 1), q

    def test_profile_op(self):
        record = build_record(5, 11)
        prof = pi_adic_profile(record.g, record.G, 5, 11)
        assert prof["v_g_plus_1"] >= 1
        assert prof["v_G_plus_1"] == 5
        assert prof["branch_exact"]
        inert = build_record(5, 3)
        with pytest.raises(ValueError):
            pi_adic_profile(inert.g, inert.G, 5, 3)


class TestDeterminismAndSerialization:
    def test_record_bytes_stable(self):
        a = json.dumps(build_record(5, 11).to_json_obj(), sort_keys=True)
        b = json.dumps(build_record(5, 11).to_json_obj(), sort_keys=True)
        assert a == b

    def test_gauss_sum_accepts_field_desc(self):
        fd = field_make(3, 7)
        record = gauss_sum(fd)
        assert record.ok and record.p == 3 and record.q == 7


def per_element_grid(fd):
    """Reference for _character_grid: the character exponent and the trace
    of each field element, computed one element at a time."""
    grid = [[0] * fd.q for _ in range(fd.p)]
    for x in ff_elements(fd):
        grid[-residue_char_exponent(x, fd) % fd.p][ff_trace(x, fd)] += 1
    return grid


# fields of q^f <= 10^5 elements, q > 2, walked one step per coset of F_q^*
COSET_FIELDS = [(13, 29), (3, 101), (17, 13), (31, 5), (5, 19), (7, 3)]


class TestCharacterWalk:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_equals_per_element_grid_on_every_small_field(self, p):
        fields = 0
        for q in range(2, 4097):
            if is_prime(q) and q != p and q ** multiplicative_order(q, p) <= 4096:
                fd = field_make(p, q)
                grid = coset_grid_expanded(fd, _character_grid(fd))
                assert grid == full_walk_grid(fd) == per_element_grid(fd), (p, q)
                fields += 1
        assert fields > 40

    @pytest.mark.parametrize("pair", COSET_FIELDS)
    def test_coset_walk_equals_full_walk(self, pair):
        fd = field_make(*pair)
        assert fd.f > 1 and fd.q > 2 and fd.order <= 10**5
        assert coset_grid_expanded(fd, _character_grid(fd)) == full_walk_grid(fd)

    @pytest.mark.parametrize(
        "generator",
        [
            lambda fd: ff_mul(fd.generator, fd.generator, fd),  # order 40
            lambda fd: fd.zeta_p_image,  # order 5
            lambda fd: (0,) * fd.f,  # never returns to 1
        ],
    )
    def test_non_generator_raises(self, generator):
        fd = field_make(5, 3)
        bad = fd._replace(generator=generator(fd))
        with pytest.raises(VerificationError, match="order"):
            _character_grid(bad)

    @pytest.mark.parametrize("pair", [(13, 29), (7, 2), (5, 11)])
    def test_every_generator_of_lower_order_raises(self, pair):
        # gen^ell has order (q^f-1)/ell: one cofactor check misses it
        fd = field_make(*pair)
        for ell in arith.factorize(fd.order - 1):
            bad = fd._replace(generator=arith.ff_pow(fd.generator, ell, fd))
            with pytest.raises(VerificationError, match="order"):
                _character_grid(bad)
            with pytest.raises(VerificationError, match="order"):
                full_walk_grid(bad)

    @pytest.mark.parametrize("pair", [(13, 29), (7, 2), (5, 11), (13, 2)])
    def test_perturbed_recurrence_raises(self, pair, monkeypatch):
        fd = field_make(*pair)
        real = gauss._recurrence
        for i in range(fd.f):
            for delta in {1, fd.q - 1}:

                def perturbed(powers, q):
                    a = real(powers, q)
                    a[i] = (a[i] + delta) % q
                    return a

                monkeypatch.setattr(gauss, "_recurrence", perturbed)
                with pytest.raises(VerificationError, match="recurrence"):
                    _character_grid(fd)

    def test_recurrence_of_an_element_of_lower_degree_raises(self):
        # 5 lies in F_29, so its powers span one dimension of F_(29^3)
        one, five = (1, 0, 0), (5, 0, 0)
        with pytest.raises(VerificationError, match="degree below 3"):
            gauss._recurrence([one, five, (25, 0, 0), (125 % 29, 0, 0)], 29)
        assert gauss._recurrence([(1,), five[:1]], 29) == [5]

    def test_walk_makes_a_few_hundred_field_products(self, monkeypatch):
        # the full walk makes one product per field element: 1026168 here
        fd = field_make(13, 1013)
        calls = Counter()
        real = arith._poly_mulmod

        def counted(*args):
            calls["product"] += 1
            return real(*args)

        monkeypatch.setattr(arith, "_poly_mulmod", counted)
        _character_grid(fd)
        assert 0 < calls["product"] <= 300


def jacobi_G(fd):
    """G by a second route: q^f * prod_{k=1}^{p-2} J(chi, chi^k) in
    Z[zeta_p] (Ireland-Rosen ch. 8), with chi(x) = zeta_p^(-c(x)) taken
    per element from residue_char_exponent and J(chi, psi) the sum of
    chi(x) psi(1 - x) over x != 0, 1.  No trace, Z[zeta_pq] or g ** p."""
    p, q, f = fd.p, fd.q, fd.f
    one = (1,) + (0,) * (f - 1)
    c = {x: residue_char_exponent(x, fd) for x in ff_elements(fd)}
    one_minus = lambda x: tuple((o - a) % q for o, a in zip(one, x))
    pairs = [(cx, c[one_minus(x)]) for x, cx in c.items() if x != one]
    G = CycInt.from_int(p, q ** f)
    for k in range(1, p - 1):
        counts = [0] * p
        for cx, cy in pairs:
            counts[-(cx + k * cy) % p] += 1
        G = G * CycInt(p, _reduce_exponents(p, counts))
    return G


@pytest.mark.parametrize(
    "pair", SPLIT_PAIRS + INERT_PAIRS + [(17, 103), (13, 2), (61, 367)]
)
def test_G_equals_jacobi_product(pair):
    fd = field_make(*pair)
    assert gauss_sum(fd).G == jacobi_G(fd)


@pytest.mark.parametrize("pair", [(3, 7), (5, 11), (7, 2), (11, 3)])
def test_times_zeta_p_is_the_product(pair):
    p, q = pair
    rng = random.Random(p * q)
    b = BiCycInt(p, q, [[rng.randint(-99, 99) for _ in range(q - 1)] for _ in range(p - 1)])
    assert _times_zeta_p(b) == b * embed(CycInt.zeta(p), q)


# the pairs whose `gauss verify` stdout is pinned by sha256 in test_cli.py
PINNED_PAIRS = [(17, 103), (13, 2), (19, 191), (43, 2), (61, 367)]
# every pair with p < 14, q < 60, at most 600 entries in Z[zeta_pq] and at
# most 5000 field elements
SMALL_PAIRS = [
    (p, q)
    for p in (3, 5, 7, 11, 13)
    for q in range(2, 60)
    if is_prime(q)
    and q != p
    and (p - 1) * (q - 1) <= 600
    and q ** multiplicative_order(q, p) <= 5000
]
SMALL_SPLIT_PAIRS = [(p, q) for p, q in SMALL_PAIRS if q % p == 1]


@lru_cache(maxsize=None)
def cached_record(p, q):
    return build_record(p, q)


class TestGFromValues:
    """G = g^p from its values at the roots of Phi_p mod ell^k (split q) or
    as a power in Z[zeta_p] (f > 1), against the power in Z[zeta_pq]."""

    # (61, 367) is left to test_G_equals_jacobi_product: its power in
    # Z[zeta_pq] alone takes about 15 s
    @pytest.mark.parametrize(
        "pair",
        sorted(
            (
                set(SPLIT_PAIRS + INERT_PAIRS + PINNED_PAIRS)
                | set(SUITE_SPLIT_PAIRS + SUITE_INERT_PAIRS)
            )
            - {(61, 367)}
        ),
    )
    def test_equals_the_power_in_zeta_pq(self, pair):
        record = cached_record(*pair)
        assert record.G == power_in_zeta_pq(g_in_zeta_pq(record))

    @settings(max_examples=25, deadline=None)
    @given(pair=st.sampled_from(SMALL_PAIRS))
    def test_equals_the_power_in_zeta_pq_on_small_pairs(self, pair):
        record = cached_record(*pair)
        assert record.G == power_in_zeta_pq(g_in_zeta_pq(record))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_root_of_phi_q_gives_G(self, data):
        # G lies in Z[zeta_p], so it does not see which root stands for
        # zeta_q; and the values at the powers of r_p^s are interpolated
        # over the same powers, so every root of Phi_p gives G as well
        p, q = data.draw(st.sampled_from(SMALL_SPLIT_PAIRS))
        exponent = {q: data.draw(st.integers(1, q - 1)), p: data.draw(st.integers(1, p - 1))}
        record = cached_record(p, q)
        bound = 4 * sum(abs(c) for row in record.g.coeffs for c in row) ** p
        real = cyclotomic.hensel_roots

        def other_root(n, ell, k):
            # the table of r^e in place of r: entry j is r^(e*j)
            modulus, powers = real(n, ell, k)
            return modulus, tuple(powers[exponent[n] * j % n] for j in range(n))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cyclotomic, "hensel_roots", other_root)
            G = zeta_p_power(record.g, p, bound.bit_length())
        assert G == zeta_p_power(record.g, p, bound.bit_length()) == record.G

    @pytest.mark.parametrize("pair", [(5, 11), (7, 29), (17, 103)])
    def test_exact_exactly_above_twice_the_largest_coefficient(self, pair):
        p, q = pair
        record = cached_record(p, q)
        largest = max(map(abs, record.G.coeffs))
        exact = []
        for bits in range(0, 2 * largest.bit_length() + 2):
            ell, k = cyclotomic._prime_power_above(p * q, bits)
            G = zeta_p_power(record.g, p, bits)
            assert (G == record.G) == (ell**k > 2 * largest), ell**k
            exact.append(G == record.G)
        assert not exact[0] and exact[-1]

    def test_modulus_below_the_bound_fails_the_record(self, monkeypatch):
        real = gauss.zeta_p_power
        monkeypatch.setattr(gauss, "zeta_p_power", lambda g, e, bits: real(g, e, 8))
        record = build_record(17, 103)
        assert record.G != power_in_zeta_pq(record.g)
        assert not record.ok

    def test_perturbed_grid_fails_the_rho_check_before_G(self, monkeypatch):
        real = gauss._character_grid

        def perturbed(fd):
            grid = real(fd)
            grid[1][1] += 1
            grid[1][2] -= 1
            return grid

        def refuse(*args):
            raise RuntimeError("G built")

        monkeypatch.setattr(gauss, "_character_grid", perturbed)
        monkeypatch.setattr(gauss, "zeta_p_power", refuse)
        with pytest.raises(VerificationError, match="no rho found"):
            build_record(5, 11)

    @pytest.mark.parametrize(
        "roots",
        [
            lambda r_p, r_q, ell, m: (r_p * r_q % m, r_q),  # order pq
            lambda r_p, r_q, ell, m: (r_q, r_q),  # order q
            lambda r_p, r_q, ell, m: (1, r_q),  # order 1
            lambda r_p, r_q, ell, m: (r_p, r_p),  # order p for zeta_q
            lambda r_p, r_q, ell, m: (r_p % ell, r_q),  # a root mod ell only
        ],
    )
    def test_a_root_of_the_wrong_order_raises(self, roots, monkeypatch):
        p, q = 5, 11
        g = cached_record(p, q).g
        ell, k = cyclotomic._prime_power_above(p * q, 200)
        modulus, powers_p = cyclotomic.hensel_roots(p, ell, k)
        _, powers_q = cyclotomic.hensel_roots(q, ell, k)
        bad = dict(zip((p, q), roots(powers_p[1], powers_q[1], ell, modulus)))
        monkeypatch.setattr(
            cyclotomic,
            "hensel_roots",
            lambda n, ell, k: (modulus, tuple(cyclotomic._power_table(bad[n], n, modulus))),
        )
        with pytest.raises(VerificationError, match="no roots of Phi"):
            zeta_p_power(g, p, 200)


class TestPowerPlusOneValuation:
    """v(G^e + 1) from G^e + 1 reduced mod p^K, against the exact power."""

    @pytest.mark.parametrize("pair", SPLIT_PAIRS + [(3, 61), (17, 103)])
    def test_equals_the_valuation_of_the_exact_power(self, pair):
        record = cached_record(*pair)
        G, p = record.G, record.p
        exact = lambda_valuation(G ** p + 1)
        assert _power_plus_one_valuation(G, p) == exact
        assert record.flags["v_Gp_plus_1"] == exact

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_near_minus_one(self, data):
        # a = -1 + lambda^k b puts v(a^p + 1) anywhere up to several K(p-1)
        p = data.draw(st.sampled_from([3, 5, 7, 11]))
        k = data.draw(st.integers(0, 60))
        b = CycInt(p, data.draw(st.lists(st.integers(-9, 9), min_size=p - 1, max_size=p - 1)))
        a = lambda_element(p) ** k * b - 1
        for e in (1, p):
            expected = lambda_valuation(a ** e + 1)
            if expected == float("inf"):
                with pytest.raises(VerificationError, match="norm bound"):
                    _power_plus_one_valuation(a, e)
            else:
                assert _power_plus_one_valuation(a, e) == expected

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_minus_one_exceeds_the_norm_bound(self, p):
        for e in (1, p):
            with pytest.raises(VerificationError, match=f"v\\(G\\^{e} \\+ 1\\) exceeds"):
                _power_plus_one_valuation(CycInt.from_int(p, -1), e)

    @pytest.mark.parametrize("pair", SPLIT_PAIRS + INERT_PAIRS + PINNED_PAIRS)
    def test_plus_one_equals_the_exact_valuation(self, pair):
        G = cached_record(*pair).G
        assert _power_plus_one_valuation(G, 1) == lambda_valuation(G + 1)


SPLIT_NORM_PAIRS = sorted(
    set(SPLIT_PAIRS + [(p, q) for p, q in PINNED_PAIRS if q % p == 1])
    | set(SUITE_SPLIT_PAIRS)
)


class TestNormCheck:
    """The record's G conj(G) = q^p against N(G) = q^(p(p-1)/2) by the
    evaluation route, `norm`."""

    @pytest.mark.parametrize("pair", SPLIT_NORM_PAIRS)
    def test_equals_the_norm_by_evaluation(self, pair):
        p, q = pair
        record = cached_record(p, q)
        by_norm = norm(record.G) == q ** (p * (p - 1) // 2)
        assert record.checks["norm_G_equals_q_to_stickelberger_weight"] == by_norm
        assert by_norm

    def test_perturbed_G_fails_both_routes(self, monkeypatch):
        p, q = 17, 103
        real = gauss.zeta_p_power
        monkeypatch.setattr(gauss, "zeta_p_power", lambda g, e, bits: real(g, e, bits) + 1)
        record = build_record(p, q)
        assert not record.checks["norm_G_equals_q_to_stickelberger_weight"]
        assert abs(norm(record.G)) != q ** (p * (p - 1) // 2)
        assert record.G == cached_record(p, q).G + 1

    def test_split_record_takes_no_norm(self, monkeypatch):
        def refuse(a):
            raise RuntimeError("norm taken")

        monkeypatch.setattr(gauss, "norm", refuse)
        assert build_record(5, 11).ok
        with pytest.raises(RuntimeError, match="norm taken"):
            build_record(5, 3)
