import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from stickelberger import cyclotomic
from stickelberger.arith import VerificationError, is_prime
from reference import (
    conjugate_product_norm,
    embed,
    four_term_grid,
    hensel_roots_by_lifts,
    schoolbook_bicyc_mul,
    schoolbook_cyc_mul,
    to_cyc,
)
from stickelberger.cyclotomic import (
    BiCycInt,
    CycInt,
    bi_lambda_valuation,
    galois_apply,
    hensel_roots,
    ideal_valuation,
    lambda_element,
    lambda_valuation,
    norm,
    root_values,
    shift_norms,
    _lambda_quotient,
    _lift_root,
)

SMALL_PRIMES = [3, 5, 7, 11, 13]
PRIMES_TO_60 = [p for p in range(3, 60) if is_prime(p)]


@lru_cache(maxsize=None)
def lambda_complement(p):
    """M with lambda * M = p, namely prod_{k=2}^{p-1} (zeta^k - 1)."""
    acc = CycInt.from_int(p, 1)
    for k in range(2, p):
        acc = acc * (CycInt.zeta(p, k) - 1)
    return acc


def reference_lambda_divexact(a):
    """Reference for the running-sum quotient: a / lambda = a * M / p
    through a general product, with integer coefficient checks."""
    product = a * lambda_complement(a.p)
    assert all(c % a.p == 0 for c in product.coeffs), "p does not divide a * M"
    return CycInt(a.p, [c // a.p for c in product.coeffs])


def random_cyc(rng, p, bound=50):
    return CycInt(p, [rng.randint(-bound, bound) for _ in range(p - 1)])


cyc_strategy = st.sampled_from(SMALL_PRIMES).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(
            st.integers(min_value=-30, max_value=30),
            min_size=p - 1,
            max_size=p - 1,
        ),
    )
).map(lambda t: CycInt(t[0], t[1]))


class TestCycIntRing:
    def test_zeta_times_inverse_power(self):
        for p in SMALL_PRIMES:
            assert CycInt.zeta(p) * CycInt.zeta(p, p - 1) == 1

    def test_lambda_complement(self):
        for p in PRIMES_TO_60:
            assert lambda_element(p) * lambda_complement(p) == p

    def test_multiplicative_identity(self):
        rng = random.Random(7)
        for p in SMALL_PRIMES:
            a = random_cyc(rng, p)
            assert a * CycInt.from_int(p, 1) == a

    @settings(max_examples=150, deadline=None)
    @given(a=cyc_strategy)
    def test_add_mul_commute_with_conjugation(self, a):
        b = galois_apply(2 % a.p if a.p > 2 else 1, a)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()

    def test_ring_axioms_random(self):
        rng = random.Random(11)
        for p in SMALL_PRIMES:
            for _ in range(30):
                a, b, c = (random_cyc(rng, p) for _ in range(3))
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a * b == b * a

    def test_mixed_p_rejected(self):
        with pytest.raises(ValueError):
            CycInt.zeta(5) * CycInt.zeta(7)

    def test_power_basis_length_enforced(self):
        with pytest.raises(ValueError):
            CycInt(5, (1, 2, 3))


class TestCoeffVector:
    """The behaviour the two rings share through their one base."""

    ELEMENTS = [
        CycInt(5, (1, -2, 0, 4)),
        BiCycInt(5, 3, [[1, 0], [-2, 3], [0, 0], [4, -1]]),
    ]

    @pytest.mark.parametrize("a", ELEMENTS, ids=lambda a: type(a).__name__)
    def test_shared_arithmetic(self, a):
        assert a - a == 0 and (a - a).is_zero() and not a.is_zero()
        assert a - 3 + 3 == a
        assert a ** 0 == 1 and a ** 3 == a * a * a
        assert pow(a, 5, 7) == (a ** 5)._map(lambda c: c % 7)
        assert pow(a, 0, 7) == 1 and pow(a, 1, 3) == a._map(lambda c: c % 3)
        assert hash(a + 0) == hash(a) and a + 0 == a
        with pytest.raises(ValueError):
            a ** -1
        with pytest.raises(AttributeError):
            a.p = 7

    def test_rings_do_not_mix(self):
        cyc, bicyc = self.ELEMENTS
        assert cyc != bicyc
        with pytest.raises(TypeError):
            cyc + bicyc
        with pytest.raises(ValueError):
            cyc + CycInt.from_int(7, 1)
        with pytest.raises(ValueError):
            bicyc + BiCycInt.from_int(5, 7, 1)
        with pytest.raises(ValueError):
            bicyc + BiCycInt.from_int(7, 3, 1)
        with pytest.raises(TypeError):
            bicyc + CycInt.zeta(7)
        with pytest.raises(TypeError):
            bicyc + cyc


SCHOOLBOOK = {
    CycInt: schoolbook_cyc_mul,
    BiCycInt: schoolbook_bicyc_mul,
}


@st.composite
def kernel_operands(draw, ring):
    """Two elements of `ring` and an int, p up to 59 (q = 2 or 3 for
    BiCycInt, row strides 1 and 3), entries up to 2^200, some operands
    zero."""
    p = draw(st.sampled_from(PRIMES_TO_60))
    q = draw(st.sampled_from([q for q in (2, 3) if q != p]))

    def entries(count):
        if draw(st.integers(0, 5)) == 0:
            return [0] * count
        top = 1 << draw(st.sampled_from([1, 8, 64, 200]))
        entry = st.one_of(st.just(0), st.integers(-top, top), st.sampled_from([-top, top]))
        return draw(st.lists(entry, min_size=count, max_size=count))

    def element():
        if ring is BiCycInt:
            return BiCycInt(p, q, [entries(q - 1) for _ in range(p - 1)])
        return ring(p, entries(p - 1))

    n = draw(st.one_of(st.just(0), st.integers(-(1 << 200), 1 << 200)))
    return element(), element(), n


class TestProductKernel:
    """CoeffVector.__mul__, one packed product folded by each ring, against
    the schoolbook product of that ring."""

    @pytest.mark.parametrize("ring", list(SCHOOLBOOK), ids=lambda r: r.__name__)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_schoolbook(self, ring, data):
        a, b, n = data.draw(kernel_operands(ring))
        reference = SCHOOLBOOK[ring]
        assert a * b == reference(a, b)
        assert a * n == reference(a, a._coerce(n))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_grid_fold_equals_four_term_formula(self, data):
        p = data.draw(st.sampled_from(PRIMES_TO_60))
        q = data.draw(st.sampled_from([q for q in [2] + PRIMES_TO_60[:6] if q != p]))
        top = 1 << data.draw(st.sampled_from([1, 64, 200]))
        row = st.lists(st.integers(-top, top), min_size=q, max_size=q)
        grid = data.draw(st.lists(row, min_size=p, max_size=p))
        assert BiCycInt.from_exponent_grid(p, q, grid) == four_term_grid(p, q, grid)


class TestGalois:
    def test_identity_and_conjugation(self):
        rng = random.Random(3)
        for p in SMALL_PRIMES:
            a = random_cyc(rng, p)
            assert galois_apply(1, a) == a
            assert galois_apply(p - 1, a) == a.conj()
            assert a.conj().conj() == a

    def test_group_law(self):
        rng = random.Random(5)
        for p in SMALL_PRIMES:
            for _ in range(20):
                a = random_cyc(rng, p)
                t1 = rng.randint(1, p - 1)
                t2 = rng.randint(1, p - 1)
                lhs = galois_apply(t1, galois_apply(t2, a))
                assert lhs == galois_apply(t1 * t2 % p, a)

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            galois_apply(5, CycInt.zeta(5))


class TestNorm:
    def test_examples(self):
        assert norm(lambda_element(5)) == 5
        assert norm(lambda_element(11)) == 11
        assert norm(CycInt.from_int(5, 9)) == 9**4
        assert norm(CycInt.zeta(7)) == 1

    def test_multiplicative(self):
        rng = random.Random(17)
        for p in SMALL_PRIMES:
            for _ in range(10):
                a = random_cyc(rng, p, 9)
                b = random_cyc(rng, p, 9)
                if a.is_zero() or b.is_zero():
                    continue
                assert norm(a * b) == norm(a) * norm(b)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            norm(CycInt.from_int(5, 0))


class TestLambdaValuation:
    def test_examples(self):
        for p in (3, 5, 7):
            lam = lambda_element(p)
            assert lambda_valuation(lam ** (2 * p)) == 2 * p
            assert lambda_valuation(CycInt.from_int(p, p)) == p - 1
            assert lambda_valuation(CycInt.zeta(p) + 1) == 0

    def test_zero_is_infinite(self):
        assert lambda_valuation(CycInt.from_int(5, 0)) == math.inf

    def test_additive_on_products(self):
        rng = random.Random(23)
        for p in (3, 5, 7):
            for _ in range(20):
                a = random_cyc(rng, p, 20)
                b = random_cyc(rng, p, 20)
                if a.is_zero() or b.is_zero():
                    continue
                va, vb = lambda_valuation(a), lambda_valuation(b)
                assert lambda_valuation(a * b) == va + vb

    def test_cap_signal(self):
        # far above any fixed multiple of p: the valuation has no cap
        lam = lambda_element(5)
        assert lambda_valuation(lam ** 30) == 30
        assert lambda_valuation(CycInt.from_int(5, 5**6)) == 24

    def test_bi_cap_signal(self):
        lam = embed(lambda_element(5), 3)
        assert bi_lambda_valuation(lam ** 30) == 30
        assert bi_lambda_valuation(BiCycInt.from_int(5, 3, 0)) == math.inf

    def test_broken_quotient_hits_the_norm_bound(self, monkeypatch):
        # a quotient that returns its input keeps p | coefficient sum forever
        monkeypatch.setattr(cyclotomic, "_lambda_quotient", lambda col, p: col)
        with pytest.raises(VerificationError, match="norm bound"):
            lambda_valuation(CycInt.from_int(5, 5))
        with pytest.raises(VerificationError, match="norm bound"):
            bi_lambda_valuation(embed(lambda_element(5), 3))


@st.composite
def big_cyc(draw, primes=PRIMES_TO_60, bits=400):
    """A CycInt with p up to 59 and entries of up to `bits` bits."""
    p = draw(st.sampled_from(primes))
    top = 1 << draw(st.sampled_from([1, 8, 64, bits]))
    entry = st.one_of(st.just(0), st.integers(-top, top), st.sampled_from([-top, top]))
    return CycInt(p, draw(st.lists(entry, min_size=p - 1, max_size=p - 1)))


def lambda_divisible(a):
    """a with its constant term shifted so that p divides the coefficient
    sum, which makes it a multiple of lambda."""
    return a - sum(a.coeffs) % a.p


class TestLambdaQuotient:
    """The O(p) running-sum division by lambda against the product with
    lambda_complement that it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(big_cyc())
    def test_quotient_times_lambda_is_input(self, a):
        a = lambda_divisible(a)
        quotient = CycInt(a.p, _lambda_quotient(a.coeffs, a.p))
        assert quotient * lambda_element(a.p) == a

    @settings(max_examples=150, deadline=None)
    @given(big_cyc())
    def test_matches_reference(self, a):
        a = lambda_divisible(a)
        expected = reference_lambda_divexact(a)
        assert CycInt(a.p, _lambda_quotient(a.coeffs, a.p)) == expected

    @settings(max_examples=150, deadline=None)
    @given(big_cyc(), st.integers(0, 70))
    def test_valuation_is_additive_in_lambda_powers(self, b, k):
        if b.is_zero():
            return
        k %= 2 * b.p
        lifted = b * lambda_element(b.p) ** k
        assert lambda_valuation(lifted) == k + lambda_valuation(b)

    @settings(max_examples=150, deadline=None)
    @given(big_cyc(primes=SMALL_PRIMES, bits=200), st.sampled_from([2, 3, 5, 7, 11]))
    def test_bi_valuation_of_embedded_element(self, a, q):
        if q == a.p:
            return
        assert bi_lambda_valuation(embed(a, q)) == lambda_valuation(a)

    @pytest.mark.parametrize("p, q", [(3, 2), (3, 7), (5, 2), (5, 11), (7, 3)])
    def test_bi_valuation_is_additive_in_lambda_powers(self, p, q):
        rng = random.Random(p * 100 + q)
        lam = embed(lambda_element(p), q)
        for _ in range(20):
            rows = [[rng.randint(-(1 << 90), 1 << 90) for _ in range(q - 1)] for _ in range(p - 1)]
            b = BiCycInt(p, q, rows)
            k = rng.randrange(2 * p)
            assert bi_lambda_valuation(b * lam ** k) == k + bi_lambda_valuation(b)


@st.composite
def norm_operand(draw):
    """A nonzero CycInt with p < 60 and entries of up to 300 bits: dense,
    sparse, rational, or a unit +-zeta^k."""
    p = draw(st.sampled_from(PRIMES_TO_60))
    kind = draw(st.sampled_from(["dense", "sparse", "rational", "unit"]))
    if kind == "unit":
        sign = draw(st.sampled_from([1, -1]))
        return CycInt.zeta(p, draw(st.integers(0, p - 1))) * sign
    top = 1 << draw(st.sampled_from([1, 8, 64, 300]))
    entry = st.one_of(st.integers(-top, top), st.sampled_from([-top, top])).filter(bool)
    if kind == "rational":
        return CycInt.from_int(p, draw(entry))
    if kind == "dense":
        return CycInt(p, draw(st.lists(entry, min_size=p - 1, max_size=p - 1)))
    coeffs = [0] * (p - 1)
    for i in draw(st.sets(st.integers(0, p - 2), min_size=1, max_size=3)):
        coeffs[i] = draw(entry)
    return CycInt(p, coeffs)


class TestNormByEvaluation:
    """The norm as a product of values at the roots of Phi_p mod ell^k,
    against the product of the p-1 Galois conjugates."""

    @settings(max_examples=60, deadline=None)
    @given(norm_operand())
    def test_matches_conjugate_product(self, a):
        assert norm(a) == conjugate_product_norm(a)

    @settings(max_examples=30, deadline=None)
    @given(norm_operand(), st.lists(st.integers(-70, 70), min_size=1, max_size=8))
    def test_translates_match_conjugate_products(self, b, shifts):
        shifts = [s for s in shifts if not (b + s).is_zero()]
        expected = [conjugate_product_norm(b + s) for s in shifts]
        assert [norm(b + s) for s in shifts] == expected

    @pytest.mark.parametrize("p", [p for p in PRIMES_TO_60 if p <= 23])
    def test_paired_shift_norms_match_conjugate_products(self, p):
        # shift_norms pairs the value at r^t with the one at r^(p-t); at
        # p = 3 there is a single pair.  Every shift 0..p-1, with s = 0
        # the plain norm and one s with p | a(1), against the product of
        # the p-1 conjugates.
        rng = random.Random(p)
        for _ in range(3):
            b = CycInt(p, [rng.randint(-9, 9) for _ in range(p - 1)])
            modulus, (values,) = root_values(p, [b.coeffs], sum(map(abs, b.coeffs)) + p - 1)
            got = shift_norms(p, [("b", values, sum(b.coeffs), modulus)], range(p))
            expected = [("b", s, conjugate_product_norm(b + s)) for s in range(p)]
            assert list(got) == expected
            assert [norm(b + s) for s in range(p)] == [n for _, _, n in expected]

    def test_every_small_element_at_p3(self):
        # ell = 7, the smallest modulus the norm ever uses
        assert cyclotomic._prime_power_above(3, 1) == (7, 1)
        for c0 in range(-9, 10):
            for c1 in range(-9, 10):
                a = CycInt(3, (c0, c1))
                if not a.is_zero():
                    expected = c0 * c0 - c0 * c1 + c1 * c1
                    assert norm(a) == conjugate_product_norm(a) == expected

    @pytest.mark.parametrize("p", PRIMES_TO_60)
    def test_smallest_prime_and_root_powers(self, p):
        ell, k = cyclotomic._prime_power_above(p, 1)
        assert k == 1 and is_prime(ell) and ell % p == 1
        assert not any(is_prime(m) for m in range(p + 1, ell, p))
        modulus, powers = hensel_roots(p, ell, 1)
        r = powers[1]
        assert modulus == ell and r != 1 and pow(r, p, ell) == 1
        assert powers == tuple(pow(r, j, ell) for j in range(p))
        assert r == min(x for x in range(2, ell) if pow(x, p, ell) == 1)
        modulus, lifted = hensel_roots(p, *cyclotomic._prime_power_above(p, 200))
        assert modulus > 2**200 and modulus % ell == 0
        assert lifted[1] % ell == r and pow(lifted[1], p, modulus) == 1

    def test_units(self):
        for p in PRIMES_TO_60:
            for k in range(p):
                assert norm(CycInt.zeta(p, k)) == 1
                assert norm(CycInt.zeta(p, k) * -1) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            norm(CycInt.from_int(7, 3) - 3)
        with pytest.raises(ValueError):
            norm(CycInt.from_int(7, 0))

    def test_small_modulus_fails_the_congruence_check(self, monkeypatch):
        # the norm 291943 does not fit below ell = 29
        real = cyclotomic.hensel_roots
        monkeypatch.setattr(cyclotomic, "hensel_roots", lambda n, ell, k: real(n, ell, 1))
        a = CycInt(7, (3, 1, 4, 1, 5, 9))
        with pytest.raises(VerificationError, match="not a\\(1\\)"):
            norm(a)

    def test_unlifted_root_fails_the_congruence_check(self, monkeypatch):
        # a root mod ell only, not mod ell^k
        monkeypatch.setattr(cyclotomic, "_lift_root", lambda p, q, r, precision: r)
        a = CycInt(7, (3, 1, 4, 1, 5, 9))
        with pytest.raises(VerificationError, match="not a\\(1\\)"):
            norm(a)


class TestHensel:
    def test_frozen_example_3_7(self):
        modulus, powers = hensel_roots(3, 7, 2)
        assert modulus == 49 and sorted(powers[1:]) == [18, 30]

    def test_count_and_defining_property(self):
        for (p, q) in [(3, 7), (5, 11), (7, 29), (11, 23)]:
            modulus, powers = hensel_roots(p, q, 2 * p + 4)
            assert modulus == q ** (2 * p + 4) and len(powers) == p
            assert powers[0] == 1 and len({r % q for r in powers[1:]}) == p - 1
            for r in powers[1:]:
                assert sum(pow(r, i, modulus) for i in range(p)) % modulus == 0

    def test_rejects_non_split(self):
        with pytest.raises(ValueError):
            hensel_roots(5, 3, 1)
        with pytest.raises(ValueError):
            ideal_valuation(CycInt.from_int(5, 2), 3)

    def test_powers_of_one_lift_equal_the_lift_of_every_root(self):
        for p in PRIMES_TO_60:
            for q in range(2 * p + 1, 400, 2 * p):
                if is_prime(q):
                    _, powers = hensel_roots(p, q, 2 * p + 4)
                    roots = list(enumerate(powers))[1:]
                    assert roots == hensel_roots_by_lifts(p, q), (p, q)

    def test_label_dictionary(self):
        # label t is the root that lifts the t-th power of the smallest
        # root mod q
        _, powers = hensel_roots(5, 11, 14)
        smallest = min(x for x in range(2, 11) if pow(x, 5, 11) == 1)
        assert [r % 11 for r in powers] == [pow(smallest, t, 11) for t in range(5)]

    @pytest.mark.parametrize("p, q", [(3, 7), (5, 11), (7, 29), (17, 103)])
    def test_phi_q_table_mod_a_prime_above_pq(self, p, q):
        # the table of zeta_p_power for zeta_q: roots of Phi_q mod ell^k,
        # ell = 1 (mod pq)
        ell, k = cyclotomic._prime_power_above(p * q, 300)
        assert is_prime(ell) and ell % (p * q) == 1
        modulus, powers = hensel_roots(q, ell, k)
        assert modulus == ell**k > 2**300 and len(set(powers)) == q
        for r in powers[1:]:
            assert sum(pow(r, i, modulus) for i in range(q)) % modulus == 0

    def test_newton_lift_agrees_with_exhaustive_search(self):
        # all roots of Phi_3 mod 7^2 by brute force
        brute = sorted(
            r for r in range(49) if (r * r + r + 1) % 49 == 0
        )
        lifted = sorted(_lift_root(3, 7, r, 2) for r in (2, 4))
        assert brute == lifted == [18, 30]

    @pytest.mark.parametrize("p, q", [(3, 7), (3, 13), (5, 11), (5, 31), (7, 29), (11, 23)])
    def test_lift_matches_brute_force_mod_q_squared(self, p, q):
        m = q * q
        brute = [r for r in range(m) if sum(pow(r, i, m) for i in range(p)) % m == 0]
        mod_q = [r for r in range(2, q) if pow(r, p, q) == 1]
        assert sorted(_lift_root(p, q, r, 2) for r in mod_q) == brute

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(PRIMES_TO_60), st.integers(1, 40), st.data())
    def test_lift_is_a_root_of_phi(self, p, n, data):
        q = data.draw(st.sampled_from([q for q in range(2, 800) if is_prime(q) and q % p == 1]))
        residues = [r for r in range(2, q) if pow(r, p, q) == 1]
        r0 = data.draw(st.sampled_from(residues))
        m = q ** n
        r = _lift_root(p, q, r0, n)
        assert 0 <= r < m and r % q == r0
        assert pow(r, p, m) == 1 and r % q != 1
        assert sum(pow(r, i, m) for i in range(p)) % m == 0

    def test_lift_of_a_non_root_fails(self):
        with pytest.raises(VerificationError):
            _lift_root(3, 7, 3, 5)
        with pytest.raises(VerificationError):
            _lift_root(3, 7, 1, 5)


class TestIdealValuation:
    def test_rational_q_has_valuation_one_everywhere(self):
        for (p, q) in [(3, 7), (5, 11)]:
            valuations = ideal_valuation(CycInt.from_int(p, q), q)
            assert list(valuations.items()) == [(t, 1) for t in range(1, p)]

    def test_unit_example(self):
        assert ideal_valuation(CycInt.from_int(5, 3), 11) == dict.fromkeys(range(1, 5), 0)

    def test_valuation_sum_equals_norm_valuation(self):
        rng = random.Random(31)
        for (p, q) in [(3, 7), (5, 11)]:
            for trial in range(15):
                a = random_cyc(rng, p, 40)
                if a.is_zero():
                    continue
                if trial % 3 == 0:
                    a = a * q  # force nonzero rational content
                n = norm(a)
                vq = 0
                while n % q == 0:
                    n //= q
                    vq += 1
                assert sum(ideal_valuation(a, q).values()) == vq

    def test_precision_retry_and_exhaustion(self, monkeypatch):
        # lambda-free element with valuation >= 39 at the prime of label 1,
        # far above the first precision 2p+4 = 10, so the table is lifted
        # again
        lifted_root = hensel_roots(3, 7, 80)[1][1]
        a = CycInt.zeta(3) - lifted_root % 7**39
        expected = 39
        while (lifted_root - lifted_root % 7**39) % 7 ** (expected + 1) == 0:
            expected += 1
        assert 2 * 3 + 4 < 39 <= expected < 80
        assert ideal_valuation(a, 7) == {1: expected, 2: 0}
        # a value that stays 0 at every precision contradicts the norm bound
        monkeypatch.setattr(
            cyclotomic, "_values_at_roots", lambda coeffs, powers, m: [0] * (len(powers) - 1)
        )
        with pytest.raises(VerificationError, match="norm bound"):
            ideal_valuation(a, 7)

    @pytest.mark.parametrize("k", [40, 60, 200])
    def test_high_powers_of_a_prime_element(self, k):
        # zeta_3 - r generates the prime (7, zeta_3 - r^t) of label t when
        # r = r^t mod 7
        _, residues = hensel_roots(3, 7, 1)
        for t in (1, 2):
            a = (CycInt.zeta(3) - residues[t]) ** k
            assert ideal_valuation(a, 7) == {t: k, 3 - t: 0}
            assert ideal_valuation(a * 7**k, 7) == {t: 2 * k, 3 - t: k}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ideal_valuation(CycInt.from_int(3, 0), 7)


class TestBiCycInt:
    def test_ring_axioms_random(self):
        rng = random.Random(41)
        for (p, q) in [(3, 5), (5, 3), (3, 2)]:
            for _ in range(12):
                mats = [
                    BiCycInt(
                        p,
                        q,
                        [
                            [rng.randint(-9, 9) for _ in range(q - 1)]
                            for _ in range(p - 1)
                        ],
                    )
                    for _ in range(3)
                ]
                a, b, c = mats
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a * b == b * a

    def test_zeta_orders(self):
        for (p, q) in [(3, 5), (5, 3), (3, 2)]:
            zp = embed(CycInt.zeta(p), q)
            assert zp ** p == 1
            # zeta_q via exponent grid
            grid = [[0] * q for _ in range(p)]
            grid[0][1 % q] = 1
            zq = BiCycInt.from_exponent_grid(p, q, grid)
            assert zq ** q == 1

    def test_collapse(self):
        a = CycInt(5, (1, -2, 3, 0))
        assert to_cyc(embed(a, 7)) == a
        grid = [[0] * 7 for _ in range(5)]
        grid[1][2] = 1
        c = BiCycInt.from_exponent_grid(5, 7, grid)
        with pytest.raises(ValueError):
            to_cyc(c)

    def test_galois_group_law(self):
        rng = random.Random(43)
        p, q = 5, 7
        a = BiCycInt(
            p, q, [[rng.randint(-5, 5) for _ in range(q - 1)] for _ in range(p - 1)]
        )
        assert a.galois(2, 3).galois(3, 5) == a.galois(2 * 3 % p, 3 * 5 % q)
        assert a.conj().conj() == a

    def test_bi_lambda_valuation(self):
        p, q = 5, 7
        lam = embed(lambda_element(p), q)
        grid = [[0] * q for _ in range(p)]
        grid[0][3] = 1
        zq3 = BiCycInt.from_exponent_grid(p, q, grid)
        assert bi_lambda_valuation(lam ** 3 * zq3) == 3
        assert bi_lambda_valuation(BiCycInt.from_int(p, q, p)) == p - 1
        assert bi_lambda_valuation(zq3) == 0


@st.composite
def bicyc_pair(draw):
    p, q = draw(
        st.sampled_from([(3, 2), (3, 5), (3, 7), (5, 2), (5, 3), (7, 2), (5, 11), (11, 3)])
    )

    def matrix():
        # each side draws its own size, so magnitudes can differ widely
        bits = draw(st.sampled_from([1, 8, 64, 300, 700]))
        top = 1 << bits
        entry = st.one_of(st.just(0), st.integers(-top, top), st.sampled_from([-top, top]))
        row = st.lists(entry, min_size=q - 1, max_size=q - 1)
        return BiCycInt(p, q, draw(st.lists(row, min_size=p - 1, max_size=p - 1)))

    return matrix(), matrix()


class TestBiCycIntPackedProduct:
    @settings(max_examples=300, deadline=None)
    @given(bicyc_pair())
    def test_equals_schoolbook(self, pair):
        a, b = pair
        assert a * b == schoolbook_bicyc_mul(a, b)

    @pytest.mark.parametrize("p, q", [(3, 2), (3, 5), (7, 2), (5, 11)])
    def test_edge_operands(self, p, q):
        rng = random.Random(p * q)
        def matrix(top):
            rows = [[rng.randint(-top, top) for _ in range(q - 1)] for _ in range(p - 1)]
            return BiCycInt(p, q, rows)

        big, tiny = matrix(1 << 400), matrix(1)
        zero = BiCycInt.from_int(p, q, 0)
        assert big * zero == zero and zero * big == zero
        assert big * tiny == schoolbook_bicyc_mul(big, tiny)
        assert tiny * big == schoolbook_bicyc_mul(tiny, big)
        assert big * big == schoolbook_bicyc_mul(big, big)
        assert big * 1 == big and big * -1 + big == 0


class TestComplexEmbeddingOracle:
    """The embedding zeta -> exp(2 pi i / n) is a ring homomorphism, so
    float evaluation cross-checks the exact reduction kernels through a
    path that shares no code with them."""

    @staticmethod
    def _cyc_value(a):
        import cmath

        z = cmath.exp(2j * cmath.pi / a.p)
        return sum(c * z**i for i, c in enumerate(a.coeffs))

    @staticmethod
    def _bicyc_value(a):
        import cmath

        zp = cmath.exp(2j * cmath.pi / a.p)
        zq = cmath.exp(2j * cmath.pi / a.q)
        return sum(
            c * zp**i * zq**j
            for i, row in enumerate(a.coeffs)
            for j, c in enumerate(row)
        )

    def test_cyc_multiplication(self):
        rng = random.Random(53)
        for p in SMALL_PRIMES:
            for _ in range(20):
                a = random_cyc(rng, p, 12)
                b = random_cyc(rng, p, 12)
                lhs = self._cyc_value(a * b)
                rhs = self._cyc_value(a) * self._cyc_value(b)
                assert abs(lhs - rhs) < 1e-6

    def test_bicyc_multiplication(self):
        rng = random.Random(59)
        for (p, q) in [(3, 7), (5, 3), (3, 2), (5, 7)]:
            for _ in range(10):
                mats = [
                    BiCycInt(
                        p,
                        q,
                        [
                            [rng.randint(-6, 6) for _ in range(q - 1)]
                            for _ in range(p - 1)
                        ],
                    )
                    for _ in range(2)
                ]
                a, b = mats
                lhs = self._bicyc_value(a * b)
                rhs = self._bicyc_value(a) * self._bicyc_value(b)
                assert abs(lhs - rhs) < 1e-6

    def test_galois_permutes_embeddings(self):
        import cmath

        rng = random.Random(61)
        p = 7
        a = random_cyc(rng, p, 9)
        for t in range(1, p):
            z = cmath.exp(2j * cmath.pi * t / p)
            direct = sum(c * z**i for i, c in enumerate(a.coeffs))
            assert abs(self._cyc_value(galois_apply(t, a)) - direct) < 1e-6


class TestSerialization:
    def test_strings_are_decimal(self):
        obj = CycInt(3, (12, -7)).to_json_obj()
        assert obj["coeffs"] == ["12", "-7"]
