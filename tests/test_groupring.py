import random
from operator import add, sub

import pytest

from reference import (
    inverse_powers_by_term,
    primitive_roots,
    q1_factorization_by_product,
    q_identity_by_product,
    schoolbook_group_ring_mul,
    smallest_prime_with_order,
)
from stickelberger.arith import canon_power, is_prime, multiplicative_order, primitive_root
from stickelberger.groupring import (
    fp_gr_eval,
    fp_gr_eval_powers,
    orbit_sums,
    polynomial_P,
    polynomial_Q,
    polynomial_Q1_factorization,
    polynomial_S2,
    q_identity_holds,
    s2_refold_identity_holds,
    stickelberger_S,
)

PRIMES_TO_500 = [p for p in range(3, 501) if is_prime(p)]
PRIMES_TO_100 = [p for p in PRIMES_TO_500 if p <= 100]
PRIMES_TO_60 = [p for p in PRIMES_TO_500 if p < 60]


class TestStickelbergerS:
    def test_hand_expanded_examples(self):
        assert stickelberger_S(5, 2) == (1, 3, 4, 2)
        assert stickelberger_S(3, 2) == (1, 2)

    @pytest.mark.parametrize("p", PRIMES_TO_500)
    def test_coefficient_sum(self, p):
        v = primitive_root(p)
        assert sum(stickelberger_S(p, v)) == p * (p - 1) // 2

    @pytest.mark.parametrize("p", PRIMES_TO_500)
    def test_equals_P(self, p):
        v = primitive_root(p)
        assert stickelberger_S(p, v) == polynomial_P(p, v)

    def test_rejects_non_primitive_v(self):
        with pytest.raises(ValueError):
            stickelberger_S(7, 2)  # 2 has order 3 mod 7
        with pytest.raises(ValueError):
            polynomial_P(7, 4)


class TestP:
    def test_example(self):
        assert polynomial_P(5, 2) == (1, 3, 4, 2)
        assert polynomial_P(3, 2) == (1, 2)

    @pytest.mark.parametrize("p", PRIMES_TO_100)
    def test_evaluation_at_one(self, p):
        v = primitive_root(p)
        assert sum(polynomial_P(p, v)) == p * (p - 1) // 2

    @pytest.mark.parametrize("p", PRIMES_TO_100)
    def test_value_at_v_is_minus_one(self, p):
        v = primitive_root(p)
        assert fp_gr_eval(polynomial_P(p, v), v) == p - 1

    @pytest.mark.parametrize("p", PRIMES_TO_60)
    def test_every_primitive_root_gives_the_inverse_powers(self, p):
        for v in primitive_roots(p):
            assert list(polynomial_P(p, v)) == inverse_powers_by_term(p, v)

    @pytest.mark.parametrize("p", PRIMES_TO_100)
    def test_rejects_a_v_of_order_half_p_minus_one(self, p):
        # the square of a primitive root has order (p-1)/2: its inverse
        # powers return to 1 only at index (p-1)/2, the latest index at
        # which a v that is not primitive can return
        v = primitive_root(p) ** 2 % p
        with pytest.raises(ValueError, match=f"is not a primitive root mod {p}"):
            polynomial_P(p, v)

    @pytest.mark.parametrize("p", PRIMES_TO_60)
    def test_orbit_sums_add_the_inverse_powers_of_each_coset(self, p):
        for v in primitive_roots(p):
            terms = inverse_powers_by_term(p, v)
            big_p = polynomial_P(p, v)
            for m in (d for d in range(1, p) if (p - 1) % d == 0):
                expected = [sum(terms[i + j * m] for j in range((p - 1) // m)) for i in range(m)]
                assert orbit_sums(big_p, m) == expected


class TestDelta:
    def test_example_p5(self):
        assert list(polynomial_Q(5, 2)) == [0, -1, -1, 0]

    @pytest.mark.parametrize("p", PRIMES_TO_500)
    def test_bounds_and_delta0(self, p):
        v = primitive_root(p)
        deltas = list(polynomial_Q(p, v))
        assert deltas[0] == 0
        assert all(-p < d <= 0 for d in deltas)

    @pytest.mark.parametrize("p", PRIMES_TO_500)
    def test_floor_form_cross_check(self, p):
        # independent formula: delta_i = -floor(v^(-i) * v / p)
        v = primitive_root(p)
        from stickelberger.arith import canon_power

        floors = [-((canon_power(v, -i, p) * v) // p) for i in range(p - 1)]
        assert list(polynomial_Q(p, v)) == floors


class TestQ:
    def test_example_p5(self):
        assert polynomial_Q(5, 2) == (0, -1, -1, 0)
        # (1 + 3s + 4s^2 + 2s^3)(s - 2) = -5s - 5s^2 with s^4 = 1
        shift = (-2, 1, 0, 0)  # sigma - 2
        assert schoolbook_group_ring_mul(polynomial_P(5, 2), shift) == (0, -5, -5, 0)

    def test_example_p3(self):
        assert polynomial_Q(3, 2) == (0, -1)

    @pytest.mark.parametrize("p", PRIMES_TO_500)
    def test_identity_exact(self, p):
        v = primitive_root(p)
        assert q_identity_holds(polynomial_P(p, v), polynomial_Q(p, v), v)

    def test_identity_fails_on_a_wrong_Q(self):
        wrong_q = tuple(map(add, polynomial_Q(5, 2), (0, 0, 0, 1)))
        assert not q_identity_holds(polynomial_P(5, 2), wrong_q, 2)

    @pytest.mark.parametrize("p", PRIMES_TO_100)
    def test_value_at_one(self, p):
        v = primitive_root(p)
        assert sum(polynomial_Q(p, v)) == (1 - v) * (p - 1) // 2

    def test_eval_examples(self):
        q5 = polynomial_Q(5, 2)
        assert fp_gr_eval(q5, 1) == 3
        assert fp_gr_eval(q5, 0) == q5[0] % 5
        assert fp_gr_eval(polynomial_P(5, 2), 0) == 1


class TestQ1:
    def test_example_p5(self):
        q1, ok = polynomial_Q1_factorization(polynomial_Q(5, 2), 2)
        assert ok
        assert q1 == (0, -1, 0, 0)  # Q1 = -sigma

    def test_example_p3(self):
        q1, ok = polynomial_Q1_factorization(polynomial_Q(3, 2), 2)
        assert ok
        assert q1 == (0, -1)

    @pytest.mark.parametrize("p", PRIMES_TO_500)
    def test_factorization_holds(self, p):
        v = primitive_root(p)
        _, ok = polynomial_Q1_factorization(polynomial_Q(p, v), v)
        assert ok

    @pytest.mark.parametrize("p", PRIMES_TO_500)
    def test_delta_pairing(self, p):
        v = primitive_root(p)
        deltas = list(polynomial_Q(p, v))
        half = (p - 1) // 2
        for i in range(half):
            assert deltas[i + half] == 1 - v - deltas[i]


class TestCyclicChirp:
    """fp_gr_eval_powers(g, u, p) with u of order n = len(g): the chirp
    wraps around with the sign eps = u^C(n,2), +1 for odd n and -1 for
    even n."""

    def test_every_divisor_for_p_below_200(self):
        rng = random.Random(27)
        signs = set()
        for p in (x for x in range(3, 200) if is_prime(x)):
            v = primitive_root(p)
            for n in (d for d in range(1, p) if (p - 1) % d == 0):
                u = canon_power(v, (p - 1) // n, p)
                g = tuple(rng.randrange(-p + 1, p) for _ in range(n))
                assert fp_gr_eval_powers(g, u, p) == [
                    sum(c * pow(u, i * k, p) for i, c in enumerate(g)) % p
                    for k in range(n)
                ], (p, n)
                eps = pow(u, n * (n - 1) // 2, p)
                signs.add((n % 2, 1 if eps == 1 else eps - p))
        assert signs == {(1, 1), (0, -1)}

    @pytest.mark.parametrize(
        "g, u, p", [((1, 2, 3), 3, 7), ((5,), 2, 7), ((1, 1), 0, 5), ((1, 1), 2, 5)]
    )
    def test_refuses_a_u_of_another_order(self, g, u, p):
        with pytest.raises(ValueError, match="is not 1 mod"):
            fp_gr_eval_powers(g, u, p)


class TestChecksAgainstProducts:
    """The coefficient checks against the ring products they replace."""

    @pytest.mark.parametrize("p", PRIMES_TO_500)
    def test_agree_for_two_primitive_roots(self, p):
        roots = {primitive_root(p), max(primitive_roots(p))}  # one root at p = 3
        for v in roots:
            big_p, q = polynomial_P(p, v), polynomial_Q(p, v)
            assert q_identity_holds(big_p, q, v) is q_identity_by_product(big_p, q, v) is True
            q1, ok = polynomial_Q1_factorization(q, v)
            assert (q1, ok) == q1_factorization_by_product(q, v) and ok is True

    @pytest.mark.parametrize("p", [p for p in PRIMES_TO_500 if p <= 31])
    def test_agree_on_every_one_coefficient_change_of_Q(self, p):
        v = primitive_root(p)
        big_p, q = polynomial_P(p, v), polynomial_Q(p, v)
        for i in range(p - 1):
            for change in (1, -1, p, -p):
                coeffs = list(q)
                coeffs[i] += change
                wrong_q = tuple(coeffs)
                verdict = q_identity_holds(big_p, wrong_q, v)
                assert verdict is q_identity_by_product(big_p, wrong_q, v) is False
                q1, ok = polynomial_Q1_factorization(wrong_q, v)
                assert (q1, ok) == q1_factorization_by_product(wrong_q, v) and ok is False


class TestS2:
    def test_examples(self):
        assert polynomial_S2(polynomial_P(7, 3), 2) == (1, 2)
        assert polynomial_S2(polynomial_P(5, 2), 3) == (2,)

    def test_rejects_split_q(self):
        with pytest.raises(ValueError):
            polynomial_S2(polynomial_P(5, 2), 11)

    @pytest.mark.parametrize("v", [2, 4, 6, 7, 14])
    def test_rejects_a_v_that_is_not_a_primitive_root(self, v):
        # mod 7: 2 and 4 have order 3, 6 has order 2, 7 and 14 are 0
        with pytest.raises(ValueError, match="is not a primitive root mod 7"):
            polynomial_S2(polynomial_P(7, v), 2)

    @pytest.mark.parametrize("p", PRIMES_TO_60)
    def test_every_primitive_root_and_inert_q_below_200(self, p):
        # reference: coefficient i is sum_j v^(-(i+jm)) / p, term by term
        for q in (q for q in range(2, 200) if is_prime(q) and q != p):
            f = multiplicative_order(q, p)
            if f == 1:
                continue
            m = (p - 1) // f
            for v in primitive_roots(p):
                blocks = [sum(canon_power(v, -(i + j * m), p) for j in range(f)) for i in range(m)]
                assert all(block % p == 0 for block in blocks)
                expected = [block // p for block in blocks]
                assert list(polynomial_S2(polynomial_P(p, v), q)) == expected

    @pytest.mark.parametrize("p", [p for p in PRIMES_TO_500 if p <= 200])
    def test_integral_and_refolds(self, p):
        # three smallest q per f-class is covered by the acceptance suite;
        # here: every divisor class once
        v = primitive_root(p)
        s, big_p = stickelberger_S(p, v), polynomial_P(p, v)
        for f in sorted(
            {d for d in range(2, p) if (p - 1) % d == 0}
        ):
            q = smallest_prime_with_order(p, f)
            s2 = polynomial_S2(big_p, q)
            assert s2_refold_identity_holds(s, s2)
            assert p * sum(s2) == p * (p - 1) // 2

    def test_refold_fails_on_a_wrong_S2(self):
        s2 = polynomial_S2(polynomial_P(7, 3), 2)
        s = stickelberger_S(7, 3)
        assert s2_refold_identity_holds(s, s2)
        assert not s2_refold_identity_holds(s, tuple(map(add, s2, (1, 0))))

    @pytest.mark.parametrize("p", [p for p in PRIMES_TO_500 if p <= 200])
    def test_three_smallest_q_per_class(self, p):
        v = primitive_root(p)
        s, big_p = stickelberger_S(p, v), polynomial_P(p, v)

        for f in {d for d in range(2, p) if (p - 1) % d == 0}:
            found = 0
            q = 2
            while found < 3 and q < 10_000:
                if q != p and is_prime(q) and multiplicative_order(q, p) == f:
                    assert s2_refold_identity_holds(s, polynomial_S2(big_p, q))
                    found += 1
                q += 1
            assert found == 3


def polynomial_T_reduced(p, v):
    """T = v^(-(p-2)) * prod_{k != 1} (sigma - v^k), expanded exactly in
    Z[x] and folded mod x^(p-1) - 1: a route to P mod p that shares no code
    with polynomial_P.  Coefficients grow like v^(p^2/2)."""
    n = p - 1
    coeffs = [0] * n
    coeffs[0] = canon_power(v, -(p - 2), p)
    for k in range(p - 1):
        if k == 1:
            continue
        root = canon_power(v, k, p)
        shifted = [0] * n
        for i, c in enumerate(coeffs):
            if c:
                shifted[(i + 1) % n] += c
                shifted[i] -= root * c
        coeffs = shifted
    return tuple(coeffs)


class TestTandR:
    @pytest.mark.parametrize("p", [p for p in PRIMES_TO_500 if p <= 60])
    def test_P_minus_T_divisible_by_p_with_low_degree(self, p):
        v = primitive_root(p)
        t_elt = polynomial_T_reduced(p, v)
        difference = list(map(sub, polynomial_P(p, v), t_elt))
        assert all(c % p == 0 for c in difference)  # p | P - T
        r_elt = [c // p for c in difference]
        assert polynomial_P(p, v) == tuple(t + r * p for t, r in zip(t_elt, r_elt))
        assert r_elt[p - 2] == 0


class TestGroupRingBasics:
    def test_sigma_exponent_folding(self):
        s = (0, 0, 0, 1)  # sigma^3
        assert schoolbook_group_ring_mul(s, s) == (0, 0, 1, 0)  # sigma^6 = sigma^2
        assert schoolbook_group_ring_mul(s, (0, 1, 0, 0)) == (1, 0, 0, 0)
