import io
from fractions import Fraction

import pytest

from stickelberger.arith import canon_power, is_prime, multiplicative_order, primitive_root
from reference import (
    b_half_check,
    bernoulli_fraction,
    bernoulli_mod,
    bernoulli_mod_p_full_series,
    primitive_roots,
    q_roots_by_horner,
)
from stickelberger.cli import main
from stickelberger.groupring import (
    fp_gr_eval,
    fp_gr_eval_powers,
    polynomial_Q,
    polynomial_Q1_factorization,
)
from stickelberger.regularity import bernoulli_mod_p, q_root_scan

# classical table: irregular primes below 160 with their Bernoulli indices
IRREGULAR_TABLE = {
    37: {32},
    59: {44},
    67: {58},
    101: {68},
    103: {24},
    131: {22},
    149: {130},
    157: {62, 110},
}


class TestBernoulliOracle:
    def test_textbook_values(self):
        known = {
            0: Fraction(1),
            1: Fraction(-1, 2),
            2: Fraction(1, 6),
            4: Fraction(-1, 30),
            6: Fraction(1, 42),
            8: Fraction(-1, 30),
            10: Fraction(5, 66),
            12: Fraction(-691, 2730),
            14: Fraction(7, 6),
            16: Fraction(-3617, 510),
            18: Fraction(43867, 798),
        }
        for k, value in known.items():
            assert bernoulli_fraction(k) == value
        assert all(bernoulli_fraction(k) == 0 for k in (3, 5, 7, 9, 11))

    def test_hand_reduced_examples(self):
        assert bernoulli_mod(2, 5) == 1  # 1/6, and 6 = 1 mod 5
        assert bernoulli_mod_p(7) == {2: 6, 4: 3}
        assert bernoulli_mod(32, 37) == 0  # the classical irregular pair

    def test_rejects_denominator_divisible_by_p(self):
        with pytest.raises(ValueError):
            bernoulli_mod(4, 5)  # 4 = 0 mod p-1
        with pytest.raises(ValueError):
            bernoulli_mod(12, 7)

    def test_irregular_pair_691_12(self):
        # B_12 = -691/2730, and 691 divides B_200 as well
        assert bernoulli_mod(12, 691) == 0
        assert bernoulli_mod_p(691)[12] == 0
        assert q_root_scan(691).irregular_indices == frozenset({12, 200})

    def test_range_is_even_k_up_to_p_minus_3(self):
        table = bernoulli_mod_p(13)
        assert sorted(table) == [2, 4, 6, 8, 10]

    def test_von_staudt_clausen_denominators(self):
        # denominator of B_2k is the product of primes p with p-1 | 2k
        for k in (2, 4, 6, 10, 12):
            denom = bernoulli_fraction(k).denominator
            expected = 1
            for p in range(2, k + 2):
                if is_prime(p) and k % (p - 1) == 0:
                    expected *= p
            assert denom == expected


PRIMES_TO_300 = [p for p in range(3, 301) if is_prime(p)]


@pytest.mark.parametrize("p", PRIMES_TO_300)
def test_series_oracle_matches_fraction_oracle(p):
    assert bernoulli_mod_p(p) == {k: bernoulli_mod(k, p) for k in range(2, p - 2, 2)}


@pytest.mark.parametrize("p", [p for p in range(3, 2000) if is_prime(p)])
def test_half_length_oracle_matches_full_series(p):
    assert bernoulli_mod_p(p) == bernoulli_mod_p_full_series(p)


# the smallest primitive root of every prime to 300, and every primitive
# root of the primes below 60
CHIRP_CASES = [
    (p, v)
    for p in PRIMES_TO_300
    for v in range(2, p)
    if multiplicative_order(v, p) == p - 1 and (p < 60 or v == primitive_root(p))
]


@pytest.mark.parametrize("p,v", CHIRP_CASES)
def test_chirp_values_match_horner(p, v):
    q_poly = polynomial_Q(p, v)
    assert fp_gr_eval_powers(q_poly, v, p) == [
        fp_gr_eval(q_poly, canon_power(v, n, p)) for n in range(p - 1)
    ]


@pytest.mark.parametrize("p", [p for p in range(3, 1000) if is_prime(p)])
def test_scan_roots_match_horner_at_every_exponent(p):
    vd = q_root_scan(p)
    roots = q_roots_by_horner(p, vd.v)
    assert vd.all_roots == roots
    assert vd.odd_roots == frozenset((n - 1) // 2 for n in roots if n % 2)


@pytest.mark.parametrize("p", [p for p in range(3, 2000) if is_prime(p)])
def test_q_values_follow_from_the_q1_factorization(p):
    """Q(x) = Q1(x) (x^h - 1)/(x - 1) with h = (p-1)/2 at every x = v^n,
    n in [1, p-2]: 0 at even n, and -2 Q1(x)/(x - 1) at odd n, where the
    scan reads its odd roots off Q1.  At odd n >= 3 the values meet the
    Bernoulli numbers (Washington, GTM 83, sec. 6.3): (p-n) Q(x) = (x - v)
    B_(p-n) and 2n Q1(x) = (x - 1)(x - v) B_(p-n) mod p, with B_k from the
    full series of tests/reference.py.  Every value from the full chirp
    over the p-1 powers of v."""
    v = primitive_root(p)
    q_poly = polynomial_Q(p, v)
    q1, factored = polynomial_Q1_factorization(q_poly, v)
    assert factored
    q_values = fp_gr_eval_powers(q_poly, v, p)
    q1_values = fp_gr_eval_powers(q1, v, p)
    bernoulli = bernoulli_mod_p_full_series(p)
    for n in range(1, p - 1):
        if n % 2 == 0:
            assert q_values[n] == 0, n
        else:
            x = canon_power(v, n, p)
            assert q_values[n] * (x - 1) % p == -2 * q1_values[n] % p, n
            if n > 1:
                b = bernoulli[p - n]
                assert (p - n) * q_values[n] % p == (x - v) * b % p, n
                assert 2 * n * q1_values[n] % p == (x - 1) * (x - v) * b % p, n


def test_literature_irregular_primes_below_1000():
    buf = io.StringIO()
    assert main(["scan-irregular", "--pmax", "1000"], out=buf) == 0
    lines = buf.getvalue().splitlines()
    assert "# summary scanned=167 irregular=64" in lines
    rows = {line.split("\t")[0]: line.split("\t") for line in lines[3:-2]}
    multi_index = {
        "157": "62,110",
        "491": "292,336,338",
        "617": "20,174,338",
        "647": "236,242,554",
        "691": "12,200",
    }
    for p, indices in multi_index.items():
        _, verdict, odd_roots, irregular, agreement = rows[p]
        assert (verdict, irregular, agreement) == ("irregular", indices, "yes")
        assert len(odd_roots.split(",")) == len(indices.split(","))


class TestScan:
    def test_regular_primes_below_100(self):
        for p in (x for x in range(3, 100) if is_prime(x)):
            vd = q_root_scan(p)
            if p in IRREGULAR_TABLE:
                continue
            assert vd.verdict == "regular"
            assert vd.odd_roots == frozenset()
            assert vd.irregular_indices == frozenset()
            assert vd.agreement

    @pytest.mark.parametrize("p", sorted(IRREGULAR_TABLE))
    def test_irregular_primes_to_160(self, p):
        vd = q_root_scan(p)
        assert vd.verdict == "irregular"
        assert vd.irregular_indices == frozenset(IRREGULAR_TABLE[p])
        assert len(vd.odd_roots) == len(IRREGULAR_TABLE[p])
        assert vd.agreement

    def test_p37_single_root(self):
        vd = q_root_scan(37)
        assert vd.odd_roots == frozenset({2})  # Q(v^5) = 0 for v = 2

    def test_p157_two_roots(self):
        vd = q_root_scan(157)
        assert len(vd.odd_roots) == 2

    def test_p5_frozen(self):
        # hand computation: Q = -s - s^2; the only root in [2, p-2] is the
        # even exponent n = 2 (residue 4); no odd roots
        vd = q_root_scan(5)
        assert vd.odd_roots == frozenset()
        assert vd.all_roots == frozenset({2})

    def test_p3_degenerate(self):
        vd = q_root_scan(3)
        assert vd.all_roots == frozenset()
        assert vd.verdict == "regular"


class TestVIndependence:
    @pytest.mark.parametrize("p", [p for p in range(3, 101) if is_prime(p)])
    def test_scanner_output_stable_across_primitive_roots(self, p):
        """The m-set of odd roots is intrinsic (it indexes sigma-eigenspaces
        consistently under dlog reparametrization); even roots are stable as
        residues; cardinalities match."""
        odd_sets = []
        even_residues = []
        sizes = []
        for v in range(2, p):
            if multiplicative_order(v, p) != p - 1:
                continue
            vd = q_root_scan(p, v)
            odd_sets.append(vd.odd_roots)
            even_residues.append(
                frozenset(
                    canon_power(v, n, p) for n in vd.all_roots if n % 2 == 0
                )
            )
            sizes.append(len(vd.all_roots))
        assert len(set(odd_sets)) == 1
        assert len(set(even_residues)) == 1
        assert len(set(sizes)) == 1


class TestBHalf:
    def test_example_p7(self):
        chk = b_half_check(7)
        assert chk.q_at_minus_one != 0
        assert chk.ok

    def test_p3_trivial(self):
        chk = b_half_check(3)
        assert chk.ok
        assert chk.s1 + chk.s2 == 3

    def test_rejects_p_1_mod_4(self):
        with pytest.raises(ValueError):
            b_half_check(5)
        with pytest.raises(ValueError):
            b_half_check(13)

    @pytest.mark.parametrize("v", [2, 4, 6, 7, 14])
    def test_rejects_a_v_that_is_not_a_primitive_root(self, v):
        with pytest.raises(ValueError, match="is not a primitive root mod 7"):
            b_half_check(7, v)

    @pytest.mark.parametrize("p", [p for p in range(3, 60) if is_prime(p) and p % 4 == 3])
    def test_every_primitive_root_gives_the_parity_sums(self, p):
        for v in primitive_roots(p):
            chk = b_half_check(p, v)
            assert chk.s1 == sum(canon_power(v, -i, p) for i in range(0, p - 1, 2))
            assert chk.s2 == sum(canon_power(v, -i, p) for i in range(1, p - 1, 2))

    @pytest.mark.parametrize(
        "p", [p for p in range(3, 501) if is_prime(p) and p % 4 == 3]
    )
    def test_never_fails_below_500(self, p):
        chk = b_half_check(p)
        assert chk.ok
        assert chk.s1 + chk.s2 == p * (p - 1) // 2
        assert chk.big_v != 0
        assert abs(chk.big_v) < p * (p - 1) // 2

    @pytest.mark.parametrize(
        "p", [p for p in range(7, 200) if is_prime(p) and p % 4 == 3]
    )
    def test_oracle_agrees_B_half_nonzero(self, p):
        # the same nonvanishing fact, checked on the oracle side
        assert bernoulli_mod((p + 1) // 2, p) != 0


def test_irregular_indices_helper():
    assert q_root_scan(37).irregular_indices == frozenset({32})
    assert q_root_scan(13).irregular_indices == frozenset()
