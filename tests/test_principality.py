import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import islice, product
from pathlib import Path
from time import perf_counter

import pytest

from stickelberger import cli, groupring, principality
from stickelberger.arith import (
    MILLER_RABIN_DETERMINISTIC_BOUND,
    VerificationError,
    canon_power,
    is_prime,
    multiplicative_order,
    primitive_root,
)
from reference import (
    class_number,
    conjugate_product_norm,
    graded_lex_shell,
    primitive_roots,
    probe_sweep,
    probe_witnesses,
    sigma_values_by_loop,
    smallest_prime_with_order,
)
from stickelberger.cyclotomic import (
    CycInt,
    lambda_element,
    norm,
    shift_norms,
)
from stickelberger.groupring import fp_gr_eval_powers, polynomial_P, polynomial_S2
from stickelberger.principality import (
    _norm_verdict,
    _shell_sums,
    _sweep_values,
    half_degree_corollary,
    principal_norm_probe,
    principality_test,
)
from stickelberger.regularity import bernoulli_mod_p

PRIMES = [p for p in range(3, 101) if is_prime(p)]


class TestPrincipalityTest:
    def test_example_p7_q2(self):
        report = principality_test(7, 2)
        assert report.f == 3 and report.m == 2
        assert report.s2_coeffs == (1, 2)
        # l = 1: 1 + 2 * v^3 = 1 + 2*6 = 13 = 6 mod 7
        assert report.sigma_values == {1: 6}
        assert report.full_orbit_sum_ok
        assert report.certificate == "p-principal"

    def test_example_p11_q3(self):
        report = principality_test(11, 3)
        assert report.f == 5 and report.m == 2
        assert list(report.sigma_values) == [1]

    def test_chirp_values_equal_the_loop(self):
        pairs = 0
        for p in (x for x in range(3, 128) if is_prime(x)):
            for q in (x for x in range(2, 400) if is_prime(x) and x != p):
                if multiplicative_order(q, p) > 1:
                    r = principality_test(p, q)
                    assert r.sigma_values == sigma_values_by_loop(p, r.f, r.v, r.s2_coeffs)
                    pairs += 1
        assert pairs == 2205

    def test_rejections(self):
        with pytest.raises(ValueError):
            principality_test(7, 4)  # not prime
        with pytest.raises(ValueError):
            principality_test(5, 11)  # f = 1
        with pytest.raises(ValueError):
            principality_test(7, 7)

    @pytest.mark.parametrize("p", PRIMES)
    def test_full_orbit_identity(self, p):
        for q in (x for x in range(2, 200) if is_prime(x) and x != p):
            if multiplicative_order(q, p) > 1:
                report = principality_test(p, q)
                assert report.full_orbit_sum_ok

    @pytest.mark.parametrize("p", [p for p in PRIMES if p <= 60])
    def test_certificate_stable_across_primitive_roots(self, p):
        for q in (2, 3, 5, 7):
            if q == p or multiplicative_order(q, p) == 1:
                continue
            certs = set()
            zero_counts = set()
            for v in range(2, p):
                if multiplicative_order(v, p) != p - 1:
                    continue
                report = principality_test(p, q, v)
                certs.add(report.certificate)
                zero_counts.add(
                    sum(1 for val in report.sigma_values.values() if val == 0)
                )
            assert len(certs) == 1, (p, q, certs)
            assert len(zero_counts) == 1


class TestBatteryAgainstTheOracle:
    """Each sigma_l against the Bernoulli oracle: 0 when l*f is even, and
    B_k / k mod p with k = p - l*f when l*f is odd (Kummer's congruence
    B_(1,omega^(k-1)) = B_k / k; Washington, GTM 83, ch. 5)."""

    def test_every_divisor_for_p_below_500(self):
        counts = Counter()
        for p in (x for x in range(5, 500) if is_prime(x)):
            bernoulli = bernoulli_mod_p(p)
            for f in (d for d in range(2, p) if (p - 1) % d == 0):
                report = principality_test(p, smallest_prime_with_order(p, f))
                for l, value in report.sigma_values.items():
                    if l * f % 2 == 0:
                        assert value == 0, (p, f, l)
                        counts["zero"] += 1
                    else:
                        k = p - l * f
                        assert value == bernoulli[k] * pow(k, -1, p) % p, (p, f, l)
                        counts["bernoulli"] += 1
                # sigma_2 = 0 for every m >= 3; an empty battery at m = 1; at
                # m = 2, sigma_1 = B_k / k with k = (p+1)/2 when f is odd
                if report.m == 1:
                    certified = True
                elif report.m == 2:
                    certified = p % 4 == 3 and bernoulli[(p + 1) // 2] != 0
                else:
                    certified = False
                assert (report.certificate == "p-principal") is certified, (p, f)
                counts["pairs"] += 1
        assert counts == {"pairs": 798, "zero": 20883, "bernoulli": 3311}


class TestChirpOverTheOrbits:
    """S2 has m = (p-1)/f coefficients, and the battery's chirp runs over
    those m points, not over p-1."""

    def test_every_divisor_for_p_below_200(self):
        pairs = 0
        for p in (x for x in range(3, 200) if is_prime(x)):
            v = primitive_root(p)
            big_p = polynomial_P(p, v)
            for f in (d for d in range(2, p) if (p - 1) % d == 0):
                s2 = polynomial_S2(big_p, smallest_prime_with_order(p, f))
                assert len(s2) == (p - 1) // f
                u = canon_power(v, f, p)
                assert fp_gr_eval_powers(s2, u, p) == [
                    sum(c * pow(u, i * l, p) for i, c in enumerate(s2)) % p
                    for l in range(len(s2))
                ], (p, f)
                pairs += 1
        assert pairs == 308

    @pytest.mark.parametrize("p, q", [(7, 2), (7, 13), (11, 3), (13, 2), (31, 2), (101, 3)])
    def test_battery_multiplies_m_and_2m_minus_1_entries(self, monkeypatch, p, q):
        """The chirp is cyclic (u = v^f has order m), so its one product is
        m by m entries; before, it was m by 2m-1, as the name records."""
        sizes = []
        real = groupring.packed_mul

        def recorded(a, b, *args):
            sizes.append((len(a), len(b)))
            return real(a, b, *args)

        monkeypatch.setattr(groupring, "packed_mul", recorded)
        m = principality_test(p, q).m
        assert m == (p - 1) // multiplicative_order(q, p)
        assert sizes == [(m, m)]


class TestHalfDegree:
    def test_example_p7(self):
        verdict = half_degree_corollary(7)
        assert verdict.sigma == -1
        assert verdict.verdict

    def test_example_p11(self):
        assert half_degree_corollary(11).verdict

    def test_rejections(self):
        with pytest.raises(ValueError):
            half_degree_corollary(5)
        with pytest.raises(ValueError):
            half_degree_corollary(3)  # f = 1 hypothesis violation

    @pytest.mark.parametrize(
        "p", [p for p in range(7, 501) if is_prime(p) and p % 4 == 3]
    )
    def test_nonzero_below_500(self, p):
        assert half_degree_corollary(p).verdict

    @pytest.mark.parametrize(
        "p", [p for p in range(7, 500) if is_prime(p) and p % 4 == 3]
    )
    def test_sigma_is_the_bernoulli_quotient(self, p):
        # Kummer's congruence gives sigma = B_k / k mod p with k = (p+1)/2,
        # so the orbit sums and the series oracle must agree
        k = (p + 1) // 2
        expected = bernoulli_mod_p(p)[k] * pow(k, -1, p) % p
        assert half_degree_corollary(p).sigma_mod_p == expected

    def test_sigma_is_minus_the_class_number(self):
        # Dirichlet's class number formula for p = 3 (mod 4), p > 3: sigma,
        # (the residues less the non-residues)/p, is -h(-p), counted here
        # by reduced forms; 0 < h(-p) < p is why sigma is nonzero mod p
        assert [class_number(-p) for p in (23, 47, 71)] == [3, 5, 7]
        for p in range(7, 2000):
            if is_prime(p) and p % 4 == 3:
                h = class_number(-p)
                assert half_degree_corollary(p).sigma == -h
                assert 0 < h < p

    @pytest.mark.parametrize("p", [p for p in range(7, 60) if is_prime(p) and p % 4 == 3])
    def test_every_primitive_root_gives_the_orbit_sums(self, p):
        half = (p - 1) // 2
        for v in primitive_roots(p):
            even_orbit = sum(canon_power(v, -2 * j, p) for j in range(half))
            odd_orbit = sum(canon_power(v, -(1 + 2 * j), p) for j in range(half))
            verdict = half_degree_corollary(p, v)
            assert verdict.v == v
            assert verdict.sigma == even_orbit // p - odd_orbit // p

    @pytest.mark.parametrize("v", [2, 4, 6, 7, 14])
    def test_rejects_a_v_that_is_not_a_primitive_root(self, v):
        with pytest.raises(ValueError, match="is not a primitive root mod 7"):
            half_degree_corollary(7, v)


class TestNormProbe:
    def test_p3_first_witness_frozen(self):
        report = principal_norm_probe(3, search_bound=60)
        assert report.candidates_tested == 50  # the whole [-2,2]^2 box
        first = report.witnesses[0]
        # q1 = 2 + lambda^4 * (-1) = 11 + 9 zeta has norm 103, a prime
        assert (first.a, first.x_coeffs, first.norm_q) == (2, (-1, 0), 103)
        assert pow(3, 34, 103) == 1

    def test_degenerate_rational_candidates_skipped(self):
        # x = 0: norms a^(p-1) are 1 or perfect powers, never prime
        report = principal_norm_probe(3, search_bound=2)
        assert report.candidates_tested == 2
        assert report.witnesses == []
        assert report.status == "no candidates"

    @pytest.mark.parametrize("p", [3, 5])
    def test_no_counterexamples_within_bound(self, p):
        report = principal_norm_probe(p, search_bound=10_000)
        assert report.witnesses, "expected at least one prime-norm witness"
        assert report.counterexamples == []
        assert all(w.passes for w in report.witnesses)

    def test_witness_norms_are_split_primes(self):
        report = principal_norm_probe(5, search_bound=3000)
        for w in report.witnesses:
            assert is_prime(w.norm_q)
            assert w.norm_q % 5 == 1

    def test_witness_values_recompute(self):
        report = principal_norm_probe(3, search_bound=200)
        lam4 = lambda_element(3) ** 4
        for w in report.witnesses[:5]:
            q1 = lam4 * CycInt(3, w.x_coeffs) + w.a
            assert norm(q1) == w.norm_q

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            principal_norm_probe(4)

    @pytest.mark.parametrize("p, search_bound, used", [(11, 2000, False), (13, 300, True)])
    def test_probabilistic_primality_flag(self, p, search_bound, used):
        # the prime norms have 59-78 bits at p = 11, and some reach
        # psi_13 (about 2^81.4) at p = 13
        report = principal_norm_probe(p, search_bound)
        assert report.probabilistic_primality_used is used
        assert used == any(
            w.norm_q >= MILLER_RABIN_DETERMINISTIC_BOUND for w in report.witnesses
        )


class TestProbeNormsAgainstConjugateProducts:
    """The probe's shared evaluation of lambda^(p+1) * x against the
    conjugate-product norm of every candidate a + lambda^(p+1) * x."""

    @pytest.mark.parametrize(
        "p, search_bound", [(3, 50), (5, 3000), (7, 2000), (11, 2000)]
    )
    def test_translate_norms_on_every_x_of_the_sweep(self, p, search_bound):
        shift = lambda_element(p) ** (p + 1)
        candidates = list(probe_sweep(p, search_bound))
        for start in range(0, len(candidates), p - 1):
            a, x_vec, _ = candidates[start]
            assert a == 1
            base = shift * CycInt(p, x_vec)
            expected = [conjugate_product_norm(base + s) for s in range(1, p)]
            assert [norm(base + s) for s in range(1, p)] == expected

    @pytest.mark.parametrize("coeff_bound", [1, 2, 3])
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_shell_values_give_the_norms_of_the_explicit_base(self, p, coeff_bound):
        # the rows are evaluated once per L1 shell, at a modulus sized for
        # the shell; each x must still give the norms of its own base.
        # b(1) is 0 only mod p: the sweep passes 0, the coefficient sum of
        # the base is a nonzero multiple of p for most x
        shift = lambda_element(p) ** (p + 1)
        items = list(islice(_sweep_values(p, coeff_bound), 700))
        shells = set()
        for x, _, at_one, _ in items:
            shells.add(sum(map(abs, x)))
            assert at_one == 0
            assert sum((shift * CycInt(p, x)).coeffs) % p == 0
        expected = [
            (x, s, norm(shift * CycInt(p, x) + s)) for x, *_ in items for s in range(1, p)
        ]
        assert list(shift_norms(p, items, range(1, p))) == expected
        assert len(shells) >= 3

    @pytest.mark.parametrize("p, search_bound", [(5, 3000), (7, 2000)])
    def test_witnesses_match_reference_sweep(self, p, search_bound):
        report = principal_norm_probe(p, search_bound)
        found = [(w.a, w.x_coeffs, w.norm_q, w.residue) for w in report.witnesses]
        assert found == probe_witnesses(p, search_bound)
        assert report.witnesses

    def test_sweep_cut_inside_an_x_counts_exactly_the_bound(self, monkeypatch):
        # the cut falls inside the 334th x: no norm past the bound is made
        drawn, made = [], []
        real = principality.shift_norms

        def counting(p, items, shifts):
            def drawing():
                for item in items:
                    drawn.append(item[0])
                    yield item

            for candidate in real(p, drawing(), shifts):
                made.append(candidate)
                yield candidate

        monkeypatch.setattr(principality, "shift_norms", counting)
        report = principal_norm_probe(7, 2003)
        assert report.candidates_tested == len(made) == 2003
        assert len(drawn) == 334
        assert [a for _, a, _ in made] == [1, 2, 3, 4, 5, 6] * 333 + [1, 2, 3, 4, 5]
        found = [(w.a, w.x_coeffs, w.norm_q, w.residue) for w in report.witnesses]
        assert found == probe_witnesses(7, 2003)


class TestNormFacts:
    """What the stream may take from the design rather than the data: every
    norm from Q(zeta_p) of a nonzero element is positive, and below half the
    modulus, so its residue is the norm; b(1) = 0 (mod p) for the whole
    sweep; and a prime norm must split."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_every_norm_of_the_sweep_start_is_positive(self, p):
        items = list(islice(_sweep_values(p, 2), 5000))
        moduli = {x: modulus for x, _, _, modulus in items}
        norms = list(shift_norms(p, items, range(1, p)))
        assert len(norms) == len(items) * (p - 1)
        assert all(0 < n and 2 * n < moduli[x] for x, _, n in norms)

    def test_a_prime_norm_that_does_not_split_is_refused(self):
        with pytest.raises(VerificationError, match="prime norm 11 is not 1 mod 7"):
            _norm_verdict(7, 11)
        assert _norm_verdict(7, 29) == pow(7, 4, 29)
        assert _norm_verdict(7, 15) is None

    @pytest.mark.parametrize("p, bound", [(3, 60), (7, 3000)])
    def test_wrong_lambda_fails_the_norm_check(self, monkeypatch, capsys, p, bound):
        # with zeta - 2 for lambda, b(1) = x(1) is not 0 mod p, so a norm
        # of the sweep fails the mod-p check and no report is printed
        monkeypatch.setattr(principality, "lambda_element", lambda p: CycInt.zeta(p) - 2)
        out = io.StringIO()
        code = cli.main(["principality", "probe", "-p", str(p), "--bound", str(bound)], out)
        err = capsys.readouterr().err
        assert code == 1 and out.getvalue() == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: verification failed: norm ")

    @pytest.mark.parametrize("p, bound", [(3, 60), (7, 3000)])
    def test_wrong_lambda_fails_under_optimized_mode(self, p, bound):
        script = (
            "import sys, stickelberger.principality as pr, stickelberger.cli as c\n"
            "from stickelberger.cyclotomic import CycInt\n"
            "assert False, 'asserts must be stripped'\n"
            "pr.lambda_element = lambda p: CycInt.zeta(p) - 2\n"
            f"sys.exit(c.main(['principality', 'probe', '-p', '{p}', '--bound', '{bound}']))\n"
        )
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src")),
            timeout=120,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error: verification failed: norm ")


class TestNormVerdicts:
    """One primality verdict per distinct norm of the sweep."""

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_conjugate_partner_has_the_same_norm(self, p):
        # conj(lambda)^(p+1) = zeta^(-1) * lambda^(p+1), so complex
        # conjugation maps a + lambda^(p+1) x to a + lambda^(p+1) zeta^(-1) conj(x)
        rng = random.Random(p)
        shift = lambda_element(p) ** (p + 1)
        for _ in range(10):
            x = CycInt(p, [rng.randint(-3, 3) for _ in range(p - 1)])
            a = rng.randint(1, p - 1)
            q1 = shift * x + a
            partner = shift * CycInt.zeta(p, -1) * x.conj() + a
            assert q1.conj() == partner
            assert norm(q1) == norm(partner)

    def test_one_primality_test_per_distinct_norm(self, monkeypatch):
        calls = Counter()
        real = principality.is_prime

        def counted(n):
            calls[n] += 1
            return real(n)

        monkeypatch.setattr(principality, "is_prime", counted)
        report = principal_norm_probe(7, 30000)
        assert report.candidates_tested == 30000
        assert calls.pop(7) == 1  # the check that p is prime
        # 22378 distinct norms among 30000 candidates, each tested once
        assert len(calls) == 22378
        assert set(calls.values()) == {1}


def _repeated_composite_norm(p, search_bound):
    """The first composite norm that two candidates of the sweep share
    and that fails the power test, with those candidates as (a, x)."""
    holders = {}
    for a, x_vec, q1 in probe_sweep(p, search_bound):
        holders.setdefault(norm(q1), []).append((a, x_vec))
    return next(
        (n, found)
        for n, found in holders.items()
        if len(found) == 2 and not is_prime(n) and pow(p, (n - 1) // p, n) != 1
    )


class TestRepeatedNormSabotage:
    """A composite norm that passes as prime must fail the power test at
    every candidate that has it, not only at the first."""

    def test_both_candidates_are_counterexamples(self, monkeypatch):
        n, found = _repeated_composite_norm(7, 300)
        real = principality.is_prime
        monkeypatch.setattr(principality, "is_prime", lambda m: m == n or real(m))
        report = principal_norm_probe(7, 300)
        bad = [(w.a, w.x_coeffs) for w in report.counterexamples]
        assert bad == found
        assert all(w.norm_q == n and not w.passes for w in report.counterexamples)

    def test_cli_exits_1_under_optimized_mode(self):
        n, found = _repeated_composite_norm(7, 300)
        script = (
            "import sys, stickelberger.principality as pr, stickelberger.cli as c\n"
            "assert False, 'asserts must be stripped'\n"
            "real = pr.is_prime\n"
            f"pr.is_prime = lambda m: m == {n} or real(m)\n"
            "sys.exit(c.main(['principality', 'probe', '-p', '7', '--bound', '300']))\n"
        )
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src")),
            timeout=120,
        )
        assert done.returncode == 1 and done.stderr == ""
        bad = json.loads(done.stdout)["counterexamples"]
        assert [(w["a"], tuple(w["x_coeffs"])) for w in bad] == found
        assert all(w["q"] == str(n) and not w["passes"] for w in bad)


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_graded_lex_order_matches_sorted_box(length, bound):
    box = product(range(-bound, bound + 1), repeat=length)
    expected = sorted(box, key=lambda t: (sum(map(abs, t)), t))
    # empty value lists: only the order of the x is under test here
    multiples = [{c: [] for c in range(-bound, bound + 1) if c}] * length
    shells = [
        [x for x, _ in _shell_sums(multiples, total, bound, (), [])]
        for total in range(length * bound + 1)
    ]
    assert [x for shell in shells for x in shell] == expected
    assert shells == [graded_lex_shell(length, total, bound) for total in range(length * bound + 1)]


def test_sweep_start_does_not_grow_with_the_bound():
    # the first 2000 x have L1 norm at most 5, so any bound >= 5 gives the
    # same items; a shell or a table of multiples sized by the bound alone
    # would not finish at 10^12
    start = perf_counter()
    huge = list(islice(_sweep_values(7, 10**12), 2000))
    assert perf_counter() - start < 10
    assert huge == list(islice(_sweep_values(7, 50), 2000))
    assert max(sum(map(abs, x)) for x, *_ in huge) == 5


def test_probe_p13_stops_at_its_bound():
    # the whole box would be 5^12 = 244,140,625 vectors
    done = subprocess.run(
        [sys.executable, "-m", "stickelberger.cli", "principality", "probe",
         "-p", "13", "--bound", "200"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src")),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert '"candidates_tested": 200' in done.stdout
