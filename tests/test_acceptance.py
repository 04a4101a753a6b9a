"""Acceptance gate: one test per criterion, one printed verdict line each.

Every tolerance is zero; these are exact integer identities and exact
valuations.  Run with `pytest tests/test_acceptance.py -s` to see the
verdict lines as they happen.
"""

import io

import pytest

from reference import b_half_check, smallest_prime_with_order
from stickelberger.arith import is_prime, primitive_root
from stickelberger.cli import main
from stickelberger.gauss import build_record
from stickelberger.groupring import (
    polynomial_P,
    polynomial_Q,
    polynomial_Q1_factorization,
    polynomial_S2,
    q_identity_holds,
    s2_refold_identity_holds,
    stickelberger_S,
)
from stickelberger.principality import (
    half_degree_corollary,
    principal_norm_probe,
    principality_test,
)
from stickelberger.regularity import q_root_scan

PRIMES_500 = [p for p in range(3, 501) if is_prime(p)]
SPLIT_PAIRS = [(3, 7), (3, 13), (5, 11), (5, 31), (7, 29), (11, 23)]
INERT_PAIRS = [(5, 3), (7, 2), (11, 3), (5, 7)]


def _verdict(number, description, ok):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_stickelberger_identity_suite():
    ok = True
    for p in PRIMES_500:
        v = primitive_root(p)
        big_p, q_elt = polynomial_P(p, v), polynomial_Q(p, v)
        deltas = list(q_elt)
        _, q1_ok = polynomial_Q1_factorization(q_elt, v)
        ok = (
            ok
            and stickelberger_S(p, v) == big_p
            and q_identity_holds(big_p, q_elt, v)
            and deltas[0] == 0
            and all(-p < d <= 0 for d in deltas)
            and q1_ok
        )
        if not ok:
            break
    _verdict(1, "S=P, P(sigma-v)=pQ, delta bounds, Q=Q1*ladder for p<=500", ok)


def test_criterion_2_gauss_sum_suite():
    ok = True
    for pair in SPLIT_PAIRS:
        record = build_record(*pair)
        ok = ok and record.ok and record.f == 1
        ok = ok and record.g * record.g.conj() == record.q
        ok = ok and record.checks["zeta_q0_slice_zero"]
        ok = ok and record.checks["g_congruent_minus_one_mod_pi"]
        ok = ok and record.checks["stickelberger_profile_unique_relabel"]
        ok = ok and sorted(record.valuation_profile.values()) == list(range(1, record.p))
    for pair in INERT_PAIRS:
        record = build_record(*pair)
        ok = ok and record.ok and record.f > 1
        ok = ok and record.g * record.g.conj() == record.q ** record.f
        ok = ok and record.checks["g_in_zeta_p"]
    _verdict(2, "Gauss-sum suite over 6 split + 4 inert pairs, exact", ok)


def test_criterion_3_pi_adic_sharpness():
    ok = True
    found_power_residue_case = False
    for (p, q) in SPLIT_PAIRS:
        record = build_record(p, q)
        if pow(p, (q - 1) // p, q) != 1:
            ok = ok and record.flags["v_G_plus_1"] == p
        else:
            found_power_residue_case = True
            ok = ok and record.flags["v_G_plus_1"] >= p + 1
    # search an extra pair with p^((q-1)/p) = 1 mod q, per protocol
    p = 3
    q = next(
        c for c in range(5, 10_000)
        if is_prime(c) and c % p == 1 and pow(p, (c - 1) // p, c) == 1
    )
    record = build_record(p, q)
    ok = ok and record.flags["v_G_plus_1"] >= p + 1
    found_power_residue_case = True
    _verdict(
        3,
        f"v(g^p+1) = p exactly on non-residue pairs; >= p+1 on residue pairs "
        f"(searched q={q})",
        ok and found_power_residue_case,
    )


def test_criterion_4_regularity_cross_check():
    ok = True
    for p in (x for x in range(3, 100) if is_prime(x)):
        vd = q_root_scan(p)
        if p in (37, 59, 67):
            ok = ok and len(vd.odd_roots) == 1 and len(vd.irregular_indices) == 1
        else:
            ok = ok and vd.odd_roots == frozenset() and vd.irregular_indices == frozenset()
    for p in (x for x in range(100, 161) if is_prime(x)):
        vd = q_root_scan(p)
        ok = ok and vd.agreement
        if p == 157:
            ok = ok and len(vd.odd_roots) == 2 and len(vd.irregular_indices) == 2
    _verdict(4, "scanner vs Bernoulli oracle for p<100, extended to p<=160", ok)


def test_criterion_5_b_half_nonvanishing():
    ok = True
    for p in PRIMES_500:
        if p % 4 != 3:
            continue
        chk = b_half_check(p)
        ok = (
            ok
            and chk.ok
            and chk.q_at_minus_one != 0
            and chk.s1 + chk.s2 == p * (p - 1) // 2
            and chk.big_v != 0
        )
    _verdict(5, "Q(v^((p-1)/2)) nonzero and proof identities, p=3 mod 4, p<=500", ok)


def test_criterion_6_section5_suite():
    ok = True
    for p in (x for x in PRIMES_500 if x <= 200):
        v = primitive_root(p)
        s, big_p = stickelberger_S(p, v), polynomial_P(p, v)
        for f in sorted(d for d in range(2, p) if (p - 1) % d == 0):
            q = smallest_prime_with_order(p, f)
            s2 = polynomial_S2(big_p, q)  # integrality asserted inside
            ok = ok and s2_refold_identity_holds(s, s2)
    for p in PRIMES_500:
        if p % 4 == 3 and p > 3:
            ok = ok and half_degree_corollary(p).verdict
    report = principality_test(7, 2)
    ok = (
        ok
        and report.s2_coeffs == (1, 2)
        and report.sigma_values == {1: 6}
        and report.certificate == "p-principal"
    )
    _verdict(6, "S2 integrality+refold p<=200, half-degree p<=500, (7,2) certificate", ok)


def test_criterion_7_norm_probe():
    ok = True
    details = []
    for p in (3, 5):
        report = principal_norm_probe(p, search_bound=10_000)
        ok = ok and len(report.witnesses) > 0 and len(report.counterexamples) == 0
        details.append(f"p={p}: {len(report.witnesses)} witnesses")
    _verdict(7, f"norm probe within 10^4 candidates, no counterexamples ({'; '.join(details)})", ok)


def test_criterion_8_cli_determinism():
    def run(argv):
        buf = io.StringIO()
        code = main(argv, out=buf)
        return code, buf.getvalue()

    commands = [
        ["suite", "--pmax", "60"],
        ["suite", "--pmax", "60", "--jobs", "2"],
        ["scan-irregular", "--pmax", "60"],
        ["gauss", "verify", "-p", "7", "-q", "29"],
        ["stickelberger", "show", "-p", "11", "-q", "3"],
        ["principality", "probe", "-p", "3", "--bound", "100"],
    ]
    ok = True
    reference = {}
    for argv in commands:
        code, text = run(argv)
        ok = ok and code == 0
        reference[tuple(argv)] = text
    for argv in commands:
        code, text = run(argv)
        ok = ok and code == 0 and text == reference[tuple(argv)]
    # parallel and serial suite agree byte for byte
    ok = ok and reference[("suite", "--pmax", "60")] == reference[
        ("suite", "--pmax", "60", "--jobs", "2")
    ]
    _verdict(8, "two consecutive full CLI runs byte-identical (incl. --jobs)", ok)
