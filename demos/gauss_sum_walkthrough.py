"""Build one Gauss sum and show every verified structural fact.

Run: python demos/gauss_sum_walkthrough.py [p q]
"""

import sys

from stickelberger.cyclotomic import lambda_valuation
from stickelberger.gauss import build_record, resolvent_form

p, q = (int(a) for a in sys.argv[1:3]) if len(sys.argv) > 2 else (5, 11)
record = build_record(p, q)

print(f"g(q) for p = {p}, q = {q}: inertial degree f = {record.f}")
if record.f == 1:
    print()
    print("g as a matrix over zeta_p^i zeta_q^j:")
    for row in record.g.coeffs:
        print("  ", row)
print()
print("g * conj(g) =", f"q^f = {q}^{record.f}:",
      record.checks["g_times_conj_equals_q_to_f"])
print("G = g^p collapses into Z[zeta_p]:", record.G.coeffs)

if record.f == 1:
    print()
    print("split case extras")
    print("  rho with tau(g) = zeta_p^rho g:", record.rho)
    print("  g equals the explicit resolvent at that rho:",
          resolvent_form(p, q, record.rho) == record.g)
    print("  valuations of G at the Hensel-labelled ideals:",
          record.valuation_profile)
    print("  (the Stickelberger pattern: value t at the ideal of the",
          "character root raised to t)")
    print("  lambda-adic valuation of G + 1:", record.flags["v_G_plus_1"],
          f"(floor is p = {p}; it is exact iff {p}^(({q}-1)/{p}) != 1 mod {q})")
else:
    print()
    print("inert case extras")
    print("  g lives in Z[zeta_p]:", record.g.coeffs)
    print("  |norm(g)| = q^(f * (p-1)/2):",
          record.checks["norm_g_equals_q_to_s2_weight"])
    print("  v(G + 1) =", lambda_valuation(record.G + 1), f">= p+1 = {p + 1}")

print()
print("all checks:", "PASS" if record.ok else "FAIL")
