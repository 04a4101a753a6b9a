"""Walk through the group-ring objects for a single prime.

Run: python demos/stickelberger_identities.py [p]
"""

import sys

from stickelberger.arith import primitive_root
from stickelberger.groupring import (
    polynomial_P,
    polynomial_Q,
    polynomial_Q1_factorization,
    polynomial_S2,
    q_identity_holds,
    stickelberger_S,
)

p = int(sys.argv[1]) if len(sys.argv) > 1 else 13
v = primitive_root(p)
print(f"p = {p}, smallest primitive root v = {v}")
print()

s = stickelberger_S(p, v)
big_p = polynomial_P(p, v)
print("S  built from sum of t * w_t^(-1):", s)
print("P  built from sum of sigma^i v^(-i):", big_p)
print("S == P:", s == big_p)
print("coefficient sum:", sum(s), "= p(p-1)/2 =", p * (p - 1) // 2)
print()

q_elt = polynomial_Q(p, v)
print("delta (the coefficients of Q):", q_elt)
print("P * (sigma - v) == p * Q:", q_identity_holds(big_p, q_elt, v))

q1, ok = polynomial_Q1_factorization(q_elt, v)
print("Q1:", q1)
print("Q == Q1 * (1 + sigma + ... + sigma^((p-3)/2)):", ok)
print()

for q in (2, 3, 5):
    if q == p:
        continue
    try:
        s2 = polynomial_S2(big_p, q)
    except ValueError as exc:
        print(f"q = {q}: {exc}")
        continue
    print(f"q = {q}: S2 coefficients {s2} (p * sum = {p * sum(s2)})")
