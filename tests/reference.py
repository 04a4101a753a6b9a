"""Slow, direct references that the fast routes in `src/` are tested
against.  Nothing here is used by the package itself.
"""

from stickelberger.arith import is_prime
from stickelberger.cyclotomic import CycInt, galois_apply, lambda_element
from stickelberger.principality import _graded_lex_vectors


def conjugate_product_norm(a: CycInt) -> int:
    """N(a) as the product of all p-1 Galois conjugates, one ring product
    at a time."""
    if a.is_zero():
        raise ValueError("norm of 0 is degenerate")
    acc = a
    for t in range(2, a.p):
        acc = acc * galois_apply(t, a)
    return acc.rational_value()


def probe_sweep(p, search_bound, coeff_bound=2):
    """The first `search_bound` candidates a + lambda^(p+1) * x of the norm
    probe, in sweep order, as (a, x_vec, q1)."""
    shift = lambda_element(p) ** (p + 1)
    count = 0
    for x_vec in _graded_lex_vectors(p - 1, coeff_bound):
        base = shift * CycInt(p, x_vec)
        for a in range(1, p):
            if count == search_bound:
                return
            count += 1
            yield a, x_vec, base + a


def probe_witnesses(p, search_bound, coeff_bound=2):
    """(a, x_vec, q, p^((q-1)/p) mod q) for every candidate whose
    conjugate-product norm is, up to sign, a prime q."""
    witnesses = []
    for a, x_vec, q1 in probe_sweep(p, search_bound, coeff_bound):
        n = abs(conjugate_product_norm(q1))
        if n >= 2 and is_prime(n):
            witnesses.append((a, x_vec, n, pow(p, (n - 1) // p, n)))
    return witnesses
