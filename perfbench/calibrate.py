"""Fixed stdlib-only work that measures how fast the host runs Python now.

    python3 perfbench/calibrate.py

`run.py` starts this as a cold process before every timed pass and
divides the pass's time by its time, so that a slow spell on a shared
host slows both and cancels.  It imports nothing from `stickelberger`:
a change to the program must not change this work.  Its three parts
follow the kinds of work the workloads do: Fraction sums (the scan's
Bernoulli oracle), schoolbook products of big-integer lists (the
cyclotomic products of `gauss`) and small-integer loops over lists and
dicts (the probe's norms and the F_q arithmetic).  It prints one checksum.
"""

from fractions import Fraction
from math import comb


def bernoulli(n):
    """B_0..B_n through sum_j C(m+1, j) B_j = 0, as Fractions."""
    bs = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j, b in enumerate(bs):
            if b:
                acc += comb(m + 1, j) * b
        bs.append(-acc / (m + 1))
    return bs


def big_products(rounds, dim):
    """Squarings of a dense vector of ~200-digit integers, reduced mod
    x^dim - 1 and by a fixed modulus so the sizes stay put."""
    modulus = 10**200 + 357
    vec = [pow(7, 3 * k + 650, modulus) for k in range(dim)]
    for _ in range(rounds):
        conv = [0] * dim
        for i, a in enumerate(vec):
            for j, b in enumerate(vec):
                conv[(i + j) % dim] += a * b
        vec = [c % modulus for c in conv]
    return sum(vec) % 1000003


def small_loops(n):
    """Modular products of small integers with list and dict traffic."""
    p = 1000003
    seen = {}
    row = [0] * 64
    s = 1
    for i in range(n):
        s = s * 48271 % p
        row[i & 63] += s
        seen[s & 4095] = i
    return (sum(row) + len(seen)) % p


def main():
    b = bernoulli(300)[-1]
    checksum = (b.numerator % 1000003, big_products(9, 110), small_loops(500_000))
    print(*checksum)


if __name__ == "__main__":
    main()
