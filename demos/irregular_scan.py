"""Scan primes for irregularity: polynomial root scan on one side, the
per-prime series Bernoulli oracle on the other.

Run: python demos/irregular_scan.py [pmax]
"""

import sys

from stickelberger.arith import is_prime
from stickelberger.regularity import q_root_scan

pmax = int(sys.argv[1]) if len(sys.argv) > 1 else 160
verdicts = [q_root_scan(p) for p in range(3, pmax + 1) if is_prime(p)]

print(f"{'p':>5}  {'verdict':<10} {'odd roots m':<14} {'Bernoulli indices':<20} agree")
for vd in verdicts:
    odd = ",".join(str(m) for m in sorted(vd.odd_roots)) or "-"
    irr = ",".join(str(k) for k in sorted(vd.irregular_indices)) or "-"
    print(f"{vd.p:>5}  {vd.verdict:<10} {odd:<14} {irr:<20} {'yes' if vd.agreement else 'NO'}")

irregular = [vd for vd in verdicts if vd.verdict == "irregular"]
print()
print(f"{len(irregular)} irregular primes up to {pmax}:",
      ", ".join(str(vd.p) for vd in irregular))
print("each odd root of the quotient polynomial matches one vanishing")
print("Bernoulli number; the index count agrees for every prime scanned.")
