"""Exact arithmetic in prime cyclotomic fields: Gauss sums, the
Stickelberger element and its quotient polynomials, irregular-prime
scanning, and principality congruences.

Everything is computed with plain Python integers; there are no floating
point numbers anywhere in the verification paths.
"""

__version__ = "0.1.0"
