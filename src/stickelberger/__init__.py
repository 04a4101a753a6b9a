"""Exact arithmetic in prime cyclotomic fields: Gauss sums, the
Stickelberger element and its quotient polynomials, irregular-prime
scanning, and principality congruences.

Everything is computed with plain Python integers; there are no floating
point numbers anywhere in the verification paths.
"""

from .arith import (
    FieldDesc,
    VerificationError,
    canon_power,
    ff_trace,
    field_make,
    is_prime,
    multiplicative_order,
    primitive_root,
    residue_char_exponent,
)
from .cyclotomic import (
    BiCycInt,
    CycInt,
    galois_apply,
    hensel_roots,
    ideal_valuation,
    lambda_valuation,
    norm,
)
from .groupring import (
    GroupRingElt,
    fp_gr_eval,
    polynomial_P,
    polynomial_Q,
    polynomial_Q1_factorization,
    polynomial_S2,
    stickelberger_S,
)
from .gauss import (
    GaussSumRecord,
    build_record,
    extract_rho,
    gauss_sum,
    pi_adic_profile,
    resolvent_form,
)
from .regularity import RegularityVerdict, b_half_check, bernoulli_mod_p, q_root_scan
from .principality import (
    PrincipalityReport,
    half_degree_corollary,
    principal_norm_probe,
    principality_test,
)

__version__ = "0.1.0"
