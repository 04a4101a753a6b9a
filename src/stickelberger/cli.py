"""Batch verification front end.

Exit codes: 0 = all checks passed, 1 = a mathematical check failed
(a VerificationError prints one `error:` line; a valuation that passes
the norm bound of its element is one) or a `--jobs` worker ended without
a result (one `error:` line naming the worker and its wait status), 2 =
bad input or configuration, among them an integer option that is not
positive or exceeds its entry in LIMITS, `--jobs` above 1 where there is
no os.fork, and a `gauss verify` pair beyond MAX_RING_ENTRIES or
MAX_FIELD_ORDER.  An error raised in a worker is raised again in the
parent and takes the same exit code.
Reports carry no timestamps and all iteration orders are fixed, so
identical invocations produce identical bytes regardless of the --jobs
setting.  Every JSON report goes through one writer, `_json_text`, and
every report object through one encoder, `_encode`.
"""

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .arith import (
    MILLER_RABIN_DETERMINISTIC_BOUND,
    VerificationError,
    _primes_below,
    is_prime,
    multiplicative_order,
    primitive_root,
)
from .gauss import build_record
from .groupring import (
    polynomial_P,
    polynomial_Q,
    polynomial_Q1_factorization,
    polynomial_S2,
    q_identity_holds,
    s2_refold_identity_holds,
    stickelberger_S,
)
from .principality import half_degree_corollary, principal_norm_probe, principality_test
from .regularity import bernoulli_mod_p, q_root_scan

# The fixed pair battery exercised by the `suite` command.
SUITE_SPLIT_PAIRS = ((3, 7), (3, 13), (5, 11), (5, 31), (7, 29), (11, 23))
SUITE_INERT_PAIRS = ((5, 3), (7, 2), (11, 3), (5, 7))

# Largest --pmax that scan-irregular and suite accept.  Scan time grows
# faster than pmax^2: a cold scan-irregular --jobs 1 took 1.3 s at 2000,
# 8.9 s at 5000 and, at this bound, 60 s and 20 MB peak RSS; --jobs 2 took
# 29 s and 20 MB at this bound (one run each, 2-vCPU VM, Python 3.11).
MAX_SCAN_PMAX = 10_000

# Largest pairs that `gauss verify` accepts, with the slowest accepted pair
# each bound lets through and the first ones beyond it (cold, median of 3
# runs, 2-vCPU VM, Python 3.11):
# - p: G = g ** p for f > 1 and the valuations of G grow with p.  The
#   bound is not where time jumps: (421, 29) took 4.3 s and (631, 43)
#   4.0 s, and beyond it (757, 3) took 3.5 s (build_record in a fresh
#   process), 2.3 s of it in g ** p.  It caps that power's size and
#   keeps the slowest p-bounded pairs measured under about 5 s.
# - (p-1)(q-1), the number of entries of g in Z[zeta_pq]: split pairs with
#   large p cost the most, (239, 479) took 4.2 s, and beyond the bound
#   (251, 503) took 6.4 s; small p costs less, (3, 59971) took 3.6 s.
#   The inert (571, 109), 61560 entries in the JSON embedding of g, took
#   2.4 s and 24 MB peak RSS (3.1 s and 36 MB when g was reduced in
#   Z[zeta_pq]), most of it in g ** p and norm(g) in Z[zeta_p];
#   (13, 1013) took 0.24 s (5.7 s with the walk of one field product per
#   element).
# - q^f, the number of field elements: the character walk takes one step
#   per coset of F_q^*, (q^f-1)/(q-1) steps, so q = 2 walks the most.
#   (337, 2), a field of 2^21 elements, took 4.1 s, (41, 2) 1.5 s (23 s
#   with the walk of one product per element) and (73, 3) 0.39 s (9.1 s);
#   beyond the bound (683, 2) took 8.9 s.
MAX_GAUSS_P = 700
MAX_RING_ENTRIES = 120_000
MAX_FIELD_ORDER = 2**21

# Largest -p and --bound that `principality probe` accepts.  A candidate's
# norm has about p^2 bits and most of its cost is Miller-Rabin on it.  The
# probe tests each distinct norm once, and about a quarter of the norms
# repeat, since a candidate and its complex conjugate, also in the sweep
# for small x, have the same norm.  In process, a candidate costs about
# 0.013 ms at p = 7 (--bound 30000, 0.17 of its 0.38 s is_prime), 0.032 ms
# at p = 11 (--bound 20000) and 1.15 ms at p = 31 (--bound 3000, over 80%
# is_prime).  Cold, -p 11 --bound 100000 took 4.3 s and 35 MB peak RSS;
# at both bounds, -p 31 --bound 100000 took about 105 s (2-vCPU VM,
# Python 3.11).
MAX_PROBE_P = 31
MAX_PROBE_BOUND = 100_000

# Largest -p of the commands that are quasi-linear in p.  At p = 199999,
# bernoulli took 3.7 s and 45 MB peak RSS, stickelberger show -q 1199993
# 1.3 s and 138 MB, principality test -q 1199993 (f = 2) 4.7 s and 62 MB,
# and principality corollary 0.20 s and 26 MB (cold CLI without bytecode
# caches, median of 3, 2-vCPU VM, Python 3.11).
MAX_P = 200_000

# Largest -q of `stickelberger show` and `principality test`, which need only
# q mod p and the primality of q: below MILLER_RABIN_DETERMINISTIC_BOUND,
# is_prime proves q prime with at most 13 Miller-Rabin bases.  Beyond it, a
# 14000-bit q would take minutes of Miller-Rabin before any output.
MAX_Q = MILLER_RABIN_DETERMINISTIC_BOUND - 1

# Largest --jobs.  --jobs J runs J processes, the parent and J-1 children
# forked at once, each taking every J-th item, so J processes run together.
MAX_JOBS = 64

# The integer options of every command, checked by `main` before any work:
# flag -> the largest accepted value, or None for any positive value.
LIMITS = {
    "scan-irregular": {"--pmax": MAX_SCAN_PMAX, "--jobs": MAX_JOBS},
    "bernoulli": {"--p": MAX_P},
    "stickelberger show": {"-p": MAX_P, "-q": MAX_Q},
    "gauss verify": {"-p": MAX_GAUSS_P, "-q": None},
    "principality test": {"-p": MAX_P, "-q": MAX_Q},
    "principality corollary": {"-p": MAX_P},
    "principality probe": {
        "-p": MAX_PROBE_P,
        "--bound": MAX_PROBE_BOUND,
        "--coeff-bound": None,
    },
    "suite": {"--pmax": MAX_SCAN_PMAX, "--jobs": MAX_JOBS},
}


def _limit_error(command, args):
    """Why `main` refuses the integer options of `command`, or None."""
    for flag, limit in LIMITS[command].items():
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is None:
            continue
        if value <= 0:
            return f"{flag} must be positive"
        if limit is not None and value > limit:
            return f"{flag} must be at most {limit}"
    if getattr(args, "jobs", 1) > 1 and not hasattr(os, "fork"):
        return "--jobs above 1 needs os.fork, which this platform lacks"
    return None


def _emit(text, out):
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _encode(obj):
    """The JSON form of a report object: its `to_json_obj()` if it has one,
    else a record's `_asdict()`, its fields in order; a frozenset is sorted."""
    if hasattr(obj, "to_json_obj"):
        return obj.to_json_obj()
    if hasattr(obj, "_asdict"):
        return obj._asdict()
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_text(obj, indent="\n"):
    """The bytes of json.dumps(obj, indent=2, default=_encode), with each
    container's items joined into one string and each record written by
    `_encode`, not as an array.  `indent` is a newline and the indentation
    of obj's line.  Floats are refused with a TypeError, and dict keys may
    be str, int, bool or None."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return _JSON_CONSTANTS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)) and not hasattr(obj, "_asdict"):
        if not obj:
            return "[]"
        items = [_json_text(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_json_key(key) + ": " + _json_text(value, inner) for key, value in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return _json_text(_encode(obj), indent)


def _json_key(key):
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, int):
        return '"' + _json_text(key) + '"'
    raise TypeError(f"keys must be str, int, bool or None, not {type(key).__name__}")


def _json_dump(obj, out):
    _emit(_json_text(obj), out)


def _report(obj, out):
    """Write a report object as JSON, headed by the version."""
    _json_dump({"version": __version__, **_encode(obj)}, out)


def _coeff_strings(elt):
    return [str(c) for c in elt]


def _job_map(fn, items, jobs):
    """The list of fn over the sequence items, in input order.  With J =
    min(jobs, len(items)) above 1, J processes share the work: this one and
    J-1 forked children, process k taking items[k::J].  Each child sends
    its results, or the exception that stopped it, back through a pipe; the
    exception is raised here, and a child that ends without a result raises
    ChildProcessError.  Every child is reaped before this returns or
    raises."""
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return list(map(fn, items))
    import pickle  # only a forked run loads it

    children = []  # (pid, read end of the child's pipe)
    try:
        for k in range(1, jobs):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                parent_fds = [read_fd] + [pipe.fileno() for _, pipe in children]
                _child_share(fn, items[k::jobs], write_fd, parent_fds)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        shares = [list(map(fn, items[::jobs]))]
        sent = [pipe.read() for _, pipe in children]
    finally:
        for _, pipe in children:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for k, (data, status) in enumerate(zip(sent, statuses), 1):
        if status or not data:
            raise ChildProcessError(
                f"worker {k} of {jobs} ended without a result (wait status {status})"
            )
        done, value = pickle.loads(data)
        if not done:
            raise value
        shares.append(value)
    return [shares[i % jobs][i // jobs] for i in range(len(items))]


def _child_share(fn, share, write_fd, parent_fds):
    """The whole life of a forked child: pickle (True, results) or (False,
    exception) into the pipe and leave by os._exit, so that the child never
    returns into the parent's code, runs no exit handler and flushes no
    buffer it inherited (stdout among them).  It exits 0 only once the
    whole pickle is written.  It first closes the read ends it inherited,
    so that a write to a pipe the parent has closed fails at once."""
    import pickle

    code = 1
    try:
        for fd in parent_fds:
            os.close(fd)
        try:
            message = (True, [fn(item) for item in share])
        except Exception as exc:
            message = (False, exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(message))
        code = 0
    finally:
        os._exit(code)


def _primes_upto(n):
    """The odd primes up to n."""
    return _primes_below(n + 1)[1:]


def _scan_row(p):
    """The TSV row of p's verdict, with what the summary needs; the verdict
    and its p/2 root exponents are dropped in the process that made them."""
    vd = q_root_scan(p)
    row = "\t".join(
        (
            str(vd.p),
            vd.verdict,
            ",".join(str(m) for m in sorted(vd.odd_roots)) or "-",
            ",".join(str(k) for k in sorted(vd.irregular_indices)) or "-",
            "yes" if vd.agreement else "NO",
        )
    )
    return vd.p, vd.verdict == "irregular", vd.agreement, row


def cmd_scan_irregular(args, out):
    primes = _primes_upto(args.pmax)
    # rows are printed only after the whole scan, so a failed check leaves
    # stdout empty
    rows = _job_map(_scan_row, primes, args.jobs)
    _emit(f"# stickelberger {__version__}", out)
    _emit(f"# scan-irregular pmax={args.pmax}", out)
    _emit("p\tverdict\todd_roots\tirregular_indices\tagreement", out)
    for *_, row in rows:
        _emit(row, out)
    irregular_count = sum(irregular for _, irregular, _, _ in rows)
    failures = [p for p, _, agreement, _ in rows if not agreement]
    _emit(f"# summary scanned={len(rows)} irregular={irregular_count}", out)
    _emit(f"# failures {','.join(map(str, failures)) if failures else '-'}", out)
    return 1 if failures else 0


def cmd_bernoulli(args, out):
    table = bernoulli_mod_p(args.p)
    _emit(f"# stickelberger {__version__}", out)
    _emit(f"# bernoulli p={args.p}", out)
    _emit("k\tB_k_mod_p", out)
    for k in sorted(table):
        _emit(f"{k}\t{table[k]}", out)
    return 0


def cmd_stickelberger_show(args, out):
    p = args.p
    v = primitive_root(p)
    s = stickelberger_S(p, v)
    big_p = polynomial_P(p, v)
    q = polynomial_Q(p, v)
    q1, q1_ok = polynomial_Q1_factorization(q, v)
    q_strings = _coeff_strings(q)  # the deltas are Q's coefficients
    payload = {
        "version": __version__,
        "p": p,
        "v": v,
        "S": _coeff_strings(s),
        "P": _coeff_strings(big_p),
        "delta": q_strings,
        "Q": q_strings,
        "Q1": _coeff_strings(q1),
        "identities": {
            "S_equals_P": s == big_p,
            "P_times_sigma_minus_v_is_pQ": q_identity_holds(big_p, q, v),
            "Q1_factorization": q1_ok,
        },
    }
    if args.q is not None:
        s2 = polynomial_S2(big_p, args.q)
        payload["S2"] = {
            "q": args.q,
            "f": (p - 1) // len(s2),
            "m": len(s2),
            "coeffs": _coeff_strings(s2),
            "refold_identity": s2_refold_identity_holds(s, s2),
        }
    _json_dump(payload, out)
    ok = all(payload["identities"].values()) and (
        "S2" not in payload or payload["S2"]["refold_identity"]
    )
    return 0 if ok else 1


def _gauss_size_error(p, q):
    """Why `gauss verify` refuses (p, q) as too large for its ring or its
    field, or None; -p itself is bounded in LIMITS."""
    if (p - 1) * (q - 1) > MAX_RING_ENTRIES:
        return f"(p-1)(q-1) = {(p - 1) * (q - 1)} exceeds {MAX_RING_ENTRIES}"
    if is_prime(p) and is_prime(q) and p != q:
        order = q ** multiplicative_order(q, p)
        if order > MAX_FIELD_ORDER:
            return f"the residue field has {order} elements, more than {MAX_FIELD_ORDER}"
    return None


def cmd_gauss_verify(args, out):
    error = _gauss_size_error(args.p, args.q)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    record = build_record(args.p, args.q)
    _report(record, out)
    return 0 if record.ok else 1


def cmd_principality_test(args, out):
    report = principality_test(args.p, args.q)
    _report(report, out)
    return 0 if report.full_orbit_sum_ok else 1


def cmd_principality_corollary(args, out):
    verdict = half_degree_corollary(args.p)
    _report(verdict, out)
    return 0 if verdict.verdict else 1


def cmd_principality_probe(args, out):
    report = principal_norm_probe(args.p, args.bound, args.coeff_bound)
    _report(report, out)
    return 0 if not report.counterexamples else 1


def _suite_gauss_item(pair):
    record = build_record(*pair)
    return record.to_json_obj()


def cmd_suite(args, out):
    """One deterministic report over the whole verification battery."""
    primes = _primes_upto(args.pmax)
    scan = _job_map(q_root_scan, primes, args.jobs)
    gauss = _job_map(_suite_gauss_item, SUITE_SPLIT_PAIRS + SUITE_INERT_PAIRS, args.jobs)
    principality = [principality_test(p, q) for (p, q) in SUITE_INERT_PAIRS]
    corollaries = [half_degree_corollary(p) for p in primes if p % 4 == 3 and p > 3]
    failures = (
        [f"gauss p={r['p']} q={r['q']}" for r in gauss if not r["ok"]]
        + [f"scan p={vd.p}" for vd in scan if not vd.agreement]
        + [f"principality p={r.p} q={r.q}" for r in principality if not r.full_orbit_sum_ok]
        + [f"corollary p={r.p}" for r in corollaries if not r.verdict]
    )
    # the config echo carries only math-relevant settings: --jobs must not
    # change a single output byte
    payload = {
        "version": __version__,
        "config": {"pmax": args.pmax},
        "gauss_records": gauss,
        "scan": scan,
        "principality": principality,
        "half_degree_corollaries": corollaries,
        "summary": {
            "gauss_records": len(gauss),
            "primes_scanned": len(scan),
            "principality_reports": len(principality),
            "corollaries": len(corollaries),
            "failures": len(failures),
        },
        "failures": failures,
    }
    _json_dump(payload, out)
    return 1 if failures else 0


def _add_prime_arg(parser, name, help_text):
    parser.add_argument(name, type=int, required=True, help=help_text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stickelberger",
        description="Exact verification of Gauss-sum and Stickelberger facts "
        "in prime cyclotomic fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan-irregular", help="scan primes for irregularity")
    scan.add_argument("--pmax", type=int, required=True, help="largest prime to scan")
    scan.add_argument("--jobs", type=int, default=1, help="parallel workers")
    scan.set_defaults(func=cmd_scan_irregular)

    bern = sub.add_parser("bernoulli", help="Bernoulli numbers mod p")
    _add_prime_arg(bern, "--p", "odd prime modulus")
    bern.set_defaults(func=cmd_bernoulli)

    stick = sub.add_parser("stickelberger", help="group-ring elements")
    stick_sub = stick.add_subparsers(dest="subcommand", required=True)
    show = stick_sub.add_parser("show", help="dump S, P, delta, Q, Q1 (and S2)")
    _add_prime_arg(show, "-p", "odd prime")
    show.add_argument("-q", type=int, default=None, help="prime with f > 1, for S2")
    show.set_defaults(func=cmd_stickelberger_show)

    gauss = sub.add_parser("gauss", help="Gauss-sum records")
    gauss_sub = gauss.add_subparsers(dest="subcommand", required=True)
    verify = gauss_sub.add_parser("verify", help="build and verify g(q)")
    _add_prime_arg(verify, "-p", "odd prime")
    _add_prime_arg(verify, "-q", "prime distinct from p")
    verify.set_defaults(func=cmd_gauss_verify)

    prin = sub.add_parser("principality", help="p-principality tests")
    prin_sub = prin.add_subparsers(dest="subcommand", required=True)
    test = prin_sub.add_parser("test", help="congruence test for f > 1")
    _add_prime_arg(test, "-p", "odd prime")
    _add_prime_arg(test, "-q", "prime with f > 1")
    test.set_defaults(func=cmd_principality_test)
    corollary = prin_sub.add_parser("corollary", help="half-degree corollary")
    _add_prime_arg(corollary, "-p", "prime = 3 mod 4")
    corollary.set_defaults(func=cmd_principality_corollary)
    probe = prin_sub.add_parser("probe", help="norm-probe search")
    _add_prime_arg(probe, "-p", "odd prime")
    probe.add_argument("--bound", type=int, default=10_000, help="candidate cap")
    probe.add_argument(
        "--coeff-bound", type=int, default=2, help="coefficient box half-width"
    )
    probe.set_defaults(func=cmd_principality_probe)

    suite = sub.add_parser("suite", help="full deterministic verification report")
    suite.add_argument("--pmax", type=int, default=100, help="scan bound")
    suite.add_argument("--jobs", type=int, default=1, help="parallel workers")
    suite.set_defaults(func=cmd_suite)

    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    error = _limit_error(command, args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        code = args.func(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader left early (`| head`); stdout now goes to devnull, so the
        # flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except VerificationError as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return 1
    except ChildProcessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
