"""Run one `stickelberger` CLI invocation with a span around every call
into the layers' public functions, then write the spans to a file.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS_FILE <cli args...>

Stdout and the exit code are the CLI's own.  Nothing under `src/` is
changed: the wrappers are rebound, at run time, in every `stickelberger`
module that holds the original object, because modules import names
directly (`gauss` uses `arith.ff_trace`, `principality` uses
`cyclotomic.norm`, `regularity` uses `groupring.polynomial_Q`).

Spans are (name, start, end, parent index) and stay in memory until the
CLI returns.  Pool workers forked by `--jobs` inherit the wrappers, but
their spans die with them, so a `--jobs 2` trace covers the parent only.
"""

import json
import sys
from time import perf_counter

# Span name -> attribute path inside the module named by the prefix.
WRAPPED = {
    "arith.field_make": "field_make",
    "arith.ff_trace": "ff_trace",
    "arith.residue_char_exponent": "residue_char_exponent",
    "arith.ff_pow": "ff_pow",
    "arith.is_prime": "is_prime",
    "cyclotomic.cycint_mul": "CycInt.__mul__",
    "cyclotomic.bicycint_mul": "BiCycInt.__mul__",
    "cyclotomic.norm": "norm",
    "cyclotomic.galois_apply": "galois_apply",
    "cyclotomic.lambda_valuation": "lambda_valuation",
    "cyclotomic.bi_lambda_valuation": "bi_lambda_valuation",
    "cyclotomic.hensel_roots": "hensel_roots",
    "cyclotomic.ideal_valuation": "ideal_valuation",
    "groupring.polynomial_Q": "polynomial_Q",
    "groupring.fp_gr_eval": "fp_gr_eval",
    "regularity.bernoulli_mod_p": "bernoulli_mod_p",
    "regularity.q_root_scan": "q_root_scan",
    "gauss.gauss_sum": "gauss_sum",
    "gauss.extract_rho": "extract_rho",
    "gauss.resolvent_form": "resolvent_form",
    "gauss.pi_adic_profile": "pi_adic_profile",
    "principality.principal_norm_probe": "principal_norm_probe",
    "cli.main": "main",
}


def _nonzero_terms(elt):
    rows = elt.coeffs if hasattr(elt, "q") else (elt.coeffs,)
    return sum(len(row) - row.count(0) for row in rows)


def _count_term_pairs(key):
    # the schoolbook product visits nonzero(a) * nonzero(b) coefficient pairs
    def hook(counts, args, result):
        a, b = args
        counts[key] += _nonzero_terms(a) * _nonzero_terms(a._coerce(b))

    return hook


def _count_divisions(counts, args, result):
    # lambda_valuation returns the number of exact divisions it made
    if result != float("inf"):
        counts["cyclotomic.lambda_valuation.divisions"] += result


def _count_probe(counts, args, result):
    counts["principality.candidates"] += result.candidates_tested
    counts["principality.witnesses"] += len(result.witnesses)


COUNT_HOOKS = {
    "cyclotomic.cycint_mul": _count_term_pairs("cyclotomic.cycint_mul.term_pairs"),
    "cyclotomic.bicycint_mul": _count_term_pairs("cyclotomic.bicycint_mul.term_pairs"),
    "cyclotomic.lambda_valuation": _count_divisions,
    "principality.principal_norm_probe": _count_probe,
}

COUNT_NAMES = (
    "cyclotomic.cycint_mul.term_pairs",
    "cyclotomic.bicycint_mul.term_pairs",
    "cyclotomic.lambda_valuation.divisions",
    "principality.candidates",
    "principality.witnesses",
    "regularity.bernoulli_cache_len",
)


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.names = list(WRAPPED)
        self.spans = []  # [name index, start, end, parent span index or -1]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack = []

    def wrap(self, name, fn):
        name_index = self.names.index(name)
        hook = COUNT_HOOKS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            record = [name_index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def install(self):
        """Rebind every wrapped function wherever the package holds it."""
        import stickelberger.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "stickelberger"]
        for name, path in WRAPPED.items():
            owner = sys.modules["stickelberger." + name.split(".")[0]]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            traced = self.wrap(name, original)
            holders = [owner] if cls_path else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)

    def dump(self, path):
        import stickelberger.regularity as regularity

        self.counts["regularity.bernoulli_cache_len"] = len(regularity._bernoulli_cache)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counts": self.counts}, fh)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import stickelberger.cli as cli

    code = cli.main(cli_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
