"""Benchmark of the `stickelberger` command line, run from the source tree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every invocation is a cold `python -m stickelberger.cli` subprocess with
PYTHONPATH set to this checkout's `src/`, so each one pays for the
Bernoulli cache and the lru caches as a user does.  Each invocation's
stdout must match the sha256 recorded in `expected.json`; a wrong digest
or a nonzero exit counts as a failed invocation.

`--trace 0` repeats whole passes of the workload for S seconds and prints
the end-to-end metrics.  Every invocation follows a run of
`calibrate.py`, fixed work that imports nothing from the program, and
times are reported relative to it, so that a slow spell of a shared host
cancels out.  `--trace 1` repeats rounds of one untraced pass
and one pass under `tracer.py` and prints the per-layer metrics.  Metric
names and units come from BENCHMARK.json; the last stdout line is the
result object, the line before it the run's metadata.

The inputs are fixed exact computations with no randomness, so `--seed`
is recorded and changes nothing.  See README.md for why each workload
exists and which metric each layer should move.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from statistics import median
from time import perf_counter

from tracer import COUNT_NAMES, WRAPPED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SCAN = ("scan-irregular", "--pmax", "600")

# workload -> [(CLI arguments, key of its stdout digest in expected.json)]
WORKLOADS = {
    "scan": [(SCAN + ("--jobs", "1"), "scan-irregular-pmax600")],
    # same digest as `scan`: --jobs must not change a byte of stdout
    "scan-jobs2": [(SCAN + ("--jobs", "2"), "scan-irregular-pmax600")],
    "gauss": [
        (("gauss", "verify", "-p", "17", "-q", "103"), "gauss-verify-p17-q103"),
        (("gauss", "verify", "-p", "13", "-q", "2"), "gauss-verify-p13-q2"),
    ],
    "probe": [
        (("principality", "probe", "-p", "7", "--bound", "30000"), "principality-probe-p7-bound30000"),
    ],
}

# Work items in one pass: odd primes up to 600, records, probe candidates.
ITEMS = {"scan": 108, "scan-jobs2": 108, "gauss": 2, "probe": 30000}

# Timed imports of the CLI module in each step.
IMPORTS_PER_STEP = 3

# A round reference for the wall time of one `calibrate.py` run, which
# took 0.35 s to 1.2 s on a shared 2-vCPU VM with Python 3.11.  End-to-end
# times are reported as they would read on a host on which every
# calibration run takes this long.
REFERENCE_CALIBRATION_S = 0.5


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Pass:
    """Resources of one pass over a workload's invocations."""

    wall: float
    cpu: float
    rss_mb: float
    attempted: int
    failed: int


@cache
def expected_digests():
    return json.loads((BENCH / "expected.json").read_text())


def cli_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def cli_command(args, spans_path=None):
    """The CLI invocation, or the same under the tracer when `spans_path`
    names the file the spans go to."""
    if spans_path is None:
        return [sys.executable, "-m", "stickelberger.cli", *args]
    return [sys.executable, str(BENCH / "tracer.py"), str(spans_path), *args]


def invoke(args, digest_key, spans_path=None):
    """Run one CLI invocation; return (wall, cpu, peak RSS in MB, ok).

    CPU and peak RSS come from wait4 on this child alone, which folds in
    the pool workers it reaps and nothing from earlier children.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        cli_command(args, spans_path),
        cwd=ROOT,
        env=cli_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    digest = hashlib.sha256(out).hexdigest()
    ok = proc.returncode == 0 and digest == expected_digests()[digest_key]
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, ok


def run_pass(workload, span_dir=None):
    """One pass; with `span_dir`, every invocation runs traced and the
    span dumps are returned alongside."""
    wall = cpu = rss = 0.0
    failed = 0
    dumps = []
    for i, (args, key) in enumerate(WORKLOADS[workload]):
        spans_path = None if span_dir is None else os.path.join(span_dir, f"{i}.json")
        w, c, r, ok = invoke(args, key, spans_path)
        wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        failed += not ok
        if spans_path is not None and ok:
            with open(spans_path) as fh:
                dumps.append(json.load(fh))
            os.remove(spans_path)
    return Pass(wall, cpu, rss, len(WORKLOADS[workload]), failed), dumps


def time_import():
    """Wall time for a fresh interpreter to import the CLI module."""
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", "import stickelberger.cli"],
        cwd=ROOT,
        env=cli_env(),
        stdin=subprocess.DEVNULL,
    )
    if done.returncode != 0:
        raise BenchError("stickelberger.cli does not import from src/")
    return perf_counter() - start


def processes(args):
    """How many processes an invocation keeps busy at once."""
    return int(args[args.index("--jobs") + 1]) if "--jobs" in args else 1


def calibrate(copies):
    """Wall time until `copies` concurrent cold runs of `calibrate.py`
    have all ended.  It is fixed stdlib-only work, so it tells how fast
    the host runs Python at this moment."""
    cmd = [sys.executable, str(BENCH / "calibrate.py")]
    start = perf_counter()
    procs = []
    try:
        for _ in range(copies):
            procs.append(
                subprocess.Popen(
                    cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL
                )
            )
        codes = [proc.wait() for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if any(codes):
        raise BenchError("calibrate.py failed")
    return perf_counter() - start


def repeat_for(seconds, body):
    """Call `body` at least once, and again while one more call at the
    mean pace so far still ends within `seconds`."""
    results = []
    start = perf_counter()
    while True:
        results.append(body())
        elapsed = perf_counter() - start
        if elapsed / len(results) * (len(results) + 1) > seconds:
            return results


def end_to_end(workload, seconds):
    """Calibrated steps for `seconds`.  A step runs, for each invocation of
    the workload, a calibration and then the invocation, and after the
    step's first calibration IMPORTS_PER_STEP imports of the CLI module.
    A last calibration closes the run, so every invocation lies between
    two calibrations and its times are divided by their mean; the imports
    are divided by the calibration just before them.  A time metric is
    the median over steps of these ratios, summed over the step's
    invocations, times REFERENCE_CALIBRATION_S."""
    invocations = WORKLOADS[workload]
    copies = max(processes(args) for args, _ in invocations)
    calibrations, runs, setups = [], [], []

    def step():
        for i, (args, key) in enumerate(invocations):
            calibrations.append(calibrate(copies))
            if i == 0:
                imports = median(time_import() for _ in range(IMPORTS_PER_STEP))
                setups.append(imports / calibrations[-1])
            runs.append(invoke(args, key))

    repeat_for(seconds, step)
    calibrations.append(calibrate(copies))

    passes, wall_ratios, cpu_ratios = [], [], []
    for first in range(0, len(runs), len(invocations)):
        wall = cpu = rss = wall_ratio = cpu_ratio = 0.0
        failed = 0
        for k in range(first, first + len(invocations)):
            w, c, r, ok = runs[k]
            bracket = (calibrations[k] + calibrations[k + 1]) / 2
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            wall_ratio, cpu_ratio = wall_ratio + w / bracket, cpu_ratio + c / bracket
            failed += not ok
        passes.append(Pass(wall, cpu, rss, len(invocations), failed))
        wall_ratios.append(wall_ratio)
        cpu_ratios.append(cpu_ratio)

    wall = median(wall_ratios) * REFERENCE_CALIBRATION_S
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "wall_s": wall,
        "items_per_s": ITEMS[workload] / wall,
        "cpu_s": median(cpu_ratios) * REFERENCE_CALIBRATION_S,
        "peak_rss_mb": median(p.rss_mb for p in passes),
        "ok_frac": (attempted - failed) / attempted,
        "setup_s": median(setups) * REFERENCE_CALIBRATION_S,
    }
    raw = {
        "pass_wall_s": [round(p.wall, 4) for p in passes],
        "calibration_s": [round(c, 4) for c in calibrations],
    }
    return metrics, attempted, failed, raw


def layer_totals(dumps):
    """calls, inclusive and self seconds per span name, plus the counts,
    summed over the invocations of one pass."""
    totals = {name: [0, 0.0, 0.0] for name in WRAPPED}
    counts = dict.fromkeys(COUNT_NAMES, 0)
    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name_index, start, end, _) in enumerate(spans):
            entry = totals[names[name_index]]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[i]
        for key, value in dump["counts"].items():
            combine = max if key == "regularity.bernoulli_cache_len" else int.__add__
            counts[key] = combine(counts[key], value)
    return totals, counts


@dataclass
class Round:
    """One untraced pass, the same pass traced, and, on scan-jobs2, the
    serial scan pass it is compared with."""

    plain: Pass
    traced: Pass
    serial: Pass | None
    totals: dict
    counts: dict

    def passes(self):
        return [p for p in (self.plain, self.traced, self.serial) if p is not None]

    def exact(self):
        return {name: t[0] for name, t in self.totals.items()}, self.counts


def per_layer(workload, seconds):
    """Rounds of one untraced and one traced pass.  Counts must repeat
    exactly from round to round; times are medians over rounds."""
    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as span_dir:

        def one_round():
            plain, _ = run_pass(workload)
            traced, dumps = run_pass(workload, span_dir)
            serial = run_pass("scan")[0] if workload == "scan-jobs2" else None
            return Round(plain, traced, serial, *layer_totals(dumps))

        rounds = repeat_for(seconds, one_round)
    passes = [p for r in rounds for p in r.passes()]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    repeatable = all(r.exact() == rounds[0].exact() for r in rounds)

    metrics = dict(rounds[0].counts)
    for name, (calls, _, _) in rounds[0].totals.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.s"] = median(r.totals[name][1] for r in rounds)
        metrics[f"{name}.self_s"] = median(r.totals[name][2] for r in rounds)
    candidates = metrics["principality.candidates"]
    metrics["principality.hit_ratio"] = (
        metrics["principality.witnesses"] / candidates if candidates else 0.0
    )
    plain_wall = median(r.plain.wall for r in rounds)
    plain_cpu = median(r.plain.cpu for r in rounds)
    metrics["cli.cpu_over_wall"] = plain_cpu / plain_wall
    # only meaningful with --jobs; 0 marks "not measured" elsewhere
    metrics["cli.jobs_cpu_overhead"] = (
        plain_cpu / median(r.serial.cpu for r in rounds) if workload == "scan-jobs2" else 0.0
    )
    metrics["trace.overhead_frac"] = median(r.traced.wall for r in rounds) / plain_wall - 1
    return metrics, attempted, failed, [round(r.plain.wall, 4) for r in rounds], repeatable


def src_line_count():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def commit_id():
    """HEAD of the checkout when it is a git repository, else None."""
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="recorded; inputs are fixed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "stickelberger" / "cli.py").is_file():
        raise BenchError(f"no stickelberger sources under {SRC}")
    time_import()  # the first import also writes the bytecode cache
    if args.trace:
        metrics, attempted, failed, samples, correct = per_layer(args.workload, args.seconds)
        raw = {"pass_wall_s": samples}
        wanted = spec["per_layer"]
    else:
        metrics, attempted, failed, raw = end_to_end(args.workload, args.seconds)
        correct = True
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    meta = {
        "workload": args.workload,
        "invocations": [" ".join(a) for a, _ in WORKLOADS[args.workload]],
        "trace": args.trace,
        "seed": args.seed,
        "samples": len(raw["pass_wall_s"]),
        **raw,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "src_lines": src_line_count(),
    }
    print(json.dumps({"meta": meta}))
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
