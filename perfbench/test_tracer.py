"""Tracer coverage on tiny inputs.  Run with:

    python3 -m pytest perfbench
"""

import json
import subprocess

import pytest

from run import ROOT, cli_command, cli_env, layer_totals
from tracer import COUNT_NAMES, WRAPPED

CASES = (
    ("gauss", "verify", "-p", "5", "-q", "11"),  # split
    ("gauss", "verify", "-p", "5", "-q", "3"),  # inert, f=4
    ("scan-irregular", "--pmax", "40"),
    ("principality", "probe", "-p", "3", "--bound", "100"),
)


def _cli(args, spans_path=None):
    done = subprocess.run(
        cli_command(args, spans_path),
        cwd=ROOT,
        env=cli_env(),
        capture_output=True,
        check=True,
        timeout=120,
    )
    return done.stdout


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """case -> (untraced stdout, [(traced stdout, span dump)] * 2)"""
    tmp = tmp_path_factory.mktemp("spans")
    result = {}
    for n, args in enumerate(CASES):
        traced = []
        for attempt in range(2):
            path = tmp / f"{n}-{attempt}.json"
            out = _cli(args, path)
            traced.append((out, json.loads(path.read_text())))
        result[args] = (_cli(args), traced)
    return result


def test_traced_stdout_equals_untraced(runs):
    for plain, traced in runs.values():
        for out, _ in traced:
            assert out == plain


def test_every_wrapped_name_records_a_span(runs):
    seen = set()
    for _, traced in runs.values():
        for _, dump in traced:
            seen.update(dump["names"][span[0]] for span in dump["spans"])
    assert seen == set(WRAPPED)


def test_self_time_is_nonnegative(runs):
    for _, traced in runs.values():
        totals, _ = layer_totals([dump for _, dump in traced])
        for name, (_, inclusive, self_s) in totals.items():
            assert 0 <= self_s <= inclusive + 1e-9, name


def test_counts_repeat_exactly(runs):
    for _, ((_, first), (_, second)) in runs.values():
        first_totals, first_counts = layer_totals([first])
        second_totals, second_counts = layer_totals([second])
        assert first_counts == second_counts
        assert set(first_counts) == set(COUNT_NAMES)
        assert {n: t[0] for n, t in first_totals.items()} == {
            n: t[0] for n, t in second_totals.items()
        }


def test_predicted_bypasses(runs):
    def calls(args):
        totals, _ = layer_totals([runs[args][1][0][1]])
        return {n: t[0] for n, t in totals.items()}

    split, inert, scan, probe = (calls(args) for args in CASES)
    assert split["cyclotomic.bicycint_mul"] > 0
    assert inert["arith.ff_trace"] > 0
    for layer_calls in (scan, probe):
        assert layer_calls["cyclotomic.bicycint_mul"] == 0
        assert layer_calls["arith.ff_trace"] == 0
    for layer_calls in (split, inert, probe):
        assert layer_calls["groupring.fp_gr_eval"] == 0
