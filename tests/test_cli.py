import argparse
import ast
import gc
import hashlib
import inspect
import io
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stickelberger import arith, cli, cyclotomic, gauss, groupring, principality, regularity
from stickelberger.cli import (
    LIMITS,
    MAX_FIELD_ORDER,
    MAX_PROBE_BOUND,
    MAX_PROBE_P,
    MAX_RING_ENTRIES,
    MAX_SCAN_PMAX,
    _encode,
    _gauss_size_error,
    _json_text,
    build_parser,
    main,
)
from stickelberger.principality import HalfDegreeVerdict, ProbeWitness, principal_norm_probe

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).parent.parent / "src"
DOCS_CLI_OUTPUT = Path(__file__).parent.parent / "docs" / "cli-output.md"

GOLDEN_CASES = {
    "scan_irregular_pmax40.txt": ["scan-irregular", "--pmax", "40"],
    "bernoulli_p7.txt": ["bernoulli", "--p", "7"],
    "stickelberger_show_p5_q3.txt": ["stickelberger", "show", "-p", "5", "-q", "3"],
    "gauss_verify_p5_q11.txt": ["gauss", "verify", "-p", "5", "-q", "11"],
    "principality_test_p7_q2.txt": ["principality", "test", "-p", "7", "-q", "2"],
    "principality_corollary_p7.txt": ["principality", "corollary", "-p", "7"],
    "principality_probe_p3_bound60.txt": [
        "principality", "probe", "-p", "3", "--bound", "60",
    ],
    "suite_pmax40.txt": ["suite", "--pmax", "40"],
}


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(name):
    code, text = run_cli(GOLDEN_CASES[name])
    assert code == 0
    assert text == (GOLDEN_DIR / name).read_text()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_consecutive_runs_byte_identical(name):
    _, first = run_cli(GOLDEN_CASES[name])
    _, second = run_cli(GOLDEN_CASES[name])
    assert first == second


def _assert_no_child_left():
    """Every process this one forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _moved_oracle(real, p, moves):
    """`real` with B_k of p moved by d in the oracle's table, for each
    k -> d of `moves`; the `python -O` scripts embed its source."""

    def moved(prime):
        table = real(prime)
        if prime == p:
            for k, d in moves.items():
                table[k] = (table[k] + d) % p
        return table

    return moved


MOVED_ORACLE = inspect.getsource(_moved_oracle)


def test_jobs_do_not_change_bytes():
    # more jobs than items (4 primes, 10 pairs) and no items at all included
    for argv, jobs in [
        (["suite", "--pmax", "40"], "3"),
        (["scan-irregular", "--pmax", "60"], "3"),
        (["suite", "--pmax", "12"], "8"),
        (["scan-irregular", "--pmax", "2"], "2"),
    ]:
        serial = run_cli(argv)
        assert run_cli([*argv, "--jobs", jobs]) == serial
        _assert_no_child_left()


class TestForkedJobs:
    """`--jobs 2` over the odd primes up to 60: the parent scans items[0::2],
    among them p = 37, and its child items[1::2], among them p = 59; both
    are irregular, and every odd value of Q is checked against the
    Bernoulli oracle's table of its own p."""

    ARGV = ["scan-irregular", "--pmax", "60", "--jobs", "2"]

    @pytest.mark.parametrize("p, k", [(37, 32), (59, 44)], ids=["37", "59"])
    def test_failed_check_in_either_share_exits_1(self, monkeypatch, capsys, p, k):
        # B_k, p's irregular index, moved by one in the oracle's table
        moved = _moved_oracle(regularity.bernoulli_mod_p, p, {k: 1})
        oracle_here = []

        def sabotage(prime):
            oracle_here.append(prime)
            return moved(prime)

        monkeypatch.setattr("stickelberger.regularity.bernoulli_mod_p", sabotage)
        code, text = run_cli(self.ARGV)
        assert code == 1 and text == ""
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: verification failed: Q(v^{p - k}) mod {p}: "
            "chirp and Bernoulli oracle disagree"
        ]
        # 37 is checked in this process; 59 only in the child
        assert (37 in oracle_here, 59 in oracle_here) == (True, False)
        _assert_no_child_left()

    def test_failure_here_kills_a_blocked_child(self, monkeypatch, capsys):
        """This process's share fails at its first item, p = 3, while the
        child's share blocks: the run ends at once, with the parent's
        error, and the child is killed and reaped."""
        real = regularity.q_root_scan
        parent = os.getpid()

        def stall(p):
            if os.getpid() != parent and p == 5:  # the child's first item
                time.sleep(60)
            elif p == 3:
                raise arith.VerificationError("p=3 refused here")
            return real(p)

        monkeypatch.setattr("stickelberger.cli.q_root_scan", stall)
        start = time.monotonic()
        code, text = run_cli(self.ARGV)
        assert time.monotonic() - start < 20
        assert code == 1 and text == ""
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: verification failed: p=3 refused here"]
        _assert_no_child_left()

    def test_value_error_in_a_child_exits_2(self, monkeypatch, capsys):
        real = regularity.q_root_scan

        def refuse(p):
            if p == 59:
                raise ValueError(f"p={p} refused in pid {os.getpid()}")
            return real(p)

        monkeypatch.setattr("stickelberger.cli.q_root_scan", refuse)
        code, text = run_cli(self.ARGV)
        assert code == 2 and text == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: p=59 refused in pid ")
        assert int(err[0].rpartition(" ")[2]) != os.getpid()
        _assert_no_child_left()

    @pytest.mark.parametrize(
        "end, status",
        [(lambda: os._exit(3), 3 << 8), (lambda: os.kill(os.getpid(), signal.SIGKILL), 9)],
        ids=["exit", "kill"],
    )
    def test_child_without_a_result_exits_1(self, monkeypatch, capsys, end, status):
        real = regularity.q_root_scan
        parent = os.getpid()

        def die(p):
            if p == 59 and os.getpid() != parent:
                end()
            return real(p)

        monkeypatch.setattr("stickelberger.cli.q_root_scan", die)
        code, text = run_cli(self.ARGV)
        assert code == 1 and text == ""
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: worker 1 of 2 ended without a result (wait status {status})"]
        _assert_no_child_left()

    def test_jobs_without_fork_exit_2_before_any_work(self, monkeypatch, capsys):
        def started(*args, **kwargs):
            raise RuntimeError("work started")

        monkeypatch.delattr(os, "fork")
        code, text = run_cli(["scan-irregular", "--pmax", "40", "--jobs", "1"])
        assert code == 0 and text == (GOLDEN_DIR / "scan_irregular_pmax40.txt").read_text()
        monkeypatch.setattr("stickelberger.cli.q_root_scan", started)
        for command in (["scan-irregular", "--pmax", "40"], ["suite"]):
            code, text = run_cli([*command, "--jobs", "2"])
            assert code == 2 and text == ""
            err = capsys.readouterr().err.splitlines()
            assert err == ["error: --jobs above 1 needs os.fork, which this platform lacks"]


class TestExitCodes:
    def test_input_errors_exit_2(self):
        assert run_cli(["gauss", "verify", "-p", "5", "-q", "5"])[0] == 2
        assert run_cli(["gauss", "verify", "-p", "4", "-q", "7"])[0] == 2
        assert run_cli(["bernoulli", "--p", "9"])[0] == 2
        assert run_cli(["principality", "test", "-p", "5", "-q", "11"])[0] == 2
        assert run_cli(["principality", "corollary", "-p", "13"])[0] == 2
        assert run_cli(["stickelberger", "show", "-p", "5", "-q", "11"])[0] == 2

    @pytest.mark.parametrize("q", [4, 5, 9])
    def test_s2_needs_a_prime_other_than_p(self, capsys, q):
        for command in (["stickelberger", "show"], ["principality", "test"]):
            code, text = run_cli([*command, "-p", "5", "-q", str(q)])
            assert code == 2 and text == ""
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: q={q} is not a prime other than p=5"]

    def test_nonpositive_config_exits_2(self):
        assert run_cli(["scan-irregular", "--pmax", "-3"])[0] == 2
        assert run_cli(["principality", "probe", "-p", "3", "--bound", "0"])[0] == 2

    @pytest.mark.parametrize("option", ["--hensel-precision", "--valuation-cap"])
    def test_gauss_verify_takes_only_the_pair(self, option, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["gauss", "verify", "-p", "5", "-q", "11", option, "40"])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["frobnicate"])
        assert err.value.code == 2

    def test_math_failure_exits_1(self, monkeypatch):
        real = gauss.build_record

        def sabotage(p, q):
            record = real(p, q)
            record.checks["g_times_conj_equals_q_to_f"] = False
            return record

        monkeypatch.setattr("stickelberger.cli.build_record", sabotage)
        code, text = run_cli(["gauss", "verify", "-p", "3", "-q", "7"])
        assert code == 1
        assert json.loads(text)["ok"] is False


    def test_failed_check_exits_1_with_one_error_line(self, monkeypatch, capsys):
        # B_32 of p = 37 moved by one: the oracle no longer matches Q(v^5)
        monkeypatch.setattr(
            "stickelberger.regularity.bernoulli_mod_p",
            _moved_oracle(regularity.bernoulli_mod_p, 37, {32: 1}),
        )
        code, _ = run_cli(["scan-irregular", "--pmax", "40"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ")
        assert "Q(v^5) mod 37" in err[0]

    def test_swapped_oracle_entries_exit_1(self, monkeypatch, capsys):
        # B_30 and B_32 of p = 37 swapped: the irregular count stays 1, but
        # the values at n = 5 and n = 7 disagree with Q
        real = regularity.bernoulli_mod_p
        table = real(37)
        swap = {30: table[32] - table[30], 32: table[30] - table[32]}
        monkeypatch.setattr(
            "stickelberger.regularity.bernoulli_mod_p", _moved_oracle(real, 37, swap)
        )
        code, text = run_cli(["scan-irregular", "--pmax", "40"])
        assert code == 1 and text == ""
        assert capsys.readouterr().err.splitlines() == [
            "error: verification failed: Q(v^5) mod 37: chirp and Bernoulli oracle disagree"
        ]

    def test_moved_q_coefficient_exits_1_with_one_error_line(self, monkeypatch, capsys):
        # delta_5 of p = 37 moved by one: Q no longer factors through Q1
        real = regularity.polynomial_Q

        def moved(p, v):
            q = real(p, v)
            return q if p != 37 else (*q[:5], q[5] + 1, *q[6:])

        monkeypatch.setattr("stickelberger.regularity.polynomial_Q", moved)
        code, text = run_cli(["scan-irregular", "--pmax", "40"])
        assert code == 1 and text == ""
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "error: verification failed: p=37: Q is not Q1 * (1 + sigma + ... + sigma^17)"
        ]

    @pytest.mark.parametrize("command", ["scan-irregular", "suite"])
    def test_oversized_pmax_exits_2_without_scanning(self, monkeypatch, command):
        def refuse(p, v=None):
            raise RuntimeError("scan started")

        monkeypatch.setattr("stickelberger.cli.q_root_scan", refuse)
        assert run_cli([command, "--pmax", str(MAX_SCAN_PMAX + 1)])[0] == 2

    @pytest.mark.parametrize(
        "p, q, reason",
        [
            (47, 2, "residue field has 8388608 elements"),
            (101, 2, "residue field has"),
            (683, 2, "residue field has 4194304 elements"),
            (251, 503, "(p-1)(q-1) = 125500"),
            (757, 3, "-p must be at most"),
        ],
    )
    def test_oversized_gauss_pair_exits_2_without_a_field(
        self, monkeypatch, capsys, p, q, reason
    ):
        def refuse(*args):
            raise RuntimeError("field built")

        monkeypatch.setattr("stickelberger.cli.build_record", refuse)
        monkeypatch.setattr("stickelberger.gauss.field_make", refuse)
        code, text = run_cli(["gauss", "verify", "-p", str(p), "-q", str(q)])
        assert code == 2 and text == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and reason in err[0]

    @pytest.mark.parametrize(
        "pair", [(41, 2), (13, 1013), (631, 43), (3, 7), (337, 2), (239, 479), (571, 109)]
    )
    def test_gauss_pairs_at_the_bounds_are_accepted(self, pair):
        assert _gauss_size_error(*pair) is None
        assert pair[0] <= LIMITS["gauss verify"]["-p"]

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["-p", str(MAX_PROBE_P + 2)], f"-p must be at most {MAX_PROBE_P}"),
            (["-p", "101", "--bound", "500"], "-p must be at most"),
            (
                ["-p", "7", "--bound", str(MAX_PROBE_BOUND + 1)],
                "--bound must be at most",
            ),
        ],
    )
    def test_oversized_probe_exits_2_without_probing(
        self, monkeypatch, capsys, argv, reason
    ):
        def refuse(*args):
            raise RuntimeError("probe started")

        monkeypatch.setattr("stickelberger.cli.principal_norm_probe", refuse)
        code, text = run_cli(["principality", "probe", *argv])
        assert code == 2 and text == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and reason in err[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["-p", "7", "--bound", "30000"],
            ["-p", "3"],
            ["-p", "5", "--bound", "10000"],
            ["-p", str(MAX_PROBE_P), "--bound", str(MAX_PROBE_BOUND)],
        ],
    )
    def test_probes_within_the_bounds_are_accepted(self, monkeypatch, argv):
        calls = []
        monkeypatch.setattr(
            "stickelberger.cli.principal_norm_probe",
            lambda *args: calls.append(args) or principal_norm_probe(3, 1),
        )
        assert run_cli(["principality", "probe", *argv])[0] == 0
        assert len(calls) == 1

    # fork is replaced too, so that no refusal test ever starts a process
    SCAN_WORK = ["stickelberger.cli.q_root_scan", "stickelberger.cli.os.fork"]

    # each command's accepted arguments and its first computations, which a
    # refusal must never reach
    FIRST_WORK = {
        "bernoulli": ({"--p": 7}, ["stickelberger.cli.bernoulli_mod_p"]),
        "stickelberger show": ({"-p": 5, "-q": 3}, ["stickelberger.cli.primitive_root"]),
        "gauss verify": ({"-p": 5, "-q": 11}, ["stickelberger.cli.build_record"]),
        "principality test": (
            {"-p": 7, "-q": 2},
            ["stickelberger.cli.principality_test"],
        ),
        "principality corollary": (
            {"-p": 7},
            ["stickelberger.cli.half_degree_corollary"],
        ),
        "principality probe": (
            {"-p": 3, "--bound": 60, "--coeff-bound": 2},
            ["stickelberger.cli.principal_norm_probe"],
        ),
        "scan-irregular": ({"--pmax": 40, "--jobs": 1}, SCAN_WORK),
        "suite": ({"--pmax": 40, "--jobs": 1}, SCAN_WORK),
    }

    def test_every_integer_option_has_a_limit(self):
        def int_options(parser, prefix):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        yield from int_options(sub, prefix + [name])
                elif action.type is int:
                    yield " ".join(prefix), action.option_strings[0]

        options = set(int_options(build_parser(), []))
        assert options == {(c, flag) for c in LIMITS for flag in LIMITS[c]}
        assert set(self.FIRST_WORK) == set(LIMITS)
        positive_only = {(c, f) for c in LIMITS for f, limit in LIMITS[c].items() if not limit}
        assert positive_only == {
            ("gauss verify", "-q"),
            ("principality probe", "--coeff-bound"),
        }

    def test_docs_limit_table_matches_limits(self):
        """The limit table of docs/cli-output.md lists every bounded option
        of LIMITS at its value, and the paragraph under it names the ring
        entries and field order bounds of `gauss verify`."""
        text = DOCS_CLI_OUTPUT.read_text()
        rest = text.partition("| command | limits |\n| --- | --- |\n")[2]
        table, _, rest = rest.partition("\n\n")
        documented = {}
        for row in table.splitlines():
            commands, limits = row.strip("| ").split(" | ")
            entries = {}
            for entry in limits.split(", "):
                flag, value = entry.split()
                entries[flag.strip("`")] = int(value)
            for command in commands.split(", "):
                documented[command.strip("`")] = entries
        bounded = {c: {f: lim for f, lim in LIMITS[c].items() if lim is not None} for c in LIMITS}
        assert documented == bounded
        paragraph = rest.partition("\n## ")[0]
        assert f"`(p-1)(q-1) > {MAX_RING_ENTRIES}`" in paragraph
        exponent = MAX_FIELD_ORDER.bit_length() - 1
        assert MAX_FIELD_ORDER == 2**exponent
        assert f"`2^{exponent}`" in paragraph

    @pytest.mark.parametrize("command", sorted(FIRST_WORK))
    def test_p_above_the_limit_exits_2_before_any_work(
        self, monkeypatch, capsys, command
    ):
        """Every entry of the command's LIMITS: a value at the limit reaches
        the first computation; zero, a negative value and values above the
        limit exit 2 with one stderr line and no stdout."""
        accepted, first = self.FIRST_WORK[command]

        def started(*args, **kwargs):
            raise RuntimeError("work started")

        for target in first:
            monkeypatch.setattr(target, started)

        def argv(flag, value):
            options = {**accepted, flag: value}
            return command.split() + [str(x) for item in options.items() for x in item]

        for flag, limit in LIMITS[command].items():
            refusals = [(0, "positive"), (-3, "positive")]
            if limit is not None:
                with pytest.raises(RuntimeError, match="work started"):
                    run_cli(argv(flag, limit))
                refusals += [
                    (limit + 1, f"at most {limit}"),
                    (limit + 10**9 + 7, f"at most {limit}"),
                ]
            for value, reason in refusals:
                code, text = run_cli(argv(flag, value))
                assert code == 2 and text == ""
                err = capsys.readouterr().err.splitlines()
                assert err == [f"error: {flag} must be {reason}"]


# sha256 of `gauss verify` stdout beyond the (5, 11) golden, recorded before
# the character walk and the packed Z[zeta_pq] product replaced the
# per-element grid and the schoolbook product.
GAUSS_VERIFY_SHA256 = {
    (17, 103): "4a9044213635580c8cac397db29353932d247730d6270621ae51a53ea8fa604a",
    (13, 2): "aa6d84f19ec1c507512c7a6c10c4b084ad7c18d2681d67ff3553f3c7d51f3d3a",
    (19, 191): "73c8eae19ef3f114c31194548024fe1c36c1520f1ae9b57e08e597e6cfb48d34",
    (43, 2): "89c31247733aaba4cc7030eb96d9acb1359a87ea60452814787b9e4fe50dc3fb",
    # 60 labels, two-digit ones among them: pins the label rule and the
    # order of the relabel matches
    (61, 367): "4712d71c26303855ddad7ffffc104526206eded39e800905c5fe05909922dcee",
    # the slowest walks before the trace recurrence, recorded with the
    # walk of one field product per element
    (13, 1013): "0abf936bd3018da6d52ae4783de29cb708a9356b2de49a9dea2647acdf13b3de",
    (73, 3): "105254b9914da555e51fc55420fd9f1ee3b5db98866b494e2f1c832d15a1a974",
    (41, 2): "92aafc70da568003db3b909a19b5d5f428522ba35ef8aa24b8893319f316a604",
    # odd f = 3 with a wide ring (13356 entries), recorded while an inert g
    # was reduced in Z[zeta_pq] and collapsed into Z[zeta_p]
    (127, 107): "eee1fda4b856a73d20204cd812abb0d19acba20fca02736da4b6a26b4879df8d",
}


@pytest.mark.parametrize("pair", sorted(GAUSS_VERIFY_SHA256))
def test_gauss_verify_digest(pair):
    code, text = run_cli(["gauss", "verify", "-p", str(pair[0]), "-q", str(pair[1])])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == GAUSS_VERIFY_SHA256[pair]


# sha256 of the group-ring commands at a wide p, beyond their p = 5 and
# p = 7 goldens, recorded before S, P, Q and S2 were each built once per run.
GROUP_RING_SHA256 = {
    ("stickelberger", "show", "-p", "9973", "-q", "2"):
        "93a2247f8f9a0457ff7dd94609db999cc4a6464a30965cc96b3e2f424d5549d1",
    # at the -p limit, recorded while the identity checks were ring products
    ("stickelberger", "show", "-p", "199999", "-q", "1199993"):
        "cea82f915591ea901632f0ca07ab365776a8349ed8825a5f7ad2d1ed9fc35c18",
    ("principality", "test", "-p", "9973", "-q", "5"):
        "34f6d898ab142e9979b1d50b83328eb6082aa2fcca4f72e832a4b9a5f9d66b5b",
    # at the -p limit with f = 2, recorded while S2 carried p-1 coefficients
    ("principality", "test", "-p", "199999", "-q", "1199993"):
        "4c11f3b0fbfeb0a47be5c5f92a29c4f2fe2f888e11e55a178f8d239bfb5f34a1",
    ("principality", "corollary", "-p", "9967"):
        "3889077dd65f9be5546fe8f9d98979c5f84bbe0d316c332ce6d3a6f8b2cca354",
    # recorded with the full-length inverse of (e^x - 1)/x as the Bernoulli
    # oracle and one int.to_bytes call per packed slot
    ("bernoulli", "--p", "9973"):
        "3aa02d57f2d3392a9808aca73d89badb7de1f20a712a363050481a7d845555ed",
    ("scan-irregular", "--pmax", "2000"):
        "70e10f04db74abe7de126d06887f445ad2ce493b113163984f169653b897b8c0",
}


@pytest.mark.parametrize("argv", sorted(GROUP_RING_SHA256))
def test_group_ring_digest(argv):
    code, text = run_cli(list(argv))
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == GROUP_RING_SHA256[argv]


# sha256 of `principality probe` stdout beyond the p = 3 golden, recorded
# before each distinct norm got one primality verdict and before the JSON
# writer replaced json.dumps; -p 7 --bound 30000 is perfbench's probe.  The
# last four were recorded before the sweep summed its values by prefix:
# p = 13 walks 12 entries deep, --coeff-bound 3 and 1 prune at the other
# bounds, and -p 7 --bound 6000 --coeff-bound 1 exhausts the box of 3^6 x.
PROBE_SHA256 = {
    ("-p", "7", "--bound", "30000"):
        "3d6b26ced39741109078d0f055591200beb49e8e6e38202744527f88481c5716",
    ("-p", "11", "--bound", "20000"):
        "fa887fd914b0773f2c9aebc01cc419d73005b59420f121376cea13e1f8020dca",
    ("-p", "31", "--bound", "300"):
        "2a7f9763d59a232f4443c32b88deb738e5cf9d2821bd491a5edc9973453403f8",
    ("-p", "5", "--bound", "3000"):
        "cc1af43be47becefe82e1e36ae986c3a45485d99f2a6ff9bf53ef12b7055c376",
    ("-p", "13", "--bound", "2000"):
        "8fe3c12755f2a22cee26adbf040dd9cf669bba579672369327363f64cdb58d61",
    ("-p", "7", "--bound", "20000", "--coeff-bound", "3"):
        "af0a01660917dfbebabb02395d09a264f7d1c6a6af4d69379ec4dda65b9f32be",
    ("-p", "7", "--bound", "6000", "--coeff-bound", "1"):
        "c361b295d0b438e13133ce54b11a74316734d0182429af68d861f2b03cf754e8",
}


@pytest.mark.parametrize("argv", sorted(PROBE_SHA256))
def test_probe_digest(argv):
    code, text = run_cli(["principality", "probe", *argv])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == PROBE_SHA256[argv]


def test_show_builds_each_group_ring_element_once(monkeypatch):
    # two power tables: P's inverse powers and the powers behind S's
    # discrete logs; Q's builder is the one pass of the delta loop.  The
    # identity checks read coefficients, so no ring product runs at all.
    counts = Counter()

    def counted(name, build):
        def wrapper(*args):
            counts[name] += 1
            return build(*args)

        return wrapper

    for name in ("_power_table", "stickelberger_S", "polynomial_P", "polynomial_Q", "polynomial_S2"):
        build = getattr(groupring, name)
        for module in (groupring, cli):
            if getattr(module, name, None) is build:
                monkeypatch.setattr(module, name, counted(name, build))
    for module in (arith, cyclotomic):
        monkeypatch.setattr(
            module, "signed_packed_mul", counted("signed_packed_mul", arith.signed_packed_mul)
        )
    code, _ = run_cli(["stickelberger", "show", "-p", "101", "-q", "3"])
    assert code == 0
    assert counts["signed_packed_mul"] == 0
    assert counts == {
        "_power_table": 2,
        "stickelberger_S": 1,
        "polynomial_P": 1,
        "polynomial_Q": 1,
        "polynomial_S2": 1,
    }


def _checkout_env():
    """The caller's environment with PYTHONPATH set to this checkout's sources."""
    return dict(os.environ, PYTHONPATH=str(SRC_DIR))


def _run_optimized(args):
    """Run `python -O` with this checkout's sources, so asserts are gone."""
    return subprocess.run(
        [sys.executable, "-O", *args],
        capture_output=True,
        text=True,
        env=_checkout_env(),
        timeout=120,
    )


def test_optimized_scan_matches_golden():
    done = _run_optimized(["-m", "stickelberger.cli", "scan-irregular", "--pmax", "40"])
    assert done.returncode == 0
    assert done.stdout == (GOLDEN_DIR / "scan_irregular_pmax40.txt").read_text()


def test_checks_survive_optimized_mode():
    script = (
        "import sys, stickelberger.regularity as r, stickelberger.cli as c\n"
        "assert False, 'asserts must be stripped'\n"
        + MOVED_ORACLE
        + "r.bernoulli_mod_p = _moved_oracle(r.bernoulli_mod_p, 37, {32: 1})\n"
        "sys.exit(c.main(['scan-irregular', '--pmax', '40']))\n"
    )
    done = _run_optimized(["-c", script])
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert len(done.stderr.splitlines()) == 1


def test_swapped_oracle_entries_survive_optimized_mode():
    script = (
        "import sys, stickelberger.regularity as r, stickelberger.cli as c\n"
        "assert False, 'asserts must be stripped'\n"
        + MOVED_ORACLE
        + "t = r.bernoulli_mod_p(37)\n"
        "swap = {30: t[32] - t[30], 32: t[30] - t[32]}\n"
        "r.bernoulli_mod_p = _moved_oracle(r.bernoulli_mod_p, 37, swap)\n"
        "sys.exit(c.main(['scan-irregular', '--pmax', '40']))\n"
    )
    done = _run_optimized(["-c", script])
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.splitlines() == [
        "error: verification failed: Q(v^5) mod 37: chirp and Bernoulli oracle disagree"
    ]


def test_moved_q_coefficient_survives_optimized_mode():
    script = (
        "import sys, stickelberger.regularity as r, stickelberger.cli as c\n"
        "assert False, 'asserts must be stripped'\n"
        "real = r.polynomial_Q\n"
        "def moved(p, v):\n"
        "    q = real(p, v)\n"
        "    return q if p != 37 else (*q[:5], q[5] + 1, *q[6:])\n"
        "r.polynomial_Q = moved\n"
        "sys.exit(c.main(['scan-irregular', '--pmax', '40']))\n"
    )
    done = _run_optimized(["-c", script])
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.splitlines() == [
        "error: verification failed: p=37: Q is not Q1 * (1 + sigma + ... + sigma^17)"
    ]


@pytest.mark.parametrize(
    "sabotage, message",
    [
        (
            MOVED_ORACLE + "r.bernoulli_mod_p = _moved_oracle(r.bernoulli_mod_p, 59, {44: 1})\n",
            "error: verification failed: Q(v^",
        ),
        (
            "real = c.q_root_scan\n"
            "c.q_root_scan = lambda p: os._exit(3) if p == 59 else real(p)\n",
            "error: worker 1 of 2 ended without a result (wait status 768)",
        ),
    ],
    ids=["check", "exit"],
)
def test_child_failure_survives_optimized_mode(sabotage, message):
    """p = 59 fails in the child's share of `--jobs 2` (see TestForkedJobs):
    one error line, no stdout, and no process of the run's session left."""
    script = (
        "import os, sys, stickelberger.regularity as r, stickelberger.cli as c\n"
        "assert False, 'asserts must be stripped'\n"
        + sabotage
        + "sys.exit(c.main(['scan-irregular', '--pmax', '60', '--jobs', '2']))\n"
    )
    with _run_checkout(
        ["-O", "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        out, err = proc.communicate(timeout=120)
    assert proc.returncode == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(message)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_children_never_flush_inherited_stdout():
    # a line left in the parent's stdout buffer at fork is written once; the
    # script buffers stdout itself, whatever PYTHONUNBUFFERED says
    script = (
        "import sys, stickelberger.cli as c\n"
        "sys.stdout = open(1, 'w', closefd=False)\n"
        "sys.stdout.write('# before\\n')\n"
        "sys.exit(c.main(['scan-irregular', '--pmax', '40', '--jobs', '3']))\n"
    )
    with _run_checkout(["-c", script], stdout=subprocess.PIPE, text=True) as proc:
        out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert out == "# before\n" + (GOLDEN_DIR / "scan_irregular_pmax40.txt").read_text()


def test_valuation_bound_survives_optimized_mode():
    # a lambda quotient that returns its input would otherwise never stop
    script = (
        "import sys, stickelberger.cyclotomic as cy, stickelberger.cli as c\n"
        "assert False, 'asserts must be stripped'\n"
        "cy._lambda_quotient = lambda col, p: col\n"
        "sys.exit(c.main(['gauss', 'verify', '-p', '5', '-q', '3']))\n"
    )
    done = _run_optimized(["-c", script])
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: verification failed: lambda valuation")
    assert len(done.stderr.splitlines()) == 1


def _move_one_count(real):
    """A `_character_grid` whose walk lost a step in row 1 and gained one in
    row 2, in the same column."""

    def moved(fd):
        grid = real(fd)
        column = next(t for t, n in enumerate(grid[1]) if n)
        grid[1][column] -= 1
        grid[2][column] += 1
        return grid

    return moved


def test_moved_coset_count_fails_the_inert_record(monkeypatch):
    monkeypatch.setattr(gauss, "_character_grid", _move_one_count(gauss._character_grid))
    code, text = run_cli(["gauss", "verify", "-p", "7", "-q", "2"])
    assert code == 1
    assert json.loads(text)["checks"]["g_times_conj_equals_q_to_f"] is False


def test_moved_coset_count_survives_optimized_mode():
    script = (
        "import sys, stickelberger.gauss as g, stickelberger.cli as c\n"
        "assert False, 'asserts must be stripped'\n"
        "real = g._character_grid\n"
        "def moved(fd):\n"
        "    grid = real(fd)\n"
        "    column = next(t for t, n in enumerate(grid[1]) if n)\n"
        "    grid[1][column] -= 1\n"
        "    grid[2][column] += 1\n"
        "    return grid\n"
        "g._character_grid = moved\n"
        "sys.exit(c.main(['gauss', 'verify', '-p', '7', '-q', '2']))\n"
    )
    done = _run_optimized(["-c", script])
    assert done.returncode == 1, done.stderr
    assert json.loads(done.stdout)["checks"]["g_times_conj_equals_q_to_f"] is False


def test_walk_check_survives_optimized_mode():
    # zeta_p_image has order 5, so the walk returns to 1 long before 3^4 - 1
    script = (
        "import sys, stickelberger.gauss as g, stickelberger.cli as c\n"
        "assert False, 'asserts must be stripped'\n"
        "real = g.field_make\n"
        "def bad(p, q):\n"
        "    fd = real(p, q)\n"
        "    return fd._replace(generator=fd.zeta_p_image)\n"
        "g.field_make = bad\n"
        "sys.exit(c.main(['gauss', 'verify', '-p', '5', '-q', '3']))\n"
    )
    done = _run_optimized(["-c", script])
    assert done.returncode == 1
    assert done.stderr.startswith("error: verification failed: generator")
    assert len(done.stderr.splitlines()) == 1


def test_low_order_generator_survives_optimized_mode():
    # gen^2 has order (29^3 - 1)/2: only the cofactor check for 2 sees it
    script = (
        "import sys, stickelberger.gauss as g, stickelberger.cli as c\n"
        "assert False, 'asserts must be stripped'\n"
        "real = g.field_make\n"
        "def bad(p, q):\n"
        "    fd = real(p, q)\n"
        "    return fd._replace(generator=g.ff_mul(fd.generator, fd.generator, fd))\n"
        "g.field_make = bad\n"
        "sys.exit(c.main(['gauss', 'verify', '-p', '13', '-q', '29']))\n"
    )
    done = _run_optimized(["-c", script])
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: verification failed: generator")
    assert len(done.stderr.splitlines()) == 1


def test_group_ring_checks_survive_optimized_mode():
    # Q with one coefficient moved by 1 breaks P * (sigma - v) = p * Q and
    # the pairing delta_(i+h) = 1 - v - delta_i behind Q = Q1 * ladder
    script = (
        "import sys, stickelberger.cli as c\n"
        "assert False, 'asserts must be stripped'\n"
        "real = c.polynomial_Q\n"
        "def moved(p, v):\n"
        "    q = real(p, v)\n"
        "    return (q[0] + 1,) + q[1:]\n"
        "c.polynomial_Q = moved\n"
        "sys.exit(c.main(['stickelberger', 'show', '-p', '101']))\n"
    )
    done = _run_optimized(["-c", script])
    assert done.returncode == 1
    identities = json.loads(done.stdout)["identities"]
    assert identities == {
        "S_equals_P": True,
        "P_times_sigma_minus_v_is_pQ": False,
        "Q1_factorization": False,
    }


# S2 with one coefficient moved by delta: the refold identity of `show` and
# the full-orbit sum of `principality test` must both see it
S2_SABOTAGE_CASES = {
    "show": (cli, ["stickelberger", "show", "-p", "101", "-q", "3"]),
    "test": (principality, ["principality", "test", "-p", "7", "-q", "2"]),
}


def _s2_verdict(command, stdout):
    payload = json.loads(stdout)
    if command == "show":
        return payload["S2"]["refold_identity"]
    return payload["full_orbit_sum_ok"]


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("command", sorted(S2_SABOTAGE_CASES))
def test_moved_s2_coefficient_fails(monkeypatch, command, delta):
    module, argv = S2_SABOTAGE_CASES[command]
    real = module.polynomial_S2

    def moved(big_p, q):
        s2 = real(big_p, q)
        return (s2[0] + delta,) + s2[1:]

    monkeypatch.setattr(module, "polynomial_S2", moved)
    code, text = run_cli(argv)
    assert code == 1
    assert _s2_verdict(command, text) is False


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("command", sorted(S2_SABOTAGE_CASES))
def test_moved_s2_coefficient_fails_in_optimized_mode(command, delta):
    module, argv = S2_SABOTAGE_CASES[command]
    script = (
        f"import sys, {module.__name__} as mod, stickelberger.cli as c\n"
        "assert False, 'asserts must be stripped'\n"
        "real = mod.polynomial_S2\n"
        "def moved(big_p, q):\n"
        "    s2 = real(big_p, q)\n"
        f"    return (s2[0] + {delta},) + s2[1:]\n"
        "mod.polynomial_S2 = moved\n"
        f"sys.exit(c.main({argv!r}))\n"
    )
    done = _run_optimized(["-c", script])
    assert done.returncode == 1
    assert _s2_verdict(command, done.stdout) is False


@pytest.mark.parametrize(
    "sabotage",
    [
        # a modulus ell^1 = 29, far below the norms of the probe
        "real = cy.hensel_roots\ncy.hensel_roots = lambda n, ell, k: real(n, ell, 1)\n",
        # a root of Phi_7 mod 29 only, never lifted to 29^k
        "cy._lift_root = lambda p, q, r, precision: r\n",
    ],
)
def test_norm_check_survives_optimized_mode(sabotage):
    script = (
        "import sys, stickelberger.cyclotomic as cy, stickelberger.cli as c\n"
        "assert False, 'asserts must be stripped'\n"
        + sabotage
        + "sys.exit(c.main(['principality', 'probe', '-p', '7', '--bound', '100']))\n"
    )
    done = _run_optimized(["-c", script])
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: verification failed: norm")
    assert len(done.stderr.splitlines()) == 1


class TestPayloads:
    def test_gauss_verify_payload_shape(self):
        _, text = run_cli(["gauss", "verify", "-p", "3", "-q", "7"])
        payload = json.loads(text)
        assert payload["G"]["coeffs"] == ["14", "21"]
        assert payload["valuation_profile"] == {"1": 1, "2": 2}
        assert payload["ok"] is True
        assert all(payload["checks"].values())

    def test_big_integers_are_decimal_strings(self):
        _, text = run_cli(["gauss", "verify", "-p", "11", "-q", "23"])
        payload = json.loads(text)
        for row in payload["g"]["coeffs"]:
            assert all(isinstance(c, str) for c in row)
        int(payload["G"]["coeffs"][0])  # parses exactly

    def test_scan_has_config_echo_and_summary(self):
        _, text = run_cli(["scan-irregular", "--pmax", "40"])
        lines = text.splitlines()
        assert lines[0].startswith("# stickelberger ")
        assert lines[1] == "# scan-irregular pmax=40"
        assert lines[2].split("\t") == [
            "p", "verdict", "odd_roots", "irregular_indices", "agreement",
        ]
        assert "# summary scanned=11 irregular=1" in lines
        assert lines[-1] == "# failures -"
        assert "37\tirregular\t2\t32\tyes" in lines

    def test_suite_summary(self):
        _, text = run_cli(["suite", "--pmax", "40"])
        payload = json.loads(text)
        assert payload["summary"]["failures"] == 0
        assert payload["failures"] == []
        assert payload["summary"]["gauss_records"] == 10
        assert payload["config"] == {"pmax": 40}

    def test_probe_payload(self):
        _, text = run_cli(["principality", "probe", "-p", "3", "--bound", "60"])
        payload = json.loads(text)
        assert payload["counterexamples"] == []
        assert payload["miller_rabin_witness_count"] == 40
        assert all(w["passes"] for w in payload["witnesses"])


_INTS = st.integers() | st.integers(min_value=-(10**300), max_value=10**300)
_SCALARS = (
    # st.text draws non-ASCII characters, quotes, backslashes and control
    # characters
    st.text()
    | _INTS
    | st.booleans()
    | st.none()
    | st.frozensets(_INTS)
    # a report record, written field by field
    | st.builds(HalfDegreeVerdict, _INTS, _INTS, _INTS, _INTS, st.booleans())
    # an object with to_json_obj
    | st.builds(ProbeWitness, _INTS, st.tuples(_INTS, _INTS), _INTS, _INTS, st.booleans())
)
_KEYS = st.text() | _INTS | st.booleans() | st.none()
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(_KEYS, children),
    max_leaves=30,
)


def _records_encoded(obj):
    """obj with every report record replaced by its `_encode` form: a
    record is a tuple, which json.dumps writes as an array without calling
    `default`."""
    if hasattr(obj, "_asdict"):
        return _records_encoded(_encode(obj))
    if isinstance(obj, (list, tuple)):
        return [_records_encoded(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _records_encoded(value) for key, value in obj.items()}
    return obj


class _Level(IntEnum):
    LOW = 1
    HIGH = 2


class _Tag(str):
    pass


class _Items(list):
    pass


class _Pair(tuple):
    """A tuple subclass that is not a record: no `_asdict`."""


class TestJsonWriter:
    """`_json_text` against json.dumps(indent=2, default=_encode), the
    encoder it replaces, with records encoded first."""

    @settings(max_examples=300, deadline=None)
    @given(_TREES)
    def test_bytes_equal_json_dumps(self, obj):
        reference = json.dumps(_records_encoded(obj), indent=2, default=_encode)
        assert _json_text(obj) == reference

    @pytest.mark.parametrize("obj", [[], {}, (), [[]], {"": {}}, [(), {}], frozenset()])
    def test_empty_containers(self, obj):
        assert _json_text(obj) == json.dumps(obj, indent=2, default=_encode)

    @pytest.mark.parametrize(
        "obj", [[1, True, 0], [True], [-5, 2**100], [[1, 2], [3]], {"a": [1, 2]}]
    )
    def test_int_lists_and_their_neighbours(self, obj):
        # a list of plain ints is joined directly; bools keep the item route
        assert _json_text(obj) == json.dumps(obj, indent=2)

    def test_int_beyond_the_digit_limit_raises_on_both_routes(self):
        # 4301 digits, one more than int -> str converts by default
        big = 10**4300
        for obj in (big, [1, {"k": big}], [1, big]):
            with pytest.raises(ValueError):
                json.dumps(obj, indent=2, default=_encode)
            with pytest.raises(ValueError):
                _json_text(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            _Level.HIGH,
            {"level": _Level.HIGH},
            [_Level.LOW, _Level.HIGH],
            [_Level.LOW, "x", None],
            {_Level.HIGH: 1, 0: [_Level.LOW]},
            _Tag("t\u00e9"),
            {"tag": _Tag("t"), _Tag("k"): [_Tag("i"), 2]},
            _Items([1, 2]),
            {"items": _Items(["a", None, _Items()])},
            _Pair((1, "b")),
            [_Pair(()), {"pair": _Pair((None, _Level.LOW))}],
        ],
        ids=[
            "enum", "enum-value", "enum-items", "enum-mixed", "enum-key",
            "str", "str-value-key-item", "list", "list-value", "tuple", "tuple-item",
        ],
    )
    def test_scalar_and_container_subclasses(self, obj):
        # exact types take the table, subclasses the isinstance route, and
        # both give the bytes of json.dumps
        assert _json_text(obj) == json.dumps(obj, indent=2, default=_encode)

    def test_floats_and_tuple_keys_raise_type_error(self):
        # json.dumps writes floats, the writer refuses them: reports hold
        # exact integers only.  Neither takes a tuple key.
        for obj in (1.5, [0, 2.0], ["a", 1.5], {"x": float("nan")}, {"x": 1.5, "y": 1}):
            with pytest.raises(TypeError):
                _json_text(obj)
        assert json.dumps(1.5) == "1.5"
        for route in (_json_text, json.dumps):
            with pytest.raises(TypeError):
                route({(1, 2): 3})


def _run_checkout(args, **kwargs):
    """Start a Python process on this checkout's sources."""
    return subprocess.Popen([sys.executable, *args], env=_checkout_env(), **kwargs)


def test_import_leaves_multiprocessing_out():
    # only --jobs > 1 needs the process pool; the records are NamedTuples,
    # so dataclasses and the inspect it loads stay out, and no src/ module
    # imports fractions
    modules = ("multiprocessing", "dataclasses", "inspect", "fractions")
    script = f"import sys, stickelberger.cli\nprint([m for m in {modules} if m in sys.modules])\n"
    with _run_checkout(["-c", script], stdout=subprocess.PIPE, text=True) as proc:
        out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0 and out == "[]\n"
    # --jobs forks by hand: neither a run of it loads a process pool
    script = (
        "import io, sys, stickelberger.cli as c\n"
        "code = c.main(['scan-irregular', '--pmax', '60', '--jobs', '2'], out=io.StringIO())\n"
        "print(code, [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])\n"
    )
    with _run_checkout(
        ["-c", script], stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0 and out == "0 []\n"
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_package_import_loads_no_submodule():
    # the package re-exports nothing; callers import the layers they use
    script = (
        "import sys, stickelberger\n"
        "print(sorted(m for m in sys.modules if m.startswith('stickelberger.')))\n"
    )
    with _run_checkout(["-c", script], stdout=subprocess.PIPE, text=True) as proc:
        out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0 and out == "[]\n"


def test_closed_pipe_exits_1_without_a_traceback():
    # about 266 KB of report, more than a pipe buffers, so the writer meets
    # the closed pipe
    argv = ["-m", "stickelberger.cli", "principality", "probe", "-p", "7", "--bound", "8000"]
    with _run_checkout(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "stickelberger.cli", "bernoulli", "--p", "5"],
        capture_output=True,
        text=True,
        env=_checkout_env(),
    )
    assert result.returncode == 0
    assert "k\tB_k_mod_p" in result.stdout
    bad = subprocess.run(
        [sys.executable, "-m", "stickelberger.cli", "gauss", "verify", "-p", "5", "-q", "5"],
        capture_output=True,
        text=True,
        env=_checkout_env(),
    )
    assert bad.returncode == 2
    assert "error:" in bad.stderr


@pytest.mark.parametrize(
    "entry",
    [
        "import runpy\nrunpy.run_module('stickelberger.cli', run_name='__main__')\n",
        "import stickelberger.cli\nstickelberger.cli.console()\n",
    ],
    ids=["module", "console"],
)
def test_process_entry_freezes_the_start_up_heap(entry):
    # the oracle reports whether the heap was frozen by the time the command ran
    script = (
        "import gc, sys, stickelberger.regularity as r\n"
        "real = r.bernoulli_mod_p\n"
        "def spy(p):\n"
        "    print('frozen', gc.get_freeze_count() > 0, file=sys.stderr)\n"
        "    return real(p)\n"
        "r.bernoulli_mod_p = spy\n"
        "sys.argv = ['stickelberger', 'bernoulli', '--p', '5']\n" + entry
    )
    with _run_checkout(
        ["-c", script], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == "frozen True\n"
    assert out == run_cli(["bernoulli", "--p", "5"])[1]


def test_main_never_freezes():
    before = gc.get_freeze_count()
    assert run_cli(["scan-irregular", "--pmax", "40"])[0] == 0
    assert run_cli(["scan-irregular", "--pmax", "60", "--jobs", "2"])[0] == 0
    _assert_no_child_left()
    assert gc.get_freeze_count() == before


def test_process_entry_jobs_keep_bytes_and_leave_no_child():
    scan = ["scan-irregular", "--pmax", "60"]
    outputs = []
    for jobs in ("1", "2"):
        with _run_checkout(
            ["-m", "stickelberger.cli", *scan, "--jobs", jobs],
            stdout=subprocess.PIPE,
            start_new_session=True,
        ) as proc:
            out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        outputs.append(out)
    assert outputs[1] == outputs[0] == run_cli(scan)[1].encode()


def test_installed_command_runs_the_process_entry():
    # the [project.scripts] target, read as text: tomllib needs Python 3.11
    pyproject = (SRC_DIR.parent / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    (target,) = [
        line.split("=", 1)[1].strip().strip('"')
        for line in scripts.splitlines()
        if line.split("=", 1)[0].strip() == "stickelberger"
    ]
    module, name = target.split(":")
    assert module == "stickelberger.cli"
    # the call in cli.py's `if __name__ == "__main__":` block
    tree = ast.parse(inspect.getsource(cli))
    (block,) = [
        stmt
        for stmt in tree.body
        if isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "__name__ == '__main__'"
    ]
    assert ast.unparse(block.body) == f"{name}()"
    assert getattr(cli, name) is cli.console
