"""Every narrative script under demos/ runs to completion with its default
arguments, and prints the same bytes it printed when they were pinned."""

import hashlib
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "gauss_sum_walkthrough": "5c6436322d7740f5ac1e3c3b91698bb13789f26fe7cf29e6bf00d8d2546313a3",
    "irregular_scan": "a2304bd99b689735c96f88dbd3f375efe763acadd8bcdcf41d58700f0d95395c",
    "stickelberger_identities": "a5a72102c4db2148186ef2f975c99872db20525822bfc61a10d58dfa787d0128",
}


@lru_cache(maxsize=None)
def _run(demo, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo), *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        timeout=120,
    )


def test_three_demos_found():
    assert [d.name for d in DEMOS] == [
        "gauss_sum_walkthrough.py",
        "irregular_scan.py",
        "stickelberger_identities.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_zero(demo):
    done = _run(demo)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_is_pinned(demo):
    done = _run(demo)
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo.stem]


def test_gauss_walkthrough_runs_an_inert_pair():
    # f = 3: g lives in Z[zeta_p], and the walkthrough prints its inert branch
    done = _run(ROOT / "demos" / "gauss_sum_walkthrough.py", "7", "2")
    assert done.returncode == 0, done.stderr.decode()
    assert b"inert case extras" in done.stdout
    assert done.stdout.endswith(b"all checks: PASS\n")
