"""Smoke runs of the scripts in scripts/, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_certify_families_certifies_the_whole_batch():
    done = run_script("certify_families.py", "--min-distance")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[2:]]
    assert len(rows) == 12
    walked = 0
    for _, shape, mds, _, verdict, d, _ in rows:
        assert (mds, verdict) == ("True", "non_rs"), shape
        if d != "-":  # the codes under the codeword guard: d = n - k + 1
            n, k = map(int, shape[1:].split("]")[0].split(","))
            assert int(d) == n - k + 1, shape
            walked += 1
    assert walked == 6


def test_length_probe_runs_greedy():
    done = run_script("length_probe.py", "--field", "7", "--k", "3", "--strategies", "greedy")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "field GF(7^1) = GF(7), k=3, r=1"
    assert lines[1].split() == ["n", "greedy"]
    assert lines[-1].startswith("greedy: longest set found n = ")


def test_length_probe_keeps_none_for_proofs():
    # six points of GF(13) are the most with no zero 3-sum: exhaustive
    # proves n = 7 impossible, greedy only stops there
    done = run_script("length_probe.py", "--field", "13", "--k", "3",
                      "--strategies", "greedy,exhaustive")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[1].split() == ["n", "greedy", "exhaustive"]
    assert lines[3].split() == ["7", "gave", "up", "none"]
    assert lines[-2:] == ["greedy: longest set found n = 6",
                          "exhaustive: longest set found n = 6"]


def test_length_probe_prints_guard_past_the_subset_guard():
    # C(37, 7) exceeds the exhaustive search's subset guard: the column
    # reads `guard` and the strategy stops there
    done = run_script("length_probe.py", "--field", "37", "--k", "3",
                      "--strategies", "exhaustive")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[3].split() == ["7", "guard"]
    assert lines[-1] == "exhaustive: longest set found n = 6"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--field", "4", "--k", "3"], "4 is not prime"),
        (["--field", "2,200", "--k", "3"], "exceeds the size limit"),
        (["--field", "abc", "--k", "3"], "'p' or 'p,m'"),
        (["--field", "7", "--k", "0"], "k must be >= 1"),
        (["--field", "7", "--k", "3", "--strategies", "gredy"], "unknown strategy 'gredy'"),
        (["--field", "2,25", "--k", "3"], "exceeds enumeration guard 16777216"),
    ],
)
def test_length_probe_rejects_bad_parameters(args, message):
    done = run_script("length_probe.py", *args)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and message in done.stderr
    assert "Traceback" not in done.stderr
