"""Smoke runs of the scripts in scripts/, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, guard=None):
    env = dict(os.environ)
    env.pop("MDSFORGE_GUARD", None)
    if guard is not None:
        env["MDSFORGE_GUARD"] = guard
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


def test_certify_families_prints_guard_refusals_under_the_env_guard():
    done = run_script("certify_families.py", "--min-distance", guard="2000")
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    rows = {line.split()[0]: line for line in done.stdout.splitlines()[2:]}
    assert len(rows) == 12
    assert rows["cor44(13,3,6)"].split()[5] == "-"  # q^k = 2197 > 2000
    assert rows["thm415(11,2,3,34)"].endswith("C(34,3) = 5984 exceeds subset guard 2000")
    assert rows["cor411(4,5)"].endswith("C(16,5) = 4368 exceeds subset guard 2000")


def test_scripts_refuse_a_malformed_env_guard():
    for name, args in [("certify_families.py", []),
                       ("length_probe.py", ["--field", "7", "--k", "3"])]:
        done = run_script(name, *args, guard="junk")
        assert (done.returncode, done.stdout) == (2, ""), name
        assert done.stderr == "error: MDSFORGE_GUARD must be an integer, got 'junk'\n", name


def test_length_probe_runs_greedy():
    done = run_script("length_probe.py", "--field", "7", "--k", "3", "--strategies", "greedy")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "field GF(7^1) = GF(7), k=3, r=1"
    assert lines[1].split() == ["n", "greedy"]
    assert lines[-1].startswith("greedy: longest set found n = ")


def probe_row(line):
    """n and the 12-character cells of a row of length_probe.py."""
    assert (len(line) - 4) % 13 == 0, line
    return line[:4].strip(), [line[i:i + 12] for i in range(5, len(line), 13)]


def proof_seconds(cell):
    """The proof time in a `none` cell such as ' none 0.011s'."""
    word, seconds = cell.split()
    assert word == "none" and seconds.endswith("s"), cell
    return float(seconds[:-1])


def test_length_probe_keeps_none_for_proofs():
    # six points of GF(13) are the most with no zero 3-sum: exhaustive
    # proves n = 7 impossible, greedy only stops there
    done = run_script("length_probe.py", "--field", "13", "--k", "3",
                      "--strategies", "greedy,exhaustive")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[1].split() == ["n", "greedy", "exhaustive"]
    n, (greedy, exhaustive) = probe_row(lines[3])
    assert (n, greedy) == ("7", "     gave up")
    assert proof_seconds(exhaustive) >= 0
    assert lines[-2:] == ["greedy: longest set found n = 6",
                          "exhaustive: longest set found n = 6"]


def test_length_probe_proves_gf19_length_9_impossible():
    # the benchmark's first proof: eight points of GF(19) are the most with
    # no zero 3-sum
    done = run_script("length_probe.py", "--field", "19", "--k", "3",
                      "--strategies", "exhaustive")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    n, (exhaustive,) = probe_row(lines[-3])
    assert n == "9" and proof_seconds(exhaustive) >= 0
    assert lines[-1] == "exhaustive: longest set found n = 8"


def test_length_probe_prints_guard_past_the_subset_guard():
    # C(37, 7) exceeds the exhaustive search's subset guard: the column
    # reads `guard` and the strategy stops there
    done = run_script("length_probe.py", "--field", "37", "--k", "3",
                      "--strategies", "exhaustive")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[3].split() == ["7", "guard"]
    assert lines[-1] == "exhaustive: longest set found n = 6"


def test_length_probe_random_strategy_honors_the_env_guard():
    # C(6, 3) = 20 random subsets pass a guard of 20; C(7, 3) = 35 do not
    done = run_script("length_probe.py", "--field", "13", "--k", "3",
                      "--strategies", "random", guard="20")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[2].split()[0] == "6" and lines[3].split() == ["7", "guard"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["--field", "4", "--k", "3"], "4 is not prime"),
        (["--field", "2,200", "--k", "3"], "exceeds the size limit"),
        (["--field", "abc", "--k", "3"], "'p' or 'p,m'"),
        (["--field", "7", "--k", "0"], "k must be >= 1"),
        (["--field", "7", "--k", "3", "--strategies", "gredy"], "unknown strategy 'gredy'"),
        (["--field", "2,25", "--k", "3"], "exceeds enumeration guard 16777216"),
        (["--field", "13", "--k", "3", "--max-attempts", "0", "--strategies", "random"],
         "max_attempts must be >= 1"),
        (["--field", "13", "--k", "3", "--max-attempts", "-3", "--strategies", "random"],
         "max_attempts must be >= 1"),
    ],
)
def test_length_probe_rejects_bad_parameters(args, message):
    done = run_script("length_probe.py", *args)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and message in done.stderr
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
