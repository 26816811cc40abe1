"""Command-line surface, exercised in-process through main()."""

import concurrent.futures
import json
import random
import time
from math import comb

import pytest

from mdsforge import certify, cli, errors, families
from mdsforge.cli import main
from mdsforge.jsonio import canonical_dumps


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out):
    return json.loads(out)


def construct_cor44(capsys, tmp_path):
    path = tmp_path / "cor44.json"
    rc, out, _ = run(
        capsys, "construct", "cor44", "--p", "13", "--k", "3", "--n", "6", "-o", str(path)
    )
    assert rc == 0
    return path, parse(out)


def test_construct_writes_canonical_file(capsys, tmp_path):
    path, obj = construct_cor44(capsys, tmp_path)
    assert obj["family"] == "cor44"
    assert obj["exponents"] == [0, 1, 3]
    on_disk = path.read_text()
    assert on_disk == canonical_dumps(obj)
    assert on_disk.endswith("\n")


def test_construct_all_families(capsys, tmp_path):
    cases = [
        ["construct", "cor44", "--p", "13", "--k", "3", "--n", "6"],
        ["construct", "cor62", "--p", "163", "--k", "3", "--r", "2", "--n", "6"],
        ["construct", "thm412", "--p", "3", "--m", "3", "--k", "4", "--n", "9"],
        ["construct", "thm415", "--p", "7", "--m", "2", "--k", "3", "--n", "14"],
        ["construct", "thm63", "--p", "7", "--m", "3", "--k", "3", "--r", "2", "--n", "6"],
        ["construct", "thm64", "--p", "73", "--m", "3", "--k", "3", "--r", "2", "--n", "10"],
        ["construct", "cor411", "--r", "4", "--k", "5"],
        ["construct", "hamming-lift", "--r", "3", "--base-q", "2", "--k", "3"],
    ]
    for argv in cases:
        rc, out, _ = run(capsys, *argv)
        assert rc == 0, argv
        obj = parse(out)
        assert obj["points"], argv


def test_construct_missing_parameter(capsys):
    rc, _, err = run(capsys, "construct", "cor44", "--p", "13", "--k", "3")
    assert rc == 2
    assert "needs" in err


def test_construct_infeasible_parameters(capsys):
    rc, _, err = run(capsys, "construct", "cor44", "--p", "13", "--k", "3", "--n", "7")
    assert rc == 2
    assert "exceeds" in err


def test_construct_unknown_family(capsys):
    rc, _, _ = run(capsys, "construct", "nosuch", "--p", "13")
    assert rc == 2


def test_verify_good_code(capsys, tmp_path):
    path, _ = construct_cor44(capsys, tmp_path)
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0
    cert = parse(out)
    assert cert["mds"] is True
    assert cert["schur_dim"] == 6
    assert cert["verdict"] == "non_rs"
    assert cert["witness"] is None
    assert cert["min_distance"] is None


def test_verify_min_distance_flag(capsys, tmp_path):
    path, _ = construct_cor44(capsys, tmp_path)
    rc, out, _ = run(capsys, "verify", str(path), "--min-distance")
    assert rc == 0
    assert parse(out)["min_distance"] == 4


def test_verify_jobs_flag_stable_output(capsys, tmp_path):
    path, _ = construct_cor44(capsys, tmp_path)
    _, out1, _ = run(capsys, "verify", str(path))
    _, out2, _ = run(capsys, "verify", str(path), "--jobs", "2")
    assert out1 == out2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one(capsys, tmp_path, jobs):
    path, _ = construct_cor44(capsys, tmp_path)
    rc, out, err = run(capsys, "verify", str(path), "--jobs", jobs)
    assert (rc, out) == (2, "")
    assert f"--jobs must be >= 1, got {jobs}" in err


def test_verify_jobs_through_a_real_pool(capsys, tmp_path, monkeypatch):
    # E = {0,1,4} has Schur polynomial h_2, which vanishes on {b, bw, bw^2}
    # for a cube root of unity w.  Planted at indices 1-3, the witness lies
    # past the block of lowest index 0, in a scan long enough for a pool.
    p, n = 1000003, 51
    assert comb(n, 3) >= certify.PARALLEL_MIN_SUBSETS
    w = next(x for x in (pow(g, (p - 1) // 3, p) for g in range(2, p)) if x != 1)
    planted = [5, 5 * w % p, 5 * w * w % p]
    others = [v for v in random.Random(7).sample(range(1, p), n) if v not in planted]
    values = others[:1] + planted + others[1 : n - 3]
    obj = {"field": {"p": p, "m": 1}, "points": [[v] for v in values], "exponents": [0, 1, 4]}
    path = tmp_path / "h2.json"
    path.write_text(canonical_dumps(obj))
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(**kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(certify.os, "cpu_count", lambda: 2)
    serial = run(capsys, "verify", str(path), "--jobs", "1")
    assert pools == []
    assert run(capsys, "verify", str(path), "--jobs", "2") == serial
    assert pools == [2]
    assert serial[0] == 1
    assert parse(serial[1])["witness"] == [1, 2, 3]


def test_verify_non_mds_exits_one(capsys, tmp_path):
    obj = {
        "field": {"p": 13, "m": 1},
        "points": [[1], [5], [7], [2], [3], [4]],
        "exponents": [0, 1, 3],
    }
    path = tmp_path / "bad.json"
    path.write_text(canonical_dumps(obj))
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 1
    cert = parse(out)
    assert cert["mds"] is False
    assert cert["witness"] == [0, 1, 2]
    assert cert["verdict"] == "indeterminate"


def test_verify_detects_stale_embedded_certificate(capsys, tmp_path):
    path, obj = construct_cor44(capsys, tmp_path)
    rc, out, _ = run(capsys, "verify", str(path))
    cert = parse(out)
    cert["schur_dim"] = 5  # falsify
    obj["certificate"] = cert
    path.write_text(canonical_dumps(obj))
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 1
    assert "does not match" in err


def test_verify_missing_file(capsys):
    rc, _, _ = run(capsys, "verify", "/nonexistent/code.json")
    assert rc == 2


def test_check_inline_points_pass(capsys):
    rc, out, _ = run(
        capsys, "check", "--field", "13", "--points", "0", "1", "2", "3", "4", "5", "--k", "3"
    )
    assert rc == 0
    obj = parse(out)
    assert obj["holds"] is True
    assert obj["witness"] is None


def test_check_inline_points_fail_with_witness(capsys):
    rc, out, _ = run(
        capsys, "check", "--field", "13", "--points", *[str(v) for v in range(7)], "--k", "3"
    )
    assert rc == 1
    obj = parse(out)
    assert obj["holds"] is False
    assert obj["witness"]["indices"] == [2, 5, 6]
    assert obj["witness"]["points"] == [[2], [5], [6]]


def test_check_code_file_infers_order(capsys, tmp_path):
    # cor62 file: exponents {0,2,3} encode the order-2 condition
    path = tmp_path / "c62.json"
    rc, _, _ = run(
        capsys, "construct", "cor62", "--p", "163", "--k", "3", "--r", "2", "--n", "6",
        "-o", str(path),
    )
    assert rc == 0
    rc, out, _ = run(capsys, "check", str(path))
    assert rc == 0
    obj = parse(out)
    assert obj["r"] == 2 and obj["k"] == 3
    assert obj["holds"] is True


def write_rs_code(tmp_path):
    # [7,3] Reed-Solomon code over GF(13): MDS, but 2 + 5 + 6 = 0 mod 13
    obj = {
        "field": {"p": 13, "m": 1},
        "points": [[v] for v in range(7)],
        "exponents": [0, 1, 2],
    }
    path = tmp_path / "rs.json"
    path.write_text(canonical_dumps(obj))
    return path


def test_check_code_file_without_gap_form_needs_r(capsys, tmp_path):
    path = write_rs_code(tmp_path)
    rc, out, err = run(capsys, "check", str(path))
    assert rc == 2
    assert out == ""
    assert "--r" in err
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0
    assert parse(out)["mds"] is True


def test_check_code_file_with_explicit_r(capsys, tmp_path):
    path = write_rs_code(tmp_path)
    rc, out, _ = run(capsys, "check", str(path), "--r", "1")
    assert rc == 1
    assert out == (
        '{"delta":[0],"holds":false,"k":3,"r":1,'
        '"witness":{"indices":[2,5,6],"points":[[2],[5],[6]]}}\n'
    )


def test_check_nonzero_delta(capsys):
    rc, out, _ = run(
        capsys, "check", "--field", "7", "--points", "0", "1", "2", "--k", "2",
        "--delta", "3",
    )
    assert rc == 1
    assert parse(out)["witness"]["indices"] == [1, 2]


def test_check_extension_field_points(capsys):
    rc, out, _ = run(
        capsys, "check", "--field", "2,4", "--points", "0,0,1,0", "1,0,1,0", "0,1,1,0",
        "--k", "3",
    )
    assert rc in (0, 1)
    assert "holds" in parse(out)


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--points", "0,5,0,0", "1,0,1,0"], "digits must lie in [0, 2)"),
        (["--points", "0,0,1,0", "1,0,1,0", "--delta", "0,0,7,0"], "digits must lie in [0, 2)"),
        (["--points", "0,0,1", "1,0,1,0"], "needs 4 digits, got 3"),
        (["--points", "0,0,1,0", "1,0,1,0", "--delta", "1,1"], "needs 4 digits, got 2"),
    ],
)
def test_check_rejects_bad_point_digits(capsys, extra, message):
    # the same digits are refused in a code file, so inline points are too
    rc, out, err = run(capsys, "check", "--field", "2,4", *extra, "--k", "2")
    assert rc == 2
    assert out == ""
    assert message in err


def test_check_bare_integer_point_is_taken_mod_p(capsys):
    rc, out, _ = run(
        capsys, "check", "--field", "2,4", "--points", "3", "0,0,0,0", "--k", "2",
        "--delta", "5",
    )
    assert rc == 1  # 3 + 0 = 1 = 5 in GF(2)
    assert parse(out)["witness"]["points"] == [[1, 0, 0, 0], [0, 0, 0, 0]]


def test_check_requires_k_with_inline_points(capsys):
    rc, _, err = run(capsys, "check", "--field", "13", "--points", "0", "1")
    assert rc == 2
    assert "--k" in err


def test_search_exhaustive_emits_code_file(capsys, tmp_path):
    path = tmp_path / "found.json"
    rc, out, _ = run(
        capsys, "search", "--field", "2,4", "--n", "9", "--k", "3",
        "--strategy", "exhaustive", "-o", str(path),
    )
    assert rc == 0
    obj = parse(out)
    assert obj["family"] == "search"
    assert obj["exponents"] == [0, 1, 3]
    assert len(obj["points"]) == 9
    assert path.read_text() == canonical_dumps(obj)
    # the emitted file round-trips through verify
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0
    assert parse(out)["verdict"] == "non_rs"


def test_search_not_found(capsys):
    rc, out, _ = run(
        capsys, "search", "--field", "3", "--n", "3", "--k", "3", "--strategy", "exhaustive"
    )
    assert rc == 1
    assert parse(out) == {"found": False, "n": 3, "k": 3, "r": 1}


@pytest.mark.parametrize("attempts", ["0", "-3"])
def test_search_random_without_attempts_is_a_usage_error(capsys, attempts):
    rc, out, err = run(
        capsys, "search", "--field", "3", "--n", "3", "--k", "3", "--strategy", "random",
        "--max-attempts", attempts,
    )
    assert rc == 2
    assert out == ""
    assert "max_attempts" in err


@pytest.mark.parametrize("strategy", ["exhaustive", "random", "greedy"])
def test_search_k_greater_than_n_is_a_usage_error(capsys, tmp_path, strategy):
    path = tmp_path / "found.json"
    rc, out, err = run(
        capsys, "search", "--field", "7", "--n", "6", "--k", "9", "--strategy", strategy,
        "-o", str(path),
    )
    assert rc == 2
    assert out == ""
    assert "k=9 exceeds n=6" in err
    assert not path.exists()


def test_search_random_seed_reproducible(capsys):
    argv = ["search", "--field", "13", "--n", "6", "--k", "3", "--strategy", "random",
            "--seed", "5"]
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert parse(out1)["params"]["seed"] == 5


GREEDY_K1 = (
    '{"exponents":[1],"family":"search","field":{"m":1,"modulus":[0,1],"p":7},'
    '"params":{%s"k":1,"n":3,"r":1,"strategy":"greedy"},"points":[[%s],[%s],[%s]]}\n'
)


# With k = 1 a candidate is its own only k-subset, so the target is skipped.
@pytest.mark.parametrize(
    "extra, points", [([], (1, 2, 3)), (["--delta", "2"], (0, 1, 3))]
)
def test_search_greedy_k1_skips_the_target(capsys, extra, points):
    rc, out, _ = run(
        capsys, "search", "--field", "7", "--n", "3", "--k", "1", "--r", "1",
        "--strategy", "greedy", *extra,
    )
    assert rc == 0
    assert out == GREEDY_K1 % ('"delta":[2],' if extra else "", *points)


def test_search_records_a_nonzero_delta_in_the_code_file(capsys):
    rc, out, _ = run(capsys, "search", "--field", "3,2", "--n", "6", "--k", "3",
                     "--delta", "2,1")
    assert rc == 0
    assert parse(out)["params"] == {"delta": [2, 1], "k": 3, "n": 6, "r": 1,
                                    "strategy": "exhaustive"}
    # a zero delta is the default condition and is not recorded
    rc, out, _ = run(capsys, "search", "--field", "13", "--n", "6", "--k", "3",
                     "--delta", "0")
    assert rc == 0 and "delta" not in parse(out)["params"]


def refuse_search(*args):
    raise AssertionError("search must not start")


def test_search_refuses_to_write_a_nonzero_delta(capsys, tmp_path, monkeypatch):
    # the exponents {0..k} minus {k-r} of a code file stand for e_r != 0, so
    # a set found for e_r != delta would not verify (GF(3^2): "mds": false)
    monkeypatch.setattr("mdsforge.cli.search_eval_set", refuse_search)
    path = tmp_path / "d.json"
    rc, out, err = run(capsys, "search", "--field", "3,2", "--n", "6", "--k", "3",
                       "--delta", "2,1", "-o", str(path))
    assert (rc, out, path.exists()) == (2, "", False)
    assert err == "error: no monomial code file carries a nonzero delta; search without -o\n"


def test_bound_true_exits_zero(capsys):
    rc, out, _ = run(capsys, "bound", "--q", "67", "--n", "6", "--k", "3",
                     "--variant", "vieta")
    assert rc == 0
    obj = parse(out)
    assert obj == {"holds": True, "lhs": 99795696, "rhs": 92119104, "variant": "vieta"}


def test_bound_false_exits_one(capsys):
    rc, out, _ = run(capsys, "bound", "--q", "13", "--n", "6", "--k", "3", "--mI", "3")
    assert rc == 1
    obj = parse(out)
    assert obj == {"holds": False, "lhs": 1716, "rhs": 21960, "variant": "general"}


def test_bound_bad_params(capsys):
    rc, _, _ = run(capsys, "bound", "--q", "13", "--n", "6", "--k", "2", "--mI", "3")
    assert rc == 2


@pytest.mark.parametrize(
    "q, n, message",
    [
        ("6", "6", "no field has 6 elements"),
        ("1", "6", "no field has 1 elements"),
        ("4294967297", "10", "exceeds the field size limit"),
        # C(q, n) has over 460 000 digits, past the interpreter's int -> str limit
        ("4294967291", "100000", "more than 4300 decimal digits"),
        # refused before C(q, n) is built
        ("4294967291", "10000000", "more than 4300 decimal digits"),
    ],
)
def test_bound_refuses_what_it_cannot_answer(capsys, q, n, message):
    start = time.perf_counter()
    rc, out, err = run(capsys, "bound", "--q", q, "--n", n, "--k", "3", "--mI", "3")
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_bound_with_a_zero_factor_does_not_build_q_to_the_k(capsys):
    # C(max_exp, k) = 0 for max_exp = k - 1, so the general rhs is 0
    start = time.perf_counter()
    rc, out, _ = run(capsys, "bound", "--q", "4294967291", "--n", "4294967291",
                     "--k", "1000000", "--mI", "999999")
    assert time.perf_counter() - start < 1.0
    assert rc == 0
    assert parse(out) == {"holds": True, "lhs": 1, "rhs": 0, "variant": "general"}


def test_bound_prints_every_side_the_interpreter_can_print(capsys):
    # C(4294967291, 589) has 4 297 digits and C(4294967291, 590) more than 4 300
    rc, out, _ = run(capsys, "bound", "--q", "4294967291", "--n", "589", "--k", "3",
                     "--variant", "vieta")
    assert rc == 0 and parse(out)["lhs"] == comb(4294967291, 589)
    rc, out, err = run(capsys, "bound", "--q", "4294967291", "--n", "590", "--k", "3",
                       "--variant", "vieta")
    assert (rc, out) == (2, "") and "more than 4300 decimal digits" in err


def test_encode_decode_roundtrip(capsys, tmp_path):
    path, _ = construct_cor44(capsys, tmp_path)
    rc, out, _ = run(capsys, "encode", str(path), "--message", "[[1],[0],[12]]")
    assert rc == 0
    word = parse(out)
    assert word == [[1], [0], [6], [0], [2], [6]]
    received = list(word)
    received[0] = None
    received[3] = None
    rc, out, _ = run(capsys, "decode", str(path), "--received", json.dumps(received))
    assert rc == 0
    assert parse(out) == [[1], [0], [12]]


def test_encode_accepts_bare_ints(capsys, tmp_path):
    path, _ = construct_cor44(capsys, tmp_path)
    rc, out, _ = run(capsys, "encode", str(path), "--message", "[1,0,12]")
    assert rc == 0
    assert parse(out) == [[1], [0], [6], [0], [2], [6]]


def test_decode_too_many_erasures(capsys, tmp_path):
    path, _ = construct_cor44(capsys, tmp_path)
    rc, _, err = run(
        capsys, "decode", str(path), "--received", "[null,null,null,null,[2],[6]]"
    )
    assert rc == 1
    assert "erasure" in err.lower()


def test_decode_inconsistent_word(capsys, tmp_path):
    path, _ = construct_cor44(capsys, tmp_path)
    rc, _, _ = run(
        capsys, "decode", str(path), "--received", "[[1],null,[6],[0],[2],[7]]"
    )
    assert rc == 1


def test_encode_bad_message_json(capsys, tmp_path):
    path, _ = construct_cor44(capsys, tmp_path)
    rc, _, _ = run(capsys, "encode", str(path), "--message", "not json")
    assert rc == 2


# JSON the decoder refuses: nested past the recursion limit, and an integer
# literal past the interpreter's 4300-digit conversion limit
REFUSED_JSON = {"deep": "[" * 5000 + "]" * 5000, "long-int": "[" + "7" * 5000 + "]"}


@pytest.mark.parametrize("text", REFUSED_JSON.values(), ids=REFUSED_JSON.keys())
@pytest.mark.parametrize("command", ["verify", "check", "encode", "decode"])
def test_json_the_decoder_refuses_is_a_usage_error(capsys, tmp_path, command, text):
    if command in ("verify", "check"):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        argv = [command, str(bad)]
    else:
        path, _ = construct_cor44(capsys, tmp_path)
        flag = "--message" if command == "encode" else "--received"
        argv = [command, str(path), flag, text]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "not valid JSON" in err and "Traceback" not in err


def test_code_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    rc, out, err = run(capsys, "verify", str(bad))
    assert (rc, out) == (2, "") and err.startswith(f"error: cannot read {bad}: ")


@pytest.mark.parametrize("target", ["missing/x.json", "dir"], ids=["no-such-dir", "a-directory"])
@pytest.mark.parametrize("command", [
    ["construct", "cor44", "--p", "13", "--k", "3", "--n", "6"],
    ["search", "--field", "2,4", "--n", "5", "--k", "3", "--strategy", "greedy"],
], ids=["construct", "search"])
def test_output_path_that_cannot_be_written_is_a_usage_error(capsys, tmp_path, command, target):
    (tmp_path / "dir").mkdir()
    output = tmp_path / target
    rc, out, err = run(capsys, *command, "-o", str(output))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot write {output}: ") and "Traceback" not in err
    assert list(tmp_path.glob(".mdsforge-*.tmp")) == []


def test_guard_env_override(capsys, tmp_path, monkeypatch):
    path, _ = construct_cor44(capsys, tmp_path)
    monkeypatch.setenv("MDSFORGE_GUARD", "5")
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 2
    assert "guard" in err.lower() or "exceeds" in err.lower()
    monkeypatch.setenv("MDSFORGE_GUARD", "junk")
    rc, _, _ = run(capsys, "verify", str(path))
    assert rc == 2


def test_guard_env_caps_the_subsets_of_an_exhaustive_search(capsys, monkeypatch):
    # C(13,13) = 1 sets pass the guard, but each has C(13,6) = 1716 subsets
    monkeypatch.setenv("MDSFORGE_GUARD", "1000")
    rc, out, err = run(capsys, "search", "--field", "13", "--n", "13", "--k", "6")
    assert rc == 2 and out == ""
    assert "C(13,6) = 1716 exceeds subset guard 1000" in err


@pytest.mark.parametrize("field", ["2,200", "2,1000000000", "2305843009213693951"])
def test_huge_field_is_a_usage_error(capsys, field):
    start = time.monotonic()
    rc, out, err = run(capsys, "check", "--field", field, "--points", "0", "1", "2", "--k", "2")
    assert time.monotonic() - start < 5
    assert rc == 2 and out == ""
    assert "exceeds the size limit" in err


def test_hamming_lift_past_the_field_size_limit_is_refused_at_once(capsys):
    # 4098 columns pass the column guard; their lift would live in GF(2^36)
    start = time.monotonic()
    rc, out, err = run(capsys, "construct", "hamming-lift", "--r", "2", "--base-q", "4096",
                       "--k", "3")
    assert time.monotonic() - start < 5
    assert (rc, out) == (2, "")
    assert err == "error: field GF(2^36) exceeds the size limit 4294967296\n"


@pytest.mark.parametrize("k, message", [
    ("3", "field GF(2^36) exceeds the size limit 4294967296"),
    ("0", "need 1 <= k <= 262658"),
], ids=["lift-field", "k"])
def test_hamming_lift_refuses_before_building_the_columns(capsys, monkeypatch, k, message):
    # 262 658 columns pass the column guard; both refusals need only their count
    def build_columns(r, base_q):
        raise AssertionError("the parity-check columns were built")

    monkeypatch.setattr(families, "extended_hamming_parity", build_columns)
    rc, out, err = run(capsys, "construct", "hamming-lift", "--r", "3", "--base-q", "512",
                       "--k", k)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_code_file_with_a_huge_field_is_a_usage_error(capsys, tmp_path):
    path, obj = construct_cor44(capsys, tmp_path)
    obj["field"] = {"p": 2, "m": 200}
    path.write_text(canonical_dumps(obj))
    start = time.monotonic()
    rc, out, err = run(capsys, "verify", str(path))
    assert time.monotonic() - start < 5
    assert rc == 2 and out == ""
    assert "GF(2^200) exceeds the size limit" in err


#: (argv with {code} standing for a cor44 code file, MDSFORGE_GUARD or None,
#: a function of the code document that gives the file's contents, and the
#: refusal message) of usage errors: each exits 2 with one error line
USAGE_REFUSALS = {
    "guard-zero": (["verify", "{code}"], "0", None, "MDSFORGE_GUARD must be positive"),
    "check-without-points": (["check"], None, None,
                             "check needs a code file, or --field with --points"),
    "duplicate-points": (["check", "--field", "13", "--points", "1", "1", "--k", "1"], None,
                         None, "points must be distinct"),
    "field-not-int": (["check", "--field", "13,x", "--points", "1", "--k", "1"], None, None,
                      "bad --field value '13,x'"),
    "point-not-int": (["check", "--field", "13", "--points", "1,x", "--k", "1"], None, None,
                      "bad point '1,x'"),
    "message-object": (["encode", "{code}", "--message", '{"a":1}'], None, None,
                       "--message must be a JSON array of symbols"),
    "received-int": (["decode", "{code}", "--received", "3"], None, None,
                     "--received must be a JSON array of symbols/nulls"),
    "hamming-lift-without-r": (["construct", "hamming-lift", "--base-q", "2", "--k", "3"], None,
                               None, "hamming-lift needs --r"),
    "p-boolean": (["verify", "{code}"], None, lambda d: {**d, "field": {"p": True, "m": 1}},
                  "field block has wrong types"),
    "modulus-not-canonical": (
        ["verify", "{code}"], None,
        lambda d: {**d, "field": {"p": 13, "m": 1, "modulus": [1, 1]}},
        "modulus [1, 1] is not the canonical modulus for GF(13^1)"),
    "point-float": (["verify", "{code}"], None, lambda d: {**d, "points": [1.5]},
                    "not a field element: 1.5"),
    "top-level-array": (["verify", "{code}"], None, lambda d: [d],
                        "code document must be a JSON object"),
    "points-empty": (["verify", "{code}"], None, lambda d: {**d, "points": []},
                     "points must be a nonempty array"),
    "family-not-string": (["verify", "{code}"], None, lambda d: {**d, "family": 3},
                          "family must be a string"),
    "params-not-object": (["verify", "{code}"], None, lambda d: {**d, "params": [1]},
                          "params must be an object"),
    "certificate-not-object": (["verify", "{code}"], None, lambda d: {**d, "certificate": [1]},
                               "certificate must be an object"),
}


@pytest.mark.parametrize("argv, guard, edit, message", USAGE_REFUSALS.values(),
                         ids=USAGE_REFUSALS.keys())
def test_usage_refusal_exits_two_with_one_error_line(capsys, tmp_path, monkeypatch,
                                                     argv, guard, edit, message):
    path, doc = construct_cor44(capsys, tmp_path)
    if edit is not None:
        path.write_text(canonical_dumps(edit(doc)))
    if guard is None:
        monkeypatch.delenv("MDSFORGE_GUARD", raising=False)
    else:
        monkeypatch.setenv("MDSFORGE_GUARD", guard)
    rc, out, err = run(capsys, *[str(path) if a == "{code}" else a for a in argv])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_no_command_is_usage_error(capsys):
    rc, _, _ = run(capsys, "")
    assert rc == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


NEGATIVE_ERRORS = (errors.ConditionViolatedError, errors.InconsistentError,
                   errors.TooManyErasuresError)
ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.MdsforgeError)]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=[cls.__name__ for cls in ERROR_CLASSES])
def test_every_error_class_has_its_exit_status(capsys, monkeypatch, cls):
    def command(args):
        raise cls("the message")

    monkeypatch.setitem(cli._COMMANDS, "bound", command)
    rc, out, err = run(capsys, "bound", "--q", "2", "--n", "1", "--k", "1")
    assert (rc, out, err) == (1 if cls in NEGATIVE_ERRORS else 2, "", "error: the message\n")
