"""Byte stability of `construct`, `verify`, `check`, `search`, `encode` and
`decode`: pinned stdout digests and exit codes.

Each `verify` case writes one code file and runs `verify` in-process.  The
sha256 of stdout and the exit code were recorded while every Reed-Solomon
code still went through the k-subset elimination scan, the cor411 case and
the `check` case while every r = 1 condition still went through the e_r
walk, and the `search` cases while the exhaustive search (or, for the
greedy cases, the greedy search) still tested every r = 1 candidate by
walking the subsets of the points already chosen, so a faster route for
any of these inputs must print exactly the same bytes.  The r = 2 searches
and the later r = 1 ones were recorded while the exhaustive search still
cut a branch only at a conflict, never for want of free candidates below
its lowest point.  The `construct`
cases were recorded while every family builder still wrote out its own
points and code, so a shared point pattern must print the same files and
refuse the same parameters with the same messages.  The thm415 and thm64
`verify`, `encode` and `decode` cases were recorded while field elements were
still digit tuples inside the library, so a change of element
representation must print the same bytes at the boundary.  The
`--min-distance` cases and the codeword-guard refusals were recorded while
the codeword walk still visited every partial codeword, one for each scalar
multiple, so a walk over one partial per scalar class must print the same
bytes and refuse the same codes.  The three `--min-distance` cases past k = 3
(RS[12,5] over GF(2^4), RS[9,6] over GF(3^2) and the GF(5) code with
E = {0,1,2,4}) were recorded while that walk still counted every partial
codeword of the last two rows one at a time, so counting a parent's
codewords from where lines cross must print the same bytes.  The
elimination cases with k = 2, k = 5 and the [45,4] code over GF(1000003)
were recorded while the elimination scan still tested every k-subset
one leaf at a time, so deciding the last two columns of a prefix at once
must print the same bytes.  The `search` proofs over GF(23) with n = 11
and over GF(19) with n = 10 and r = 2 were recorded while the exhaustive
search still walked the n-sets of the whole field alone, so a proof that
ends on the sets through 1 must print the same bytes.
"""

import contextlib
import hashlib
import io
import json

import pytest

from mdsforge import conditions
from mdsforge.cli import main
from mdsforge.conditions import ConditionSpec
from mdsforge.evalcode import EvalCode, EvalSet, ExponentSet
from mdsforge.families import cor44, cor411, thm63, thm64, thm412, thm415
from mdsforge.field import make_field
from mdsforge.jsonio import canonical_dumps, code_to_obj


def counter_code(p, m, values, exps):
    ctx = make_field(p, m)
    points = EvalSet(tuple(ctx.from_int(v) for v in values))
    return EvalCode(ctx, points, ExponentSet(tuple(exps)))


RS_31 = counter_code(31, 1, [(7 * i + 3) % 31 for i in range(20)], range(4))
RS_32 = counter_code(2, 5, [(11 * i + 5) % 32 for i in range(20)], range(4))
RS_13 = counter_code(13, 1, [0, 12, 1, 11, 2, 10, 3, 9, 4, 8, 5, 7], range(4))
# two skipped exponents (lambda_1 = 2); 1 and -1 make the first triple dependent
FAILING = counter_code(13, 1, [1, 12, 2, 3, 4, 5, 6, 7], (0, 2, 4))
# x^5 = x on GF(5): rank 1, and every nonzero codeword has weight 4 > n - k + 1
RANK_ONE = counter_code(5, 1, [1, 2, 3, 4], (1, 5))
# Reed-Solomon codes past k = 3: a field of characteristic 2 and one of odd
# characteristic with m = 2
RS_16 = counter_code(2, 4, range(12), range(5))
RS_9 = counter_code(3, 2, range(9), range(6))
# not MDS, d = 1: the columns of x and -x agree on x^0, x^2 and x^4, and x^4
# vanishes only at the point 0
E0124 = counter_code(5, 1, range(5), (0, 1, 2, 4))
# the elimination route (lambda_1 >= 2) at k = 2, where x^3 takes each
# nonzero cube three times on GF(13), at k = 5, and a passing [45,4] scan
E03 = counter_code(13, 1, [0, 1, 2, *range(4, 13)], (0, 3))
E01236 = counter_code(31, 1, range(1, 16), (0, 1, 2, 3, 6))
E0135 = counter_code(1000003, 1, range(1, 46), (0, 1, 3, 5))

#: (id, code, extra verify arguments, stdout sha256, exit code)
CASES = [
    ("rs-20-4-gf31", RS_31, [],
     "659f2873e2223efbddf08ef96b54eb378accad7bd9e738d863cf00f1de4011ef", 0),
    ("rs-20-4-gf2^5", RS_32, [],
     "659f2873e2223efbddf08ef96b54eb378accad7bd9e738d863cf00f1de4011ef", 0),
    ("rs-12-4-gf13-jobs2", RS_13, ["--jobs", "2"],
     "8801a98003ac577d3d73f761d64589e9df04c87980047f38e67e2660a41cf3e7", 0),
    ("rs-12-4-gf13-cross-check", RS_13, ["--cross-check"],
     "8801a98003ac577d3d73f761d64589e9df04c87980047f38e67e2660a41cf3e7", 0),
    ("cor44-13-3-6", cor44(13, 3, 6), [],
     "9e9a663976bb3bfaa5069a445eae3d074c06d5361160e59117a3c2f223577aaf", 0),
    ("failing-e024-gf13", FAILING, [],
     "1a61cdac71884d9cd7b11e8191e9beac4c7c0e9a6181fcfc33ea57864f938995", 1),
    ("cor411-4-5", cor411(4, 5), [],
     "13abdc6c6e9f566f4bb5778a200a96acbae242ba1dd067feb242b53adffa0c80", 0),
    ("thm415-11-2-3-34", thm415(11, 2, 3, 34), [],
     "78226a730fd42ef999ffdadf73b10fd6f618f0c73016790340221b54c137b566", 0),
    ("thm64-73-3-3-2-10", thm64(73, 3, 3, 2, 10), [],
     "8e41364ddab0eeed94d6760700fb342751c9679344e7cc09a4c696e96905e6e8", 0),
    ("thm412-3-3-4-9-min-distance", thm412(3, 3, 4, 9), ["--min-distance"],
     "c5953abeea8c8c67320a7d90e3b072ad2a715d69e39303994db5f27152e5dc84", 0),
    ("cor44-53-3-8-min-distance", cor44(53, 3, 8), ["--min-distance"],
     "09471b6413fa2585f56c73d60d330201df1b4d85089448ff6fc17b569d9ef546", 0),
    ("thm415-11-2-3-34-min-distance", thm415(11, 2, 3, 34), ["--min-distance"],
     "1681a4e1b56ad73654fe80bf98a4bc256350f7dc7db3915181c8fa1040a1a5ca", 0),
    ("failing-e024-gf13-min-distance", FAILING, ["--min-distance"],
     "cefe22390232ed162aa91f3678f052cdc6aaa0b399968af33569f7c5c56a8e04", 1),
    ("rank-one-e15-gf5-min-distance", RANK_ONE, ["--min-distance"],
     "32c94b0ddc768a2e96fa95ffdc0fb5b80a45e06e07e5585e5491f49537bc41c2", 1),
    ("rs-12-5-gf2^4-min-distance", RS_16, ["--min-distance"],
     "753543f38c116805bae832d5811ae66ffa8cec2ce2940081da6135136609b0ae", 0),
    ("rs-9-6-gf3^2-min-distance", RS_9, ["--min-distance"],
     "f16f1dd596d7ff7cf101aeab8935cfa7eb043eac8f6aba5501ca876b7ff2a8ee", 0),
    ("e0124-gf5-min-distance", E0124, ["--min-distance"],
     "f4891cd2c345834cc0cb1fc378543abc91cecfe9ae78a838c363c3463eba32f0", 1),
    ("e03-gf13", E03, [],
     "dc1e81de887c942511608ac5b84e759ee6895bd400f518150b686f9eccadf48a", 1),
    ("e01236-gf31", E01236, [],
     "f3b2f1f4a968431bcf3c7fe466d9084192733a48bd6dec7f1cd6d58dfdd2d03d", 1),
    ("e0135-45-gf1000003", E0135, [],
     "4d756c8283356a40003d3179c57d114251767bdc92d86e6a75a3eec1712ea341", 0),
    ("e0135-45-gf1000003-jobs2", E0135, ["--jobs", "2"],
     "4d756c8283356a40003d3179c57d114251767bdc92d86e6a75a3eec1712ea341", 0),
]

#: (id, code, MDSFORGE_GUARD or None, stderr) of `verify --min-distance` on
#: a code past the codeword guard: exit 2, nothing on stdout
CODEWORD_REFUSALS = [
    ("thm63-7-3-3-2-6", thm63(7, 3, 3, 2, 6), None,
     "error: q^k = 40353607 exceeds codeword guard 4194304\n"),
    ("cor44-13-3-6-guard-2000", cor44(13, 3, 6), "2000",
     "error: q^k = 2197 exceeds codeword guard 2000\n"),
]

#: (id, code, message, erased positions, encode sha256, decode sha256) of
#: `encode` and of `decode` on that codeword with the positions erased: one
#: field below the table cap, GF(11^2), and one above it, GF(73^3).  A
#: message mixes digit arrays with bare prime-subfield integers.
CODEC = [
    ("thm415-11-2-3-34", thm415(11, 2, 3, 34), [[3, 7], [0, 10], 5], [0, 2, 5, 33],
     "ec67520382f2895e3eba46c86ab39b40f446c1f5ff74b8e5ac7db44ecd8491a5",
     "5fd9e3d7a9c309da29e6dcb444e6b64b0c5b0c6855898f69718635fe975e1f44"),
    ("thm64-73-3-3-2-10", thm64(73, 3, 3, 2, 10), [[1, 2, 3], [72, 0, 5], 9], [1, 4, 9],
     "b568f3b17378576c2ac5e32ab3643b0c59d0b8d97464015afbd30f91487d0e60",
     "4a5c3697d74092a2a05be7f4d030f2fcc5fb292f3ae719419d99222b5405bdeb"),
]

#: a failing r = 1 `check` over GF(3^2) whose witness is not the first subset
CHECK_ARGV = ["check", "--field", "3,2", "--points", "1,0", "0,1", "2,2", "1,1", "0,2",
              "2,1", "1,2", "2,0", "--k", "3", "--delta", "2,1"]
CHECK_DIGEST = "26db6cedc1592a7545c5bd9bc605307837470f7969e3c486637710cef1bbfffb"

#: (field, n, extra search arguments, stdout sha256, exit code) of
#: `search --strategy exhaustive --k 3`: the benchmark's two proofs of
#: `none`, its two short searches that find a set, and a nonzero delta
#: (re-pinned once the code file's params began to record delta); then
#: r = 1 searches whose branches mostly run out of free candidates before
#: they meet a conflict, r = 2 searches on the walk route, and two proofs
#: that the search through 1 ends, one on each stack
SEARCHES = [
    ("19", 8, [], "628e3d1a2fb49c08732f47557560e8353bd0dbbd0588b48a99559eac42227b87", 0),
    ("19", 9, [], "7be3ac796e3edfe5617677992d0a31914d7f76e1f1da55f9b243eb85e4ae3adf", 1),
    ("2,4", 9, [], "8d4f8cf735939b3ca68f1538291ea25e39469a0515b62eea91a83acac8de8bfe", 0),
    ("2,4", 10, [], "c8a9366d709be662df4040566a0cfe99d943aba304c0f6785e86146d0991f662", 1),
    ("3,2", 6, ["--delta", "2,1"],
     "fa07fc0977af4c70af9a1e13905d6955bbf6095c2760b7f6f36e4cc96b64daee", 0),
    ("13", 8, [], "e30c967d633671f64f8778dd8ae7454d5e9586108265e9e6d203afba2f17a9c7", 1),
    ("17", 9, [], "7be3ac796e3edfe5617677992d0a31914d7f76e1f1da55f9b243eb85e4ae3adf", 1),
    ("19", 10, [], "c8a9366d709be662df4040566a0cfe99d943aba304c0f6785e86146d0991f662", 1),
    ("23", 10, [], "f7e505a57a4b309225eab757f145a9585cdb3dfebbaa632fc4def33f39b14ec0", 0),
    ("11", 7, ["--r", "2"],
     "3f8f69b504b72f36322b99ec6105f3934032c6653e286f38bb3911067d0a6350", 0),
    ("11", 8, ["--r", "2"],
     "8bd99c56595ea1b26e7f7c5e716d59770206651139351eeb9477618d9f434622", 1),
    ("3,2", 6, ["--r", "2"],
     "52d8102d27960e38c13e3f2d962888d26e40488fe3257c196e615df8a77bfbcc", 1),
    ("13", 8, ["--r", "2"],
     "8bd99c56595ea1b26e7f7c5e716d59770206651139351eeb9477618d9f434622", 1),
    ("23", 11, [], "0f75661edd75fbb6e9e47b349780c26ae02defca625c66d8851445d6e2b3cf61", 1),
    ("19", 10, ["--r", "2"],
     "14c8c280a8b32b0f3888df8fad2a3763412dab90eaf5d6a0570b45ba51f434ce", 1),
]
SEARCH_IDS = [f"gf{s[0]}-n{s[1]}" + ("-r2" if "--r" in s[2] else "") for s in SEARCHES]

#: (field, n, k, r, stdout sha256, exit code) of `search --strategy greedy`:
#: the benchmark's four greedy calls, a set that greedy cannot complete, a
#: long set in GF(2^12) and a short one in GF(1000003)
GREEDY = [
    ("101", 12, 3, 1, "1001874f9698069f36050eb707dedacabf0f32982385ba3d97005631238890f8", 0),
    ("2,6", 10, 3, 1, "8b8a5c5c8edd6ce6f156c94992ec6879d39ad10644d0256b5d0c110bf4b68fb7", 0),
    ("31", 10, 4, 2, "53441c1d5617fc1799df6e9205878a4d01f296d9acc82fc5044b4b02b0b93581", 1),
    ("101", 8, 4, 2, "a58a43ae336c9169e9f891da2588b66d015f20ac8dca777334055109798f0488", 0),
    ("13", 7, 3, 1, "a7aa26e680457c6b8972fdc9f29a495e47ce57c38a9ac39ddb3811acf8e89d9c", 1),
    ("2,12", 40, 3, 1, "b9dc273a9fc61db99ff0420de7f72fc99a6df12cec817a54334b932a48440e68", 0),
    ("1000003", 10, 3, 1, "9e4c0bef0d1ca5bdd7d26737081bef0d6618ccfd48632f4fbbface1d250237fc", 0),
]


#: (construct arguments, stdout sha256) of `construct`, exit 0: the
#: benchmark's certify-batch and min-distance instances, thm415 with two
#: extras and over a prime field, and thm63/thm64 tails shorter than m - 1
CONSTRUCTS = [
    ("cor44 --p 13 --k 3 --n 6",
     "33ae98026604137c382702b403a813aa3c5d19545c8d785fc421be50629fd194"),
    ("cor44 --p 29 --k 3 --n 11",
     "f68522c3764ab2d4936b996a7f4cfedbe45df88abaf0b787d6b4dc3456112bfc"),
    ("cor62 --p 163 --k 3 --r 2 --n 6",
     "1937cf9e6d38d72d6c0438e47df1200bf1573a93ab9290e7a13e075e18e5e90a"),
    ("cor62 --p 1009 --k 4 --r 2 --n 11",
     "95c18faddc5258ae06f5898a42848992a9b713e518b279636bce67446d1d6add"),
    ("thm412 --p 3 --m 3 --k 4 --n 9",
     "9a96132fec0e430304a22cf7ca87d497f4a9e51ec2119cb555e142527eda5441"),
    ("thm412 --p 5 --m 3 --k 4 --n 10",
     "8a1d478d56d6e99c312b2b715bb915d07c32e0bcbd2d2d2fb5e579ecb605c521"),
    ("thm415 --p 7 --m 2 --k 3 --n 14",
     "c8e9beb32ff5a0dec6fecdc212660111eef854d9564f2ddff2665e9f6e4db3c7"),
    ("thm415 --p 11 --m 2 --k 3 --n 34",
     "47f91c4e08f65ae7e0f9ea2ea0b88b6e95008b6c408074059750af71ba90f8a4"),
    ("thm63 --p 7 --m 3 --k 3 --r 2 --n 6",
     "0f695a5a8fd8d377e8d5247ae8c20697b9acc8b5aff36b9c19b9e4b9fca18e73"),
    ("thm64 --p 73 --m 3 --k 3 --r 2 --n 10",
     "2bbd29d5ec08d07ae0b4e825c5eda35c82d852e7e2cdb3e175217728b43b0ee6"),
    ("hamming-lift --r 3 --base-q 2 --k 3",
     "2f75bb7868fe39b3039bf870ee01e44af30a3e6a3d3178106af3ddf62746d26a"),
    ("cor411 --r 4 --k 5",
     "1518841750d0586aa8acc09ebf95814cc7c35bc9b4137e9edb3fa06d7cfe168f"),
    ("cor44 --p 53 --k 3 --n 8",
     "24c80cbca2b12f798d7e6d4d77ec4889789d2ecfd3a40f8ca78c366e465a3939"),
    ("thm415 --p 11 --m 2 --k 4 --n 24",
     "8643680293027f14f8dad507bbd78f13ecdc5e5522610476d84ab1a34df21c0f"),
    ("thm415 --p 17 --m 1 --k 3 --n 6",
     "714ba498bb5a434cea204d3cf3be2cc1d3f92836790e358f16307f7b905c54b5"),
    ("thm63 --p 5 --m 5 --k 3 --r 2 --n 7",
     "1927fe3c479a040dfaf7ccd9cab40c794a3b0715b99a7deda4e7da2075e791f6"),
    ("thm64 --p 11 --m 4 --k 3 --r 1 --n 20",
     "5d8336a8a903e66fa56b6b0614e4c1308a561f8911b4a18c1e83d580db761908"),
]

#: (construct arguments, stderr) of refused calls, at least one per builder:
#: exit 2, nothing on stdout
REFUSALS = [
    ("cor44 --p 13 --k 3 --n 20", "error: k*n - k(k+1)/2 = 54 exceeds p - 1 = 12\n"),
    ("cor62 --p 13 --k 3 --r 3 --n 6", "error: need 2 <= r <= k - 1\n"),
    ("thm412 --p 3 --m 1 --k 4 --n 9", "error: need extension degree m >= 2\n"),
    ("thm415 --p 3 --m 2 --k 3 --n 6", "error: need 3 <= k <= p - 1\n"),
    ("thm63 --p 3 --m 3 --k 3 --r 1 --n 6", "error: characteristic 3 divides C(3,1)\n"),
    ("thm64 --p 5 --m 3 --k 4 --r 2 --n 8",
     "error: floor((r!p)^(1/r))/k < 1 for p=5, k=4, r=2\n"),
    ("thm64 --p 5 --m 0 --k 3 --r 1 --n 6", "error: need m >= 1\n"),
    ("thm415 --p 7 --m 0 --k 3 --n 6", "error: need m >= 1\n"),
    ("thm415 --p 7 --m 2 --k 3 --n 5", "error: need 2k <= n\n"),
    ("thm63 --p 7 --m 3 --k 3 --r 3 --n 6", "error: need 1 <= r <= k - 1\n"),
    ("thm64 --p 73 --m 3 --k 3 --r 0 --n 10", "error: need 1 <= r <= k - 1\n"),
    ("cor411 --r 4 --k 4", "error: k = 4 must be odd\n"),
    ("hamming-lift --r 2 --base-q 6 --k 3", "error: not a prime power\n"),
    ("hamming-lift --r 21 --base-q 2 --k 3", "error: 2097152 columns exceeds guard 1048576\n"),
]


def stdout_digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest(), rc


def verify_digest(tmp_path, code, extra):
    path = tmp_path / "code.json"
    path.write_text(canonical_dumps(code_to_obj(code)))
    return stdout_digest(["verify", str(path), *extra])


@pytest.mark.parametrize(
    "code,extra,digest,rc", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_verify_stdout_is_pinned(tmp_path, code, extra, digest, rc):
    assert verify_digest(tmp_path, code, extra) == (digest, rc)


@pytest.mark.parametrize(
    "code,guard,err", [r[1:] for r in CODEWORD_REFUSALS], ids=[r[0] for r in CODEWORD_REFUSALS]
)
def test_codeword_guard_refusal_is_pinned(tmp_path, capsys, monkeypatch, code, guard, err):
    if guard is None:
        monkeypatch.delenv("MDSFORGE_GUARD", raising=False)
    else:
        monkeypatch.setenv("MDSFORGE_GUARD", guard)
    path = tmp_path / "code.json"
    path.write_text(canonical_dumps(code_to_obj(code)))
    assert main(["verify", str(path), "--min-distance"]) == 2
    assert capsys.readouterr() == ("", err)


def test_check_stdout_is_pinned():
    assert stdout_digest(CHECK_ARGV) == (CHECK_DIGEST, 1)


@pytest.mark.parametrize(
    "field,n,extra,digest,rc", SEARCHES,
    ids=SEARCH_IDS,
)
def test_search_stdout_is_pinned(field, n, extra, digest, rc):
    argv = ["search", "--field", field, "--n", str(n), "--k", "3", "--strategy", "exhaustive"]
    assert stdout_digest([*argv, *extra]) == (digest, rc)


@pytest.mark.parametrize(
    "field,n,extra", [s[:3] for s in SEARCHES],
    ids=SEARCH_IDS,
)
def test_search_makes_at_most_twice_the_colex_pushes_plus_one(monkeypatch, field, n, extra):
    # the searches taken in turn, one push each, against the colex search alone
    real, pushes = conditions._candidate_stack, []

    def counted(*args):
        next_free, lowest, push, pop = real(*args)

        def counted_push(v):
            pushes.append(v)
            push(v)

        return next_free, lowest, counted_push, pop

    monkeypatch.setattr(conditions, "_candidate_stack", counted)
    argv = ["search", "--field", field, "--n", str(n), "--k", "3", "--strategy", "exhaustive"]
    stdout_digest([*argv, *extra])
    both = len(pushes)
    ctx = make_field(*(int(t) for t in field.split(",")))
    options = dict(zip(extra[::2], extra[1::2]))
    delta = [int(t) for t in options.get("--delta", "0").split(",")]
    spec = ConditionSpec(k=3, r=int(options.get("--r", 1)),
                         delta=sum(d * ctx.p**i for i, d in enumerate(delta)))
    search, pushes[:] = conditions._colex_search(ctx, n, spec), []
    while next(search, True) is None:
        pass
    assert 0 < both <= 2 * len(pushes) + 1


@pytest.mark.parametrize(
    "field,n,k,r,digest,rc", GREEDY, ids=[f"gf{g[0]}-n{g[1]}-k{g[2]}-r{g[3]}" for g in GREEDY]
)
def test_greedy_stdout_is_pinned(field, n, k, r, digest, rc):
    argv = ["search", "--field", field, "--n", str(n), "--k", str(k), "--r", str(r),
            "--strategy", "greedy"]
    assert stdout_digest(argv) == (digest, rc)


@pytest.mark.parametrize(
    "code,message,erased,enc,dec", [c[1:] for c in CODEC], ids=[c[0] for c in CODEC]
)
def test_encode_and_decode_stdout_is_pinned(tmp_path, code, message, erased, enc, dec):
    path = tmp_path / "code.json"
    path.write_text(canonical_dumps(code_to_obj(code)))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["encode", str(path), "--message", json.dumps(message)])
    word = buf.getvalue()
    assert (hashlib.sha256(word.encode()).hexdigest(), rc) == (enc, 0)
    received = [None if i in erased else s for i, s in enumerate(json.loads(word))]
    argv = ["decode", str(path), "--received", json.dumps(received)]
    assert stdout_digest(argv) == (dec, 0)


@pytest.mark.parametrize("args,digest", CONSTRUCTS, ids=[c[0] for c in CONSTRUCTS])
def test_construct_stdout_is_pinned(args, digest):
    assert stdout_digest(["construct", *args.split()]) == (digest, 0)


@pytest.mark.parametrize("args,err", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_construct_refusal_is_pinned(capsys, args, err):
    assert main(["construct", *args.split()]) == 2
    assert capsys.readouterr() == ("", err)
