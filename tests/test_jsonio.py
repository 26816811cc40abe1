"""Canonical serialization: stable bytes, validating readers."""

import json
import os

import pytest

from mdsforge.certify import non_rs_certificate
from mdsforge.errors import FormatError
from mdsforge.families import cor44, thm412
from mdsforge.field import make_field
from mdsforge.jsonio import (
    canonical_dumps,
    certificate_to_obj,
    code_from_obj,
    code_to_obj,
    element_from_obj,
    element_to_obj,
    field_from_obj,
    field_to_obj,
    load_code,
    write_atomic,
)
from oracles import element, scalar


def test_canonical_dumps_is_stable():
    a = canonical_dumps({"b": 1, "a": [1, 2]})
    assert a == '{"a":[1,2],"b":1}\n'
    assert canonical_dumps({"a": [1, 2], "b": 1}) == a


def test_field_roundtrip():
    for p, m in [(13, 1), (2, 4), (3, 2)]:
        ctx = make_field(p, m)
        assert field_from_obj(field_to_obj(ctx)) == ctx


def test_field_from_obj_rejects_garbage():
    with pytest.raises(FormatError):
        field_from_obj({"p": 4, "m": 1})
    with pytest.raises(FormatError):
        field_from_obj({"p": 13})
    with pytest.raises(FormatError):
        field_from_obj("GF(13)")
    with pytest.raises(FormatError, match="^invalid field block: extension degree must be >= 1$"):
        field_from_obj({"p": 13, "m": 0})


def test_element_forms():
    ctx = make_field(3, 2)
    assert element_to_obj(ctx, element(ctx, (2, 1))) == [2, 1]
    assert element_from_obj(ctx, [2, 1]) == element(ctx, (2, 1))
    assert element_from_obj(ctx, 2) == element(ctx, (2, 0))  # bare int means prime-subfield
    with pytest.raises(FormatError):
        element_from_obj(ctx, [1])  # wrong digit count
    with pytest.raises(FormatError):
        element_from_obj(ctx, True)  # bools are not digits
    with pytest.raises(FormatError):
        element_from_obj(ctx, [3, 0])  # digit out of range


def test_element_from_obj_reads_every_element_and_names_each_fault():
    for p, m in [(13, 1), (3, 2), (2, 4)]:
        ctx = make_field(p, m)
        assert [element_from_obj(ctx, element_to_obj(ctx, a)) for a in ctx.elements()] == list(
            ctx.elements()
        )
        assert [element_from_obj(ctx, c) for c in range(p)] == [scalar(ctx, c) for c in range(p)]
    ctx = make_field(3, 2)
    refusals = [
        ([1, 3], "digits must lie in [0, 3): [1, 3]"),
        ([-1, 0], "digits must lie in [0, 3): [-1, 0]"),
        ([0, True], "not a field element: [0, True]"),
        ([1.0, 0], "not a field element: [1.0, 0]"),
        ([0, 5, 0], "element needs 2 digits, got 3"),  # the count before the range
        (3, "a bare integer must lie in [0, 3): 3"),
        (-1, "a bare integer must lie in [0, 3): -1"),
        (False, "booleans are not field elements"),
        (1.5, "not a field element: 1.5"),
    ]
    for obj, message in refusals:
        with pytest.raises(FormatError) as exc:
            element_from_obj(ctx, obj)
        assert str(exc.value) == message


def test_code_roundtrip_bytes_identical():
    code = cor44(13, 3, 6)
    obj = code_to_obj(code)
    text = canonical_dumps(obj)
    back, cert = code_from_obj(json.loads(text))
    assert cert is None
    assert canonical_dumps(code_to_obj(back)) == text
    assert back == code


def test_code_roundtrip_extension_field():
    code = thm412(3, 3, 4, 9)
    back, _ = code_from_obj(code_to_obj(code))
    assert back == code


def test_code_with_embedded_certificate():
    code = cor44(13, 3, 6)
    cert = non_rs_certificate(code)
    obj = code_to_obj(code)
    obj["certificate"] = certificate_to_obj(cert)
    back, embedded = code_from_obj(obj)
    assert back == code
    assert embedded == certificate_to_obj(cert)


def test_certificate_obj_shape():
    cert = non_rs_certificate(cor44(13, 3, 6))
    obj = certificate_to_obj(cert)
    assert set(obj) == {"n", "k", "mds", "witness", "min_distance", "schur_dim", "verdict"}
    assert obj["mds"] is True
    assert obj["witness"] is None
    assert obj["verdict"] == "non_rs"


def test_code_from_obj_validation():
    good = code_to_obj(cor44(13, 3, 6))
    for mutate in (
        lambda o: o.pop("field"),
        lambda o: o.pop("points"),
        lambda o: o["points"].append(o["points"][0]),  # duplicate point
        lambda o: o.__setitem__("exponents", [3, 1]),
        lambda o: o.__setitem__("exponents", "013"),
        lambda o: o["field"].__setitem__("p", 14),
    ):
        obj = json.loads(canonical_dumps(good))
        mutate(obj)
        with pytest.raises(FormatError):
            code_from_obj(obj)


def test_write_atomic_and_load(tmp_path):
    code = cor44(13, 3, 6)
    path = tmp_path / "code.json"
    write_atomic(str(path), canonical_dumps(code_to_obj(code)))
    back, cert = load_code(str(path))
    assert back == code and cert is None
    # no stray temp files
    assert os.listdir(tmp_path) == ["code.json"]


def test_load_code_bad_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_code(str(path))
