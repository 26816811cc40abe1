"""Canonical JSON serialization for codes and certificates.

All documents are emitted with sorted keys, compact separators and a
trailing newline, so loading a canonical file and re-serializing it is
byte-identical.  Only integers, strings, booleans, nulls, arrays and
objects appear -- never floats.

Code file layout::

    {"field": {"p": ..., "m": ..., "modulus": [...]},
     "points": [[digits], ...],
     "exponents": [int, ...],
     "family": "...",
     "params": {...},
     "certificate": {...}}        (optional)

Field elements serialize as little-endian digit arrays; inside the library
they are counter indices, and the functions here convert between the two.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Optional

from .certify import Certificate
from .errors import FormatError, InvalidParamsError
from .evalcode import EvalCode, EvalSet, ExponentSet
from .field import FieldContext, FieldElement, make_field


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def parse_json(text: str, source: str) -> Any:
    """The JSON value of `text`.  Every text the decoder refuses, also one
    nested past the recursion limit or holding an integer too long to
    convert, is a FormatError that names `source`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise FormatError(f"{source} is not valid JSON: {exc}") from exc


def write_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial document.  A path that cannot be written is a FormatError."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mdsforge-", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# Pieces


def field_to_obj(ctx: FieldContext) -> dict:
    return {"p": ctx.p, "m": ctx.m, "modulus": list(ctx.modulus)}


def field_from_obj(obj: Any) -> FieldContext:
    """Rebuild a field from {p, m, modulus?}.

    The modulus key is optional (the canonical one is implied), but when
    present it must match: this package never writes non-canonical moduli,
    and silently honoring a different one would change element identity.
    """
    try:
        p, m = obj["p"], obj["m"]
    except (TypeError, KeyError) as exc:
        raise FormatError(f"field block missing key: {exc}") from exc
    if not (isinstance(p, int) and isinstance(m, int)) or isinstance(p, bool) or isinstance(m, bool):
        raise FormatError("field block has wrong types")
    try:
        ctx = make_field(p, m)
    except (ValueError, InvalidParamsError) as exc:
        raise FormatError(f"invalid field block: {exc}") from exc
    modulus = obj.get("modulus")
    if modulus is not None:
        if not isinstance(modulus, list) or list(ctx.modulus) != modulus:
            raise FormatError(
                f"modulus {modulus!r} is not the canonical modulus for GF({p}^{m})"
            )
    return ctx


def element_to_obj(ctx: FieldContext, a: FieldElement) -> list[int]:
    return list(ctx.digits(a))


def element_from_obj(ctx: FieldContext, obj: Any) -> FieldElement:
    """Accept a digit array, or a bare int meaning a prime-subfield value."""
    if isinstance(obj, bool):
        raise FormatError("booleans are not field elements")
    if isinstance(obj, int):
        return ctx.scalar(obj)
    if isinstance(obj, list) and all(isinstance(d, int) and not isinstance(d, bool) for d in obj):
        if len(obj) != ctx.m:
            raise FormatError(f"element needs {ctx.m} digits, got {len(obj)}")
        if not all(0 <= d < ctx.p for d in obj):
            raise FormatError(f"digits must lie in [0, {ctx.p}): {obj!r}")
        return ctx.element(obj)
    raise FormatError(f"not a field element: {obj!r}")


# ---------------------------------------------------------------------------
# Code files


def code_to_obj(code: EvalCode) -> dict:
    return {
        "field": field_to_obj(code.ctx),
        "points": [element_to_obj(code.ctx, t) for t in code.points.points],
        "exponents": list(code.exponents.exps),
        "family": code.family,
        "params": dict(code.params),
    }


def code_from_obj(obj: Any) -> tuple[EvalCode, Optional[dict]]:
    """Parse a code document; returns the code and any embedded certificate
    block (unvalidated -- verification recomputes and compares)."""
    if not isinstance(obj, dict):
        raise FormatError("code document must be a JSON object")
    for key in ("field", "points", "exponents"):
        if key not in obj:
            raise FormatError(f"code document missing {key!r}")
    ctx = field_from_obj(obj["field"])
    points_raw = obj["points"]
    if not isinstance(points_raw, list) or not points_raw:
        raise FormatError("points must be a nonempty array")
    try:
        points = EvalSet(tuple(element_from_obj(ctx, t) for t in points_raw))
    except InvalidParamsError as exc:
        raise FormatError(str(exc)) from exc
    exps_raw = obj["exponents"]
    if not isinstance(exps_raw, list) or not all(
        isinstance(e, int) and not isinstance(e, bool) for e in exps_raw
    ):
        raise FormatError("exponents must be an array of integers")
    try:
        exponents = ExponentSet(tuple(exps_raw))
    except InvalidParamsError as exc:
        raise FormatError(str(exc)) from exc
    family = obj.get("family", "custom")
    if not isinstance(family, str):
        raise FormatError("family must be a string")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise FormatError("params must be an object")
    cert = obj.get("certificate")
    if cert is not None and not isinstance(cert, dict):
        raise FormatError("certificate must be an object")
    return EvalCode(ctx, points, exponents, family, params), cert


def load_code(path: str) -> tuple[EvalCode, Optional[dict]]:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return code_from_obj(parse_json(text, path))


# ---------------------------------------------------------------------------
# Certificates


def certificate_to_obj(cert: Certificate) -> dict:
    return {
        "n": cert.n,
        "k": cert.k,
        "mds": cert.is_mds,
        "witness": list(cert.failing_columns) if cert.failing_columns is not None else None,
        "min_distance": cert.min_distance,
        "schur_dim": cert.schur_dim,
        "verdict": cert.verdict,
    }
