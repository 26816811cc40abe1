"""Command-line interface.

Subcommands: construct, verify, check, search, bound, encode, decode.
Results go to stdout as canonical JSON; diagnostics go to stderr.  Exit
status: 0 for success / condition verified, 1 for a mathematically negative
outcome (not MDS, condition fails, bound false, nothing found, undecodable
word), 2 for usage or input-format errors, 3 for a fault of the program
(such as two derivations that disagree), with its traceback on stderr.

The environment variable MDSFORGE_GUARD (a positive integer) replaces every
subset and codeword guard, read where the guard is checked
(:func:`conditions.guard_in_force`): ``verify``, ``check``, exhaustive and
random ``search`` (each random attempt is a ``check``) and the lift check of
``construct hamming-lift`` and ``cor411``.  Greedy search has no guard.  A
malformed value is reported by the first guard that reads it; a command
that checks no guard ignores it.  Exceeding a guard is always a loud error.

``verify`` decides MDS by one of three routes: none for Reed-Solomon
exponents {0..k-1} (every minor is a Vandermonde determinant), the serial
e_r test of ``check`` for {0..k} minus one value, and the elimination scan
for every other exponent set.  For r = 1, ``check``, that ``verify``
route and exhaustive and greedy ``search`` choose between subset-sum
bitsets and the subset walk by the one rule of :mod:`mdsforge.conditions`;
both give the same witness and the same set.  ``search -o`` exits 2 on a
nonzero ``--delta`` before searching: a code file's exponents
{0..k} minus {k-r} stand for e_r != 0 only.  ``bound``
exits 2 when no field has q elements, q > 2^32 or a side is too long to
print.  ``--jobs N`` (N >= 1) affects only the elimination route and
changes no result; :mod:`mdsforge.certify` describes the one block loop it
feeds.
``verify --cross-check`` derives the MDS answer a second time, on every
route, from a from-scratch rank of every k-subset of columns, and ranks
every Schur product instead of stopping at the sumset's dimension; it fails
loudly if two answers differ.

``check`` reads a code file or ``--field`` with ``--points``, and refuses
both at once; ``--k``, ``--r`` and ``--delta`` override a code file's.

``main`` builds its argument parser once per process, on its first call,
and reuses it: each call parses into a fresh namespace and writes help and
usage errors to the ``sys.stdout``/``sys.stderr`` in force at that call.
Each call is one parse: an argv that opens with a command name goes to that
command's parser alone (:func:`_parse`), with the output, errors and exit
codes of the top-level parser's two passes.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from . import families, jsonio
from .certify import non_rs_certificate
from .codec import decode_erasures
from .conditions import (
    BoundQuery,
    ConditionSpec,
    ExhaustiveSearch,
    GreedySearch,
    RandomSearch,
    bound_log10,
    check_esym,
    existence_bound,
    search_eval_set,
)
from .errors import (
    ConditionViolatedError,
    FormatError,
    InconsistentError,
    InvalidParamsError,
    MdsforgeError,
    TooLargeError,
    TooManyErasuresError,
)
from .evalcode import EvalCode, EvalSet, encode as encode_word, gap_exponents, gap_order
from .field import MAX_FIELD_SIZE, FieldContext, make_field, prime_power
from .jsonio import canonical_dumps, write_atomic

USAGE_ERROR = 2
NEGATIVE = 1
INTERNAL_ERROR = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdsforge",
        description="Construct, certify and decode MDS evaluation codes over GF(p^m).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build a code from a named family")
    p_construct.add_argument("family", choices=sorted(families.FAMILIES) + ["hamming-lift"])
    p_construct.add_argument("--p", type=int)
    p_construct.add_argument("--m", type=int)
    p_construct.add_argument("--k", type=int)
    p_construct.add_argument("--n", type=int)
    p_construct.add_argument("--r", type=int)
    p_construct.add_argument("--base-q", type=int, dest="base_q")
    p_construct.add_argument("-o", "--output")

    p_verify = sub.add_parser("verify", help="certify a code file")
    p_verify.add_argument("code")
    p_verify.add_argument("--min-distance", action="store_true")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--cross-check", action="store_true", dest="cross_check")

    p_check = sub.add_parser("check", help="test the k-subset e_r condition on a point set")
    p_check.add_argument("code", nargs="?")
    p_check.add_argument("--field")
    p_check.add_argument("--points", nargs="*")
    p_check.add_argument("--k", type=int)
    p_check.add_argument("--r", type=int)
    p_check.add_argument("--delta")

    p_search = sub.add_parser("search", help="search for a point set passing the condition")
    p_search.add_argument("--field", required=True)
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--k", type=int, required=True)
    p_search.add_argument("--r", type=int, default=1)
    p_search.add_argument("--delta")
    p_search.add_argument(
        "--strategy", choices=["exhaustive", "random", "greedy"], default="exhaustive"
    )
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--max-attempts", type=int, default=1000)
    p_search.add_argument("-o", "--output")

    p_bound = sub.add_parser("bound", help="evaluate an existence bound exactly")
    p_bound.add_argument("--q", type=int, required=True)
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--k", type=int, required=True)
    p_bound.add_argument("--mI", type=int, dest="max_exp")
    p_bound.add_argument("--variant", choices=["general", "vieta"], default="general")

    p_encode = sub.add_parser("encode", help="encode a message with a code file")
    p_encode.add_argument("code")
    p_encode.add_argument("--message", required=True)

    p_decode = sub.add_parser("decode", help="decode an erased word with a code file")
    p_decode.add_argument("code")
    p_decode.add_argument("--received", required=True)

    parser.commands = sub.choices  # name -> subparser, read by _parse
    return parser


def _parse(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)`` in one argparse pass.

    The top-level parser hands every token after a command name to that
    command's parser unread, so an argv that opens with a command name goes
    straight to the subparser; tokens it does not know are refused as the
    top-level parser refuses them.  Any other argv goes through the
    top-level parser.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def _parse_field(text: str) -> FieldContext:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return make_field(int(parts[0]), 1)
        if len(parts) == 2:
            return make_field(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise FormatError(f"bad --field value {text!r}: {exc}") from exc
    raise FormatError(f"--field wants 'p' or 'p,m', got {text!r}")


def _parse_point(ctx: FieldContext, text: str):
    try:
        digits = [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise FormatError(f"bad point {text!r}") from exc
    try:
        return jsonio.element_from_obj(ctx, digits[0] if len(digits) == 1 else digits)
    except FormatError as exc:
        raise FormatError(f"bad point {text!r}: {exc}") from exc


def _emit(obj, output: Optional[str] = None) -> None:
    text = canonical_dumps(obj)
    if output:
        write_atomic(output, text)
    sys.stdout.write(text)


def _cmd_construct(args) -> int:
    name = args.family
    if name == "hamming-lift":
        for req in ("r", "base_q", "k"):
            if getattr(args, req) is None:
                raise FormatError(f"hamming-lift needs --{req.replace('_', '-')}")
        code = families.hamming_lift(args.r, args.base_q, args.k)
    else:
        builder = families.FAMILIES[name]
        import inspect

        wanted = list(inspect.signature(builder).parameters)
        kwargs = {}
        for pname in wanted:
            val = getattr(args, pname, None)
            if val is None:
                raise FormatError(f"family {name!r} needs --{pname}")
            kwargs[pname] = val
        code = builder(**kwargs)
    _emit(jsonio.code_to_obj(code), args.output)
    return 0


def _cmd_verify(args) -> int:
    if args.jobs < 1:
        raise InvalidParamsError(f"--jobs must be >= 1, got {args.jobs}")
    code, embedded = jsonio.load_code(args.code)
    want_dist = args.min_distance or (
        embedded is not None and embedded.get("min_distance") is not None
    )
    cert = non_rs_certificate(
        code, jobs=args.jobs, with_min_distance=want_dist, cross_check=args.cross_check
    )
    obj = jsonio.certificate_to_obj(cert)
    _emit(obj)
    if embedded is not None and embedded != obj:
        print("embedded certificate does not match recomputation", file=sys.stderr)
        return NEGATIVE
    return 0 if cert.is_mds else NEGATIVE


def _cmd_check(args) -> int:
    if args.code is not None:
        if args.field is not None or args.points is not None:
            raise FormatError("check takes a code file, or --field with --points, not both")
        code, _ = jsonio.load_code(args.code)
        ctx = code.ctx
        points = list(code.points.points)
        k = args.k if args.k is not None else code.k
        r = args.r if args.r is not None else gap_order(code.exponents)
        if r is None:
            raise FormatError(
                "the code's exponents are not {0..k} minus one value; pass --r"
            )
    else:
        if args.field is None or not args.points:
            raise FormatError("check needs a code file, or --field with --points")
        ctx = _parse_field(args.field)
        points = [_parse_point(ctx, t) for t in args.points]
        if len(set(points)) != len(points):
            raise FormatError("points must be distinct")
        if args.k is None:
            raise FormatError("--k is required with --points")
        k = args.k
        r = args.r if args.r is not None else 1
    delta = _parse_point(ctx, args.delta) if args.delta is not None else None
    spec = ConditionSpec(k=k, r=r, delta=delta)
    holds, witness = check_esym(ctx, points, spec)
    _emit(
        {
            "holds": holds,
            "k": k,
            "r": r,
            "delta": jsonio.element_to_obj(ctx, delta or 0),
            "witness": None
            if witness is None
            else {
                "indices": list(witness),
                "points": [jsonio.element_to_obj(ctx, points[i]) for i in witness],
            },
        }
    )
    return 0 if holds else NEGATIVE


def _cmd_search(args) -> int:
    ctx = _parse_field(args.field)
    delta = _parse_point(ctx, args.delta) if args.delta is not None else None
    spec = ConditionSpec(k=args.k, r=args.r, delta=delta)
    if args.k > args.n:
        # Every set passes vacuously, but the code file would not verify.
        raise InvalidParamsError(f"k={args.k} exceeds n={args.n}")
    if args.output and delta:
        raise InvalidParamsError(
            "no monomial code file carries a nonzero delta; search without -o"
        )
    if args.strategy == "exhaustive":
        strategy = ExhaustiveSearch()
    elif args.strategy == "random":
        strategy = RandomSearch(seed=args.seed, max_attempts=args.max_attempts)
    else:
        strategy = GreedySearch()
    found = search_eval_set(ctx, args.n, spec, strategy)
    if found is None:
        _emit({"found": False, "n": args.n, "k": args.k, "r": args.r})
        return NEGATIVE
    exponents = gap_exponents(args.k, args.r)
    params = {"n": args.n, "k": args.k, "r": args.r, "strategy": args.strategy}
    if delta:  # the exponents alone do not name it
        params["delta"] = jsonio.element_to_obj(ctx, delta)
    if args.strategy == "random":
        params["seed"] = args.seed
    code = EvalCode(ctx, EvalSet(found), exponents, "search", params)
    _emit(jsonio.code_to_obj(code), args.output)
    return 0


def _cmd_bound(args) -> int:
    if args.q > MAX_FIELD_SIZE:
        raise TooLargeError(f"q = {args.q} exceeds the field size limit {MAX_FIELD_SIZE}")
    if prime_power(args.q) is None:
        raise InvalidParamsError(f"no field has {args.q} elements")
    query = BoundQuery(q=args.q, n=args.n, k=args.k, max_exp=args.max_exp, variant=args.variant)
    # a side too long for the interpreter to print: by estimate, then exactly
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    too_long = TooLargeError(f"a side of the bound has more than {digits} decimal digits")
    if digits and bound_log10(query) > digits + 1:
        raise too_long
    holds, lhs, rhs = existence_bound(query)
    if digits and max(lhs, rhs) >= 10**digits:
        raise too_long
    _emit({"holds": holds, "lhs": lhs, "rhs": rhs, "variant": args.variant})
    return 0 if holds else NEGATIVE


def _cmd_encode(args) -> int:
    code, _ = jsonio.load_code(args.code)
    raw = jsonio.parse_json(args.message, "--message")
    if not isinstance(raw, list):
        raise FormatError("--message must be a JSON array of symbols")
    message = [jsonio.element_from_obj(code.ctx, s) for s in raw]
    word = encode_word(code, message)
    _emit([jsonio.element_to_obj(code.ctx, s) for s in word])
    return 0


def _cmd_decode(args) -> int:
    code, _ = jsonio.load_code(args.code)
    raw = jsonio.parse_json(args.received, "--received")
    if not isinstance(raw, list):
        raise FormatError("--received must be a JSON array of symbols/nulls")
    received = [
        None if s is None else jsonio.element_from_obj(code.ctx, s) for s in raw
    ]
    message = decode_erasures(code, received)
    _emit([jsonio.element_to_obj(code.ctx, s) for s in message])
    return 0


_COMMANDS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "check": _cmd_check,
    "search": _cmd_search,
    "bound": _cmd_bound,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except MdsforgeError as exc:
        # Mathematically negative outcomes exit 1; bad parameters, malformed
        # input and guard overruns are operational errors and exit 2.
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (ConditionViolatedError, InconsistentError, TooManyErasuresError)):
            return NEGATIVE
        return USAGE_ERROR
    except Exception:
        # a bug, such as an internal disagreement: exit 1 would read as "not MDS"
        import traceback  # loaded only for a bug

        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
