"""Spans and counters recorded from outside the program.

The tracer replaces public functions of ``mdsforge`` by timing wrappers at
every binding site (``from x import y`` copies the name, so ``cli`` and
``conditions`` each hold their own ``check_esym``), and restores them on
:meth:`Tracer.uninstall`.  A span carries its name, start, end, the index of
its parent span, the id of the ``cli.main`` call it belongs to, and the work
it did (subsets or codewords), derived from its arguments and return value.
Spans are kept in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import functools
from math import comb
from time import perf_counter

from workloads import lex_rank


class Span:
    __slots__ = ("name", "start", "end", "parent", "call", "work")

    def __init__(self, name, start, end, parent, call, work=0):
        self.name, self.start, self.end = name, start, end
        self.parent, self.call, self.work = parent, call, work

    def row(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.call, self.work]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _mds_work(args, kwargs, result) -> int:
    mat = _arg(args, kwargs, 0, "mat")
    ok, witness = result
    return comb(mat.cols, mat.rows) if ok else lex_rank(witness, mat.cols) + 1


def _esym_work(args, kwargs, result) -> int:
    n = len(_arg(args, kwargs, 1, "points"))
    ok, witness = result
    return comb(n, _arg(args, kwargs, 2, "spec").k) if ok else lex_rank(witness, n) + 1


def _codeword_work(args, kwargs, result) -> int:
    code = _arg(args, kwargs, 0, "code")
    return code.ctx.q**code.k


def _search_work(args, kwargs, result) -> int:
    return int(result is not None)


def binding_sites(mods) -> list[tuple]:
    """(owner, attribute, span name, work function) for every wrapped site.

    `mods` maps module short names to the imported ``mdsforge`` modules.
    """
    cli, certify, conditions = mods["cli"], mods["certify"], mods["conditions"]
    families, jsonio, field = mods["families"], mods["jsonio"], mods["field"]
    sites = [
        (cli, "main", "cli.main", None),
        (cli, "non_rs_certificate", "certify.non_rs_certificate", None),
        (certify, "generator_matrix", "evalcode.generator_matrix", None),
        (certify, "mds_exhaustive", "certify.mds_exhaustive", _mds_work),
        (certify, "schur_square_dim", "certify.schur_square_dim", None),
        (certify, "schur_square_dim_from_exponents", "certify.schur_square_dim", None),
        (certify, "min_distance_bruteforce", "certify.min_distance_bruteforce", _codeword_work),
        (certify, "rank", "matrix.rank", None),
        (cli, "check_esym", "conditions.check_esym", _esym_work),
        (conditions, "check_esym", "conditions.check_esym", _esym_work),
        (families, "check_esym", "conditions.check_esym", _esym_work),
        (cli, "search_eval_set", "conditions.search_eval_set", _search_work),
        (cli, "canonical_dumps", "jsonio.canonical_dumps", None),
        (jsonio, "load_code", "jsonio.load_code", None),
        (cli, "make_field", "field.make_field", None),
        (jsonio, "make_field", "field.make_field", None),
        (families, "make_field", "field.make_field", None),
        (field, "make_field", "field.make_field", None),
        (families, "extended_hamming_parity", "families.construct", None),
        (families, "lift_parity_columns", "families.construct", None),
    ]
    # `construct` reaches the family builders through this dict.
    sites += [(families.FAMILIES, key, "families.construct", None) for key in families.FAMILIES]
    return sites


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._calls = 0
        self._patches: list[tuple] = []

    def wrap(self, name, fn, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if name == "cli.main":
                self._calls += 1
                call = self._calls
            else:
                call = spans[parent].call if parent is not None else None
            span = Span(name, perf_counter(), None, parent, call)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    span.work = work(args, kwargs, result)
                return result
            finally:
                span.end = perf_counter()
                stack.pop()

        return wrapper

    def install(self, sites) -> None:
        for owner, attr, name, work in sites:
            orig = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            self._patches.append((owner, attr, orig))
            _set(owner, attr, self.wrap(name, orig, work))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            _set(owner, attr, orig)
        self._patches.clear()


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class OpCounter:
    """Counts FieldContext.mul/add/inv calls by patching the class."""

    OPS = ("mul", "add", "inv")

    def __init__(self, field_context_cls):
        self.cls = field_context_cls
        self.counts = {op: 0 for op in self.OPS}
        self._orig = {}

    def install(self) -> None:
        counts = self.counts
        for op in self.OPS:
            orig = getattr(self.cls, op)
            self._orig[op] = orig
            setattr(self.cls, op, _counting(orig, counts, op))

    def uninstall(self) -> None:
        for op, orig in self._orig.items():
            setattr(self.cls, op, orig)
        self._orig.clear()


def _counting(orig, counts, op):
    def method(self, *args):
        counts[op] += 1
        return orig(self, *args)

    method.__name__ = op
    return method


# ---------------------------------------------------------------------------
# Span arithmetic


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in kids):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _has_ancestor(spans, i, name) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def summarize(spans: list[Span]) -> dict:
    """Per span name: outermost inclusive time, self time, count and work."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, {"incl": 0.0, "self": 0.0, "count": 0, "work": 0})
        row["self"] += selfs[i]
        row["count"] += 1
        row["work"] += s.work
        if not _has_ancestor(spans, i, s.name):
            row["incl"] += s.end - s.start
    return out


def layer_metrics(spans: list[Span]) -> dict:
    """The per-layer rows of one traced pass."""
    agg = summarize(spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def per_work_us(name):
        work = get(name, "work")
        return get(name, "self") / work * 1e6 if work else 0.0

    in_search = sum(
        1 for i, s in enumerate(spans)
        if s.name == "conditions.check_esym"
        and _has_ancestor(spans, i, "conditions.search_eval_set")
    )
    found = _found_by_checking_searches(spans)
    return {
        "cli.calls": get("cli.main", "count"),
        "cli.self_s": get("cli.main", "self"),
        "jsonio.load_code_s": get("jsonio.load_code", "incl"),
        "jsonio.dumps_s": get("jsonio.canonical_dumps", "incl"),
        "field.context_build_s": get("field.make_field", "incl"),
        "evalcode.generator_matrix_s": get("evalcode.generator_matrix", "incl"),
        "matrix.rank_s": get("matrix.rank", "incl"),
        "matrix.rank_calls": get("matrix.rank", "count"),
        "certify.mds_scan_s": get("certify.mds_exhaustive", "incl"),
        "certify.mds_subsets": get("certify.mds_exhaustive", "work"),
        "certify.mds_us_per_subset": per_work_us("certify.mds_exhaustive"),
        "certify.min_distance_s": get("certify.min_distance_bruteforce", "incl"),
        "certify.codewords": get("certify.min_distance_bruteforce", "work"),
        "certify.codeword_us": per_work_us("certify.min_distance_bruteforce"),
        "certify.schur_s": get("certify.schur_square_dim", "incl"),
        "certify.self_s": get("certify.non_rs_certificate", "self"),
        "conditions.check_esym_s": get("conditions.check_esym", "incl"),
        "conditions.check_esym_calls": get("conditions.check_esym", "count"),
        "conditions.esym_subsets": get("conditions.check_esym", "work"),
        "conditions.esym_us_per_subset": per_work_us("conditions.check_esym"),
        "conditions.search_s": get("conditions.search_eval_set", "incl"),
        "conditions.search_self_s": get("conditions.search_eval_set", "self"),
        "conditions.search_yield": found / in_search if in_search else 0.0,
    }


def _found_by_checking_searches(spans: list[Span]) -> int:
    """Sets found by the searches that ran check_esym (not greedy's own test)."""
    checking = {s.parent for s in spans if s.name == "conditions.check_esym" and s.parent is not None}
    return sum(spans[i].work for i in checking if spans[i].name == "conditions.search_eval_set")
