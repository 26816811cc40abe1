"""The benchmark's tracer and field micro rows against the current package.

``perfbench/run.py --trace 1`` wraps named functions at their binding sites,
counts FieldContext.mul/add/inv by patching the class and times field
operations through ``micro.field_ns``.  A rename in the package would make
that run fail, or read zeros, long after the change; these tests import
perfbench/tracer.py and perfbench/micro.py as they are and fail at once.
"""

import importlib
import os

import pytest

from mdsforge import certify, cli, conditions, families, field, jsonio

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
MODS = {"cli": cli, "certify": certify, "conditions": conditions,
        "families": families, "jsonio": jsonio, "field": field}


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracer"), importlib.import_module("micro")


def lookup(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_every_traced_binding_site_resolves(bench):
    tracer, _ = bench
    sites = tracer.binding_sites(MODS)
    originals = [lookup(owner, attr) for owner, attr, _, _ in sites]
    assert all(callable(fn) for fn in originals)
    tr = tracer.Tracer()
    tr.install(sites)
    try:
        assert cli.main(["construct", "thm63", "--p", "7", "--m", "3", "--k", "3", "--r", "2",
                         "--n", "6"]) == 0
    finally:
        tr.uninstall()
    assert [lookup(owner, attr) for owner, attr, _, _ in sites] == originals
    assert {"cli.main", "families.construct"} <= {span.name for span in tr.spans}


def test_op_counter_counts_every_field_kind(bench):
    tracer, _ = bench
    counter = tracer.OpCounter(field.FieldContext)
    counter.install()
    try:
        for p, m in [(101, 1), (3, 3), (73, 3)]:
            ctx = field.make_field(p, m)
            ctx.mul(ctx.add(2, 5), ctx.inv(2))
    finally:
        counter.uninstall()
    assert counter.counts == {"mul": 3, "add": 3, "inv": 3}


def test_field_micro_rows_run_on_the_field_context(bench, monkeypatch):
    _, micro = bench
    monkeypatch.setattr(micro, "OPS_PER_LOOP", 40)
    monkeypatch.setattr(micro, "REPEATS", 1)
    rows = micro.field_ns(field.make_field, seed=1)
    names = {f"field.{op}_ns.{suffix}" for suffix, _, _ in micro.FIELDS
             for op in ("mul", "add", "inv")}
    assert set(rows) == names and all(ns > 0 for ns in rows.values())
