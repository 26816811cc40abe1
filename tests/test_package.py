"""The package's public surface."""

import os
import subprocess
import sys

import mdsforge


def test_all_names_resolve_once():
    names = mdsforge.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mdsforge, name)] == []


def test_cli_import_leaves_the_process_pool_unloaded():
    # only `verify --jobs N` on a long elimination scan needs a pool
    probe = ("import sys, mdsforge.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
             "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(mdsforge.__path__[0])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout == "[]\n"
