"""The package's public surface."""

import mdsforge


def test_all_names_resolve_once():
    names = mdsforge.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mdsforge, name)] == []
