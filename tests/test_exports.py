"""The package's public names."""

import flashtrace


def test_every_exported_name_resolves_once():
    names = flashtrace.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(flashtrace, name)] == []
    namespace = {}
    exec("from flashtrace import *", namespace)
    assert set(names) <= namespace.keys()
