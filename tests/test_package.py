"""The package's public namespace."""

import loglap


def test_every_exported_name_resolves():
    missing = [name for name in loglap.__all__ if not hasattr(loglap, name)]
    assert missing == []
