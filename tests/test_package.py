"""The package's public surface."""

import spiralshift


def test_every_exported_name_resolves_once():
    names = spiralshift.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(spiralshift, name)]
    assert missing == []
