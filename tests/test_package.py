"""The package's public surface."""

import types

import spiralshift


def test_every_exported_name_resolves_once():
    names = spiralshift.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(spiralshift, name)]
    assert missing == []


def test_exports_are_exactly_the_public_attributes():
    # Submodules and __version__ are attributes of the package but not exports.
    public = {
        name
        for name, value in vars(spiralshift).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(spiralshift.__all__) == public
