import types

import bellsplit


def test_all_lists_only_reexported_public_names():
    names = set(bellsplit.__all__)
    assert len(names) == len(bellsplit.__all__)
    for name in names:
        assert not isinstance(getattr(bellsplit, name), types.ModuleType), name
    assert "annotations" not in names
    public = {
        name
        for name, value in vars(bellsplit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == public
