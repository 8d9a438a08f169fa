"""The package's public names are exactly those listed in `evoinf.__all__`."""

import types

import evoinf


def test_all_lists_exactly_the_public_names():
    for name in evoinf.__all__:
        assert hasattr(evoinf, name), name
    public = {name for name, value in vars(evoinf).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == set(evoinf.__all__)
    assert len(evoinf.__all__) == len(public)
