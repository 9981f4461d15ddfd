import types

import polymerqm


def test_all_names_exactly_the_public_bindings():
    # so the import list and __all__ cannot drift apart when a name is removed
    public = {name for name, value in vars(polymerqm).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(polymerqm.__all__)) == len(polymerqm.__all__)
    assert set(polymerqm.__all__) == public
