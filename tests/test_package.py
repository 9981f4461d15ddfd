import types

import polymerqm


def test_all_names_exactly_the_public_bindings():
    # every name of __all__ resolves, and dir() lists exactly __all__ besides
    # the submodules, so the name table and __all__ cannot drift apart
    assert len(set(polymerqm.__all__)) == len(polymerqm.__all__)
    assert all(hasattr(polymerqm, name) for name in polymerqm.__all__)
    public = {name for name in dir(polymerqm) if not name.startswith("_")
              and not isinstance(getattr(polymerqm, name), types.ModuleType)}
    assert set(polymerqm.__all__) == public


def test_star_import_binds_every_name():
    namespace = {}
    exec("from polymerqm import *", namespace)
    assert set(polymerqm.__all__) <= set(namespace)
    assert namespace["evolve"] is polymerqm.propagators.evolve
    assert not hasattr(polymerqm, "no_such_name")
