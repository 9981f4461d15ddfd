import ast
import inspect
import types
from pathlib import Path

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


def test_the_size_limit_has_one_door():
    # `bessel._limit` is the one refusal of the size limit: seven hand-written checks
    # in five modules, each worded its own way, had to be kept in step by hand
    sources = {path.name: path.read_text()
               for path in sorted(Path(polymerqm.__file__).parent.glob("*.py"))}
    assert [name for name, text in sources.items() if "_MAX_SIZE" in text] == ["bessel.py"]
    raises = [ast.get_source_segment(text, node) for text in sources.values()
              for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Raise)]
    assert [r for r in raises if "the limit" in r] == \
        ['raise ValueError(f"{what.format(*args)} the limit {_MAX_SIZE}")']


def test_no_public_callable_takes_a_box_size_beside_its_kernel():
    # a system is a `PropagatorKernel`: the check routes took (j, r, dt, n_box, params)
    # and checked N again, where the engine and every identity take the kernel
    public = [getattr(polymerqm, name) for name in polymerqm.__all__]
    takes = {obj.__name__: inspect.signature(obj).parameters for obj in public if callable(obj)
             and not (isinstance(obj, type) and issubclass(obj, Exception))}
    assert "spectral_sum" in takes and [n for n, ps in takes.items() if "n_box" in ps] == []
