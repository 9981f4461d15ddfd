import ast
import inspect
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest

import polymerqm
from polymerqm import (Lattice, LatticeWavefunction, PhysicalParams, PropagatorKernel,
                       bessel_jn, bessel_table, composition_check, continuum_sweep,
                       delta_state, dimensionless_time, dispersion_momentum, evolve,
                       gaussian_packet, greens_residual, greens_residual_fd, image_sum,
                       jacobi_anger, kernel_table, momentum_kernel_phase,
                       schrodinger_box_gaussian, schrodinger_free_kernel, spectral_sum,
                       truncation_window)


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


def test_the_identities_read_through_the_counted_door():
    # `checks._index_lists` cast the sites of `composition_check` and the Green's residuals
    # before their tables were counted: a second door, which the size limit did not guard
    from polymerqm import checks

    assert not hasattr(checks, "_index_lists")


def test_no_public_callable_takes_a_box_size_beside_its_kernel():
    # a system is a `PropagatorKernel`: the check routes took (j, r, dt, n_box, params)
    # and checked N again, where the engine and every identity take the kernel
    public = [getattr(polymerqm, name) for name in polymerqm.__all__]
    takes = {obj.__name__: inspect.signature(obj).parameters for obj in public if callable(obj)
             and not (isinstance(obj, type) and issubclass(obj, Exception))}
    assert "spectral_sum" in takes and [n for n, ps in takes.items() if "n_box" in ps] == []


def test_a_scalar_real_has_one_door():
    # `bessel._real` is the one refusal of a scalar real: a dozen float() and isfinite checks
    # in four modules, in nine wordings, took text, bool and complex as numbers or raised a
    # bare TypeError.  Arrays keep their own refusal (momentum), as do derived quantities,
    # worded apart from the door's "<name> must be ..., got <value>"
    from polymerqm import bessel

    door = re.compile(r'must be (a real number|finite[^,]*), got \{[^{}]*\}"')
    raises = [(path.name, ast.get_source_segment(text, node))
              for path in sorted(Path(polymerqm.__file__).parent.glob("*.py"))
              for text in [path.read_text()]
              for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Raise)]
    refusals = [(name, r) for name, r in raises if door.search(r)]
    assert [name for name, _ in refusals].count("bessel.py") == 2
    assert [(name, r) for name, r in refusals if name != "bessel.py"] == \
        [("spectral.py", 'raise ValueError(f"momentum must be finite, got {p}")')] * 2
    assert not hasattr(bessel, "_validate_argument")


_P = PhysicalParams()
_FREE, _BOX, _RING = (PropagatorKernel.free(_P), PropagatorKernel.box(6, _P),
                      PropagatorKernel.periodic(6, _P))

# every public route that takes a scalar real -> (call by keyword, a valid value of each)
_REAL_ROUTES = {
    "truncation_window": (truncation_window, {"z": 3.0}),
    "bessel_table": (lambda z: bessel_table(z, 4), {"z": 3.0}),
    "bessel_jn": (lambda z: bessel_jn(-3, z), {"z": 3.0}),
    "jacobi_anger": (lambda z, phi: jacobi_anger(z, phi, 8), {"z": 3.0, "phi": 1.0}),
    "PhysicalParams": (PhysicalParams, {"hbar": 2.0, "mass": 3.0, "mu0": 0.5}),
    "dimensionless_time": (lambda dt: dimensionless_time(_P, dt), {"dt": 2.0}),
    "kernel call": (lambda dt: _BOX(1, 2, dt), {"dt": 2.0}),
    "kernel_table": (lambda dt: kernel_table(_FREE, [0, 1], [0], dt), {"dt": 2.0}),
    "evolve": (lambda dt: evolve(delta_state(Lattice(_P, 1, 5), 3), _RING, dt), {"dt": 2.0}),
    "image_sum": (lambda dt: image_sum(_RING, 1, 2, dt), {"dt": 2.0}),
    "spectral_sum": (lambda dt: spectral_sum(_BOX, 1, 2, dt), {"dt": 2.0}),
    "gaussian_packet": (lambda **kw: gaussian_packet(Lattice(_P, -8, 8), **kw),
                        {"center": 1.0, "sigma": 2.0, "momentum": 0.5}),
    "composition_check": (lambda t0, t1, t: composition_check(_FREE, 0, [0, 1], t0, t1, t),
                          {"t0": 0.0, "t1": 1.0, "t": 2.0}),
    "greens_residual": (lambda dt: greens_residual(_FREE, [0], [1], [dt]), {"dt": 2.0}),
    "greens_residual_fd": (lambda dt, step: greens_residual_fd(_FREE, [0], [1], [dt], step),
                           {"dt": 2.0, "step": 2.0**-20}),
    "continuum_sweep": (lambda dx, dt, mu0, hbar, mass: continuum_sweep(dx, dt, [mu0], hbar,
                                                                        mass),
                        {"dx": 1.0, "dt": 1.0, "mu0": 0.25, "hbar": 1.0, "mass": 2.0}),
    "schrodinger_free_kernel": (lambda xj, xr, dt: schrodinger_free_kernel(xj, xr, dt, _P),
                                {"xj": 1.0, "xr": -1.0, "dt": 2.0}),
    "schrodinger_box_gaussian": (
        lambda dt, length, center, sigma, momentum: schrodinger_box_gaussian(
            [1.0, 4.0], dt, length, center, sigma, momentum, _P),
        {"dt": 1.0, "length": 8.0, "center": 3.0, "sigma": 0.5, "momentum": 1.0}),
    "momentum_kernel_phase": (lambda dt: momentum_kernel_phase(0.5, dt, _P), {"dt": 2.0}),
    "dispersion_momentum": (lambda energy: dispersion_momentum(_P, energy), {"energy": 1.0}),
}
_NAMED = {"length": "box length"}  # an input the refusal names in words


def _bits(out):
    """The exact bits of a route's result."""
    if isinstance(out, LatticeWavefunction):
        return out.lattice, out.amplitudes.tobytes()
    if isinstance(out, (list, PhysicalParams)):
        return repr(out)  # floats by their round-trip repr
    return np.asarray(out).tobytes()


@pytest.mark.parametrize("route,arg", [(route, arg) for route, (_, valid) in
                                       _REAL_ROUTES.items() for arg in valid])
def test_every_scalar_real_reads_through_the_door(route, arg):
    # kernel(0, 0, True), bessel_table("3", 2), evolve(psi, k, "0.5") and the like ran on
    # silently coerced values, and kernel_table(k, [0], [0], 1j) raised a bare TypeError
    call, valid = _REAL_ROUTES[route]
    named = re.escape(_NAMED.get(arg, arg))
    for bad in (True, "1.0", 1j, math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"^{named} must be (a real number|finite)"):
            call(**{**valid, arg: bad})
    # Python and numpy ints and floats give the value of the float they stand for, bit for bit
    want = _bits(call(**valid))
    value = valid[arg]
    for same in (np.float64(value), np.float32(value),
                 *((int(value), np.int64(value)) if value.is_integer() else ())):
        assert _bits(call(**{**valid, arg: same})) == want, type(same)
