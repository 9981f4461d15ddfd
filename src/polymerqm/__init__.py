"""Polymer quantum mechanics on a fixed regular lattice.

Closed-form propagators for the free particle and the particle in a
box, lattice wavefunction evolution, the momentum representation, and
machine checks of the propagator consistency properties (initial
condition, composition, Green's-function character, continuum limit).
A public name loads its submodule when it is first read (PEP 562), so a
program loads only the modules whose names it uses.
"""

import importlib

__version__ = "0.1.0"

# the suites of `verify.run_suite`, named here so that the command line
# lists them without loading the check suites
SUITE_NAMES = ("bessel", "free", "box", "momentum", "continuum", "all")

# submodule -> the public names the package takes from it
_PUBLIC = {
    "bessel": ("bessel_jn", "bessel_table", "jacobi_anger", "truncation_window"),
    "dynamics": ("WallSupportError",),
    "lattice": ("Lattice", "LatticeWavefunction", "PhysicalParams", "delta_state",
                "dimensionless_time", "gaussian_packet", "inner_product"),
    "propagators": ("PropagatorKernel", "evolve", "kernel_table"),
    "spectral": ("BoxSpectrum", "MomentumGrid", "box_spectrum", "dispersion_energy",
                 "dispersion_momentum", "from_momentum", "momentum_samples", "to_momentum"),
    "checks": ("SweepPoint", "apply_hamiltonian", "composition_check", "continuum_sweep",
               "greens_residual", "greens_residual_fd", "image_sum", "momentum_kernel_phase",
               "schrodinger_box_gaussian", "schrodinger_free_kernel", "spectral_sum"),
    "stateio": ("load_wavefunction", "save_wavefunction"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["SUITE_NAMES", *sorted(_MODULE_OF)]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
