"""Polymer quantum mechanics on a fixed regular lattice.

Closed-form propagators for the free particle and the particle in a
box, lattice wavefunction evolution, the momentum representation, and
machine checks of the propagator consistency properties (initial
condition, composition, Green's-function character, continuum limit).
"""

from .bessel import bessel_jn, bessel_table, jacobi_anger, truncation_window
from .dynamics import (
    BoxSpectrum,
    WallSupportError,
    box_spectrum,
    dispersion_energy,
    dispersion_momentum,
)
from .lattice import (
    Lattice,
    LatticeWavefunction,
    MomentumGrid,
    PhysicalParams,
    delta_state,
    dimensionless_time,
    from_momentum,
    gaussian_packet,
    inner_product,
    momentum_samples,
    to_momentum,
)
from .propagators import (
    PropagatorKernel,
    SweepPoint,
    apply_hamiltonian,
    box_images_kernel,
    box_mode_coefficients,
    box_spectral_kernel,
    composition_check,
    continuum_sweep,
    evolve,
    free_kernel,
    greens_residual,
    greens_residual_fd,
    kernel_table,
    momentum_kernel_phase,
    periodic_kernel,
    schrodinger_box_evolve,
    schrodinger_free_kernel,
)
from .stateio import load_wavefunction, save_wavefunction

__version__ = "0.1.0"

# the suites of `verify.run_suite`, named here so that the command line
# lists them without loading the check suites
SUITE_NAMES = ("bessel", "free", "box", "momentum", "continuum", "all")

__all__ = [
    "SUITE_NAMES",
    "BoxSpectrum",
    "Lattice",
    "LatticeWavefunction",
    "MomentumGrid",
    "PhysicalParams",
    "PropagatorKernel",
    "SweepPoint",
    "WallSupportError",
    "apply_hamiltonian",
    "bessel_jn",
    "bessel_table",
    "box_images_kernel",
    "box_mode_coefficients",
    "box_spectrum",
    "box_spectral_kernel",
    "composition_check",
    "continuum_sweep",
    "delta_state",
    "dimensionless_time",
    "dispersion_energy",
    "dispersion_momentum",
    "evolve",
    "free_kernel",
    "from_momentum",
    "gaussian_packet",
    "greens_residual",
    "greens_residual_fd",
    "inner_product",
    "jacobi_anger",
    "kernel_table",
    "load_wavefunction",
    "momentum_kernel_phase",
    "momentum_samples",
    "periodic_kernel",
    "save_wavefunction",
    "schrodinger_box_evolve",
    "schrodinger_free_kernel",
    "to_momentum",
    "truncation_window",
]
