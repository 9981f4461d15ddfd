"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per checked record.  Each paper invariant is coded once, as a
record of `polymerqm verify` (`run_suite`); criteria 1-6, 7a and 8-10
map to those records in CRITERIA and assert on them, including their
tolerance, so a verify check that is dropped, renamed or loosened fails
its criterion here.  Criterion 7 is split: the pointwise continuum
error |k/mu0 - k_S| decreases at the sampled spacings (7a, the
`continuum/monotone-decrease` record), and the tenfold-reduction clause
(7b) is asserted where the limit holds.  It does not hold pointwise: by
stationary phase the exact lattice kernel tends to
k_S + (-1)^l e^{-2iz} conj(k_S), so |k/mu0 - k_S| tends to |k_S|.  7b
therefore asserts the tenfold drop of the time-smeared error and of the
error against that two-saddle limit - see the test.
"""

import numpy as np
import pytest

from polymerqm.lattice import PhysicalParams, dimensionless_time
from polymerqm.checks import schrodinger_free_kernel
from polymerqm.propagators import PropagatorKernel
from polymerqm.verify import run_suite

P1 = PhysicalParams()

# criterion -> (seed of the verify run, [(suite, record, tolerance)]).
# Criterion 9 draws its Jacobi-Anger points from seed 20240214 and
# criterion 10 its Gaussian packets from seed 1234; the other records
# do not depend on the seed.
CRITERIA = {
    "1": (1234, [("free", "initial-condition", 1e-14),
                 ("box", "initial-condition", 1e-14)]),
    "2": (1234, [("free", "composition", 1e-9),
                 ("box", "composition", 1e-12)]),
    "3": (1234, [("free", "greens-residual", 1e-9),
                 ("box", "greens-residual", 1e-10),
                 ("free", "greens-residual-fd", 1e-5),
                 ("box", "greens-residual-fd", 1e-5)]),
    "4": (1234, [("free", "eigenstate-phase", 1e-8),
                 ("box", "eigenphase", 1e-12)]),
    "5": (1234, [("box", "spectral-vs-images", 1e-10)]),
    "6": (1234, [("free", "unitarity", 1e-10),
                 ("bessel", "sum-of-squares", 1e-12),
                 ("box", "unitarity", 1e-12)]),
    "7a": (1234, [("continuum", "monotone-decrease", 0.0)]),
    "8": (1234, [("box", "spectrum-oracle-energies", 1e-10),
                 ("box", "spectrum-oracle-vectors", 1e-8)]),
    "9": (20240214, [("bessel", "series-oracle", 1e-13),
                     ("bessel", "jacobi-anger", 1e-10)]),
    "10": (1234, [("momentum", "phase-evolution", 1e-9)]),
}


def report(criterion: str, deviation: float, tolerance: float) -> float:
    status = "PASS" if deviation <= tolerance else "FAIL"
    print(f"[{criterion}] deviation={deviation:.3e} tolerance={tolerance:.1e} "
          f"{status}")
    return deviation


@pytest.fixture(scope="module")
def verify_records():
    """seed -> {(suite, record): CheckResult} of run_suite("all") at P1, one run per seed."""
    return {seed: {(c.suite, c.name): c
                   for c in run_suite("all", params=P1, seed=seed)}
            for seed in {seed for seed, _ in CRITERIA.values()}}


def assert_criterion(verify_records, criterion: str) -> None:
    """Each mapped record exists, keeps its tolerance and passes it."""
    seed, expected = CRITERIA[criterion]
    for suite, name, tolerance in expected:
        record = verify_records[seed].get((suite, name))
        assert record is not None, f"verify has no record {suite}/{name}"
        assert record.tolerance == tolerance, \
            f"{suite}/{name} tolerance {record.tolerance!r}, criterion needs {tolerance!r}"
        assert report(f"{criterion} {suite}/{name}", record.deviation,
                      tolerance) <= tolerance


def test_seed_reaches_only_the_sampled_records():
    # Jacobi-Anger points and the momentum suite's packets and amplitudes
    # are drawn; every other record is bit-identical across seeds
    runs = [run_suite("all", params=P1, seed=seed) for seed in (0, 1)]
    drawn = {("bessel", "jacobi-anger")} | {("momentum", c.name) for c in runs[0]
                                            if c.suite == "momentum"}
    by_seed = [{(c.suite, c.name): c.deviation for c in run} for run in runs]
    assert list(by_seed[0]) == list(by_seed[1])
    for key in set(by_seed[0]) - drawn:
        assert by_seed[0][key] == by_seed[1][key], key
    assert by_seed[0][("bessel", "jacobi-anger")] != by_seed[1][("bessel", "jacobi-anger")]


def test_criterion_1_initial_condition(verify_records):
    assert_criterion(verify_records, "1")


def test_criterion_2_composition(verify_records):
    assert_criterion(verify_records, "2")


def test_criterion_3_greens_function(verify_records):
    assert_criterion(verify_records, "3")


def test_criterion_4_eigenstate_evolution(verify_records):
    assert_criterion(verify_records, "4")


def test_criterion_5_spectral_images_equivalence(verify_records):
    assert_criterion(verify_records, "5")


def test_criterion_6_unitarity(verify_records):
    assert_criterion(verify_records, "6")


def test_criterion_7a_continuum_monotone(verify_records):
    assert_criterion(verify_records, "7a")


SWEEP_SPACINGS = (1 / 8, 1 / 16, 1 / 32, 1 / 64)


# Gaussian window in dt of demos/05_continuum_limit.py: width 0.04 about
# dt0, cut at +-5 widths, normalised, trapezoid rule.  The second saddle
# e^{-2iz} turns at 2/mu0^2 = 8192 rad per unit dt at mu0 = 1/64; a step
# h aliases it to 2 pi/h - 8192 rad, and the window damps that as
# exp(-(0.04 (2 pi/h - 8192))^2 / 2), so any h below about 7.5e-4 is
# alias-free.  801 samples (h = 5e-4) put the alias 175 window spreads
# from zero and match the demo's 4001 at both ends to 2e-4 relative.
SMEAR_WIDTH = 0.04
SMEAR_SAMPLES = 801


def time_smeared_error(mu0: float, dx: float = 1.0, dt0: float = 1.0) -> float:
    """|integral w(dt) (k(l, 0; dt)/mu0 - k_S(dx, 0; dt)) d(dt)|, l = dx/mu0."""
    sites = round(dx / mu0)
    params = PhysicalParams(mu0=mu0)
    dts = np.linspace(dt0 - 5 * SMEAR_WIDTH, dt0 + 5 * SMEAR_WIDTH,
                      SMEAR_SAMPLES)
    weight = np.exp(-0.5 * ((dts - dt0) / SMEAR_WIDTH) ** 2)
    weight /= np.trapezoid(weight, dts)
    free = PropagatorKernel.free(params)
    polymer = np.array([free(sites, 0, dt) / mu0 for dt in dts])
    continuum = np.array([schrodinger_free_kernel(dx, 0.0, dt, params)
                          for dt in dts])
    return float(abs(np.trapezoid((polymer - continuum) * weight, dts)))


def two_saddle_error(mu0: float, dx: float = 1.0, dt: float = 1.0) -> float:
    """|k(l, 0; dt)/mu0 - k_S - (-1)^l e^{-2iz} conj(k_S)|, l = dx/mu0."""
    sites = round(dx / mu0)
    params = PhysicalParams(mu0=mu0)
    z = dimensionless_time(params, dt)
    k_s = schrodinger_free_kernel(dx, 0.0, dt, params)
    polymer = PropagatorKernel.free(params)(sites, 0, dt) / mu0
    return float(abs(polymer - k_s
                     - (-1) ** sites * np.exp(-2j * z) * np.conj(k_s)))


def test_criterion_7b_continuum_tenfold():
    """Tenfold error reduction between mu0=1/8 and mu0=1/64, dx = dt = 1.

    The clause cannot hold for the pointwise error |k/mu0 - k_S|.  With
    k(l, 0; dt) = (1/2 pi) integral e^{i l theta - i z (1 - cos theta)}
    d theta, the phase is stationary at theta ~ l/z (the continuum
    saddle, momentum dx/dt) and at theta ~ pi - l/z (momenta near the
    zone boundary).  Both have modulus 1/sqrt(2 pi z), so

        k/mu0 -> k_S + (-1)^l e^{-2iz} conj(k_S),

    and |k/mu0 - k_S| tends to |k_S| = 1/sqrt(2 pi) = 0.398942 (the
    sweep measures 0.400749 ... 0.398952; Corichi, Vukasinac & Zapata,
    PRD 76, 044016 (2007)).  The limit holds distributionally, so the
    tenfold clause is asserted where it holds:

    (a) time-smeared: averaged over the Gaussian window in dt of
        demos/05, the second saddle integrates away and the error falls
        at second order (1.67e-3 -> 2.58e-5, 64.7x);
    (b) pointwise against the two-saddle limit: the error left after
        subtracting both saddles falls 172x (2.84e-3 -> 1.65e-5).
    """
    smeared = [time_smeared_error(mu0) for mu0 in SWEEP_SPACINGS]
    report("7b continuum-tenfold-smeared", smeared[-1], smeared[0] / 10.0)
    saddles = [two_saddle_error(mu0) for mu0 in SWEEP_SPACINGS]
    report("7b continuum-tenfold-two-saddle", saddles[-1], saddles[0] / 10.0)
    assert smeared[-1] <= smeared[0] / 10.0, f"smeared errors={smeared}"
    assert saddles[-1] <= saddles[0] / 10.0, f"two-saddle errors={saddles}"


def test_criterion_8_box_spectrum_oracle(verify_records):
    assert_criterion(verify_records, "8")


def test_criterion_9_special_functions(verify_records):
    assert_criterion(verify_records, "9")


def test_criterion_10_momentum_consistency(verify_records):
    assert_criterion(verify_records, "10")
