"""Command line: tabulate kernels, evolve state files, verify invariants, sweep.

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 physical-precondition violation (box state with wall support).

Runs are reproducible: configuration comes from one JSON file plus flag
overrides, no environment variables are read, and floats are written
with shortest round-trip precision, so identical config and seed give
byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import WallSupportError
from .lattice import PhysicalParams, dimensionless_time
from .propagators import PropagatorKernel, continuum_sweep, evolve, kernel_table
from .stateio import load_wavefunction, save_wavefunction, write_atomic
from .verify import SUITE_NAMES, run_suite

# "box-images" is an alias of "box": the box engine is the image
# construction, the odd part of the circle step
_SYSTEM_CHOICES = ("free", "box", "box-images", "periodic")


def _parse_mu0_list(text: str) -> tuple[float, ...]:
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "/" in token:
            num, den = token.split("/", 1)
            values.append(float(num) / float(den))
        else:
            values.append(float(token))
    if not values:
        raise ValueError("empty mu0 list")
    return tuple(values)


# config key -> (RunConfig field, flag that overrides it or None, flag value -> field value)
_FIELDS = {
    "hbar": ("hbar", "hbar", None),
    "mass": ("mass", "mass", None),
    "mu0": ("mu0", "mu0", None),
    "system": ("system", "system", None),
    "N": ("n", "N", None),
    "seed": ("seed", "seed", None),
    "format": ("output_format", "format", None),
    "suite": ("suite", "suite", None),
    "dx": ("dx", "dx", None),
    "tolerances": ("tolerances", None, None),
    "times": ("times", "dt", lambda dt: (float(dt),)),
    "mu0_list": ("mu0_list", "mu0_list", _parse_mu0_list),
}


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class RunConfig:
    hbar: float = 1.0
    mass: float = 1.0
    mu0: float = 1.0
    system: str = "free"
    n: int | None = None
    times: tuple[float, ...] = (1.0,)
    output_format: str = "csv"
    seed: int = 0
    tolerances: dict | None = None
    suite: str = "all"
    dx: float = 1.0
    mu0_list: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("hbar", "mass", "mu0", "dx"):
            if not _is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a number, "
                                 f"got {getattr(self, name)!r}")
        if not (self.n is None or _is_integer(self.n)):
            raise ValueError(f"N must be an integer, got {self.n!r}")
        if not _is_integer(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        for name in ("times", "mu0_list"):
            values = getattr(self, name)
            if values is None and name == "mu0_list":
                continue
            if not (isinstance(values, (list, tuple)) and all(map(_is_number, values))):
                raise ValueError(f"{name} must be a list of numbers, got {values!r}")
            setattr(self, name, tuple(float(v) for v in values))
        if self.tolerances is not None and not (
                isinstance(self.tolerances, dict)
                and all(map(_is_number, self.tolerances.values()))):
            raise ValueError(f"tolerances must be an object of numbers, got {self.tolerances!r}")
        if self.system not in _SYSTEM_CHOICES:
            raise ValueError(f"system must be one of {_SYSTEM_CHOICES}, "
                             f"got {self.system!r}")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.output_format!r}")
        if not self.times:
            raise ValueError("times must be nonempty")
        if self.suite not in SUITE_NAMES:
            raise ValueError(f"suite must be one of {SUITE_NAMES}")

    def params(self) -> PhysicalParams:
        return PhysicalParams(hbar=self.hbar, mass=self.mass, mu0=self.mu0)

    def kernel(self) -> PropagatorKernel:
        if self.system == "free":
            return PropagatorKernel.free(self.params())
        system = "box" if self.system == "box-images" else self.system
        return PropagatorKernel(system, self.params(), n=self.n)


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    unknown = set(raw) - set(_FIELDS)
    if unknown:
        raise ValueError(f"config {path} has unknown keys {sorted(unknown)}")
    return RunConfig(**{_FIELDS[key][0]: value for key, value in raw.items()})


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates = {}
    for field, flag, convert in _FIELDS.values():
        value = getattr(args, flag, None) if flag else None
        if value is not None:
            updates[field] = convert(value) if convert else value
    return replace(config, **updates)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_table(header: list[str], rows: list[dict], fmt: str,
                out_path: str | None) -> None:
    """Materialize the whole table, then write it atomically: no stub file."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[h]) for h in header])
        text = buf.getvalue()
    else:
        text = json.dumps(rows, indent=2) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        write_atomic(out_path, text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_kernel(args: argparse.Namespace, config: RunConfig) -> int:
    kernel = config.kernel()
    lo, hi = (-4, 4) if config.system in ("free", "periodic") else (0, config.n)
    j_lo, j_hi, r_lo, r_hi = (default if v is None else v for v, default in (
        (args.j_min, lo), (args.j_max, hi), (args.r_min, lo), (args.r_max, hi)))
    if j_lo > j_hi or r_lo > r_hi:
        raise ValueError("empty index range")

    js, rs = range(j_lo, j_hi + 1), range(r_lo, r_hi + 1)
    rows = []
    for dt in config.times:
        z = dimensionless_time(kernel.params, dt)
        table = kernel_table(kernel, js, rs, dt).tolist()
        for j, values in zip(js, table):
            for r, value in zip(rs, values):
                rows.append({
                    "system": config.system, "j": j, "r": r,
                    "dt": float(dt), "z": z,
                    "re": value.real, "im": value.imag,
                })
    _emit_table(["system", "j", "r", "dt", "z", "re", "im"], rows,
                config.output_format, args.out)
    return 0


def cmd_evolve(args: argparse.Namespace, config: RunConfig) -> int:
    psi0 = load_wavefunction(args.state)
    # the sidecar carries the physics; the config only selects the system
    p = psi0.lattice.params
    config = replace(config, hbar=p.hbar, mass=p.mass, mu0=p.mu0)
    kernel = config.kernel()
    dt = config.times[0]
    window = None
    if args.out_window is not None:
        lo, hi = args.out_window.split(":", 1)
        window = (int(lo), int(hi))
    psi1 = evolve(psi0, kernel, dt, window)
    save_wavefunction(psi1, args.out)
    sys.stdout.write(f"norm_before={psi0.norm()!r}\n")
    sys.stdout.write(f"norm_after={psi1.norm()!r}\n")
    return 0


def cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    results = run_suite(config.suite, params=config.params(),
                        n_box=8 if config.n is None else config.n,
                        seed=config.seed, overrides=config.tolerances)
    rows = [{
        "suite": r.suite, "name": r.name,
        "deviation": r.deviation, "tolerance": r.tolerance,
        "status": "pass" if r.passed else "fail",
    } for r in results]
    _emit_table(["suite", "name", "deviation", "tolerance", "status"],
                rows, config.output_format, args.out)
    failures = [r for r in results if not r.passed]
    if args.out is not None or config.output_format == "json":
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            sys.stdout.write(f"{mark} {r.suite}/{r.name} "
                             f"dev={r.deviation!r} tol={r.tolerance!r}\n")
    for r in failures:
        sys.stderr.write(f"FAIL {r.suite}/{r.name}: deviation {r.deviation!r} "
                         f"exceeds tolerance {r.tolerance!r}\n")
    return 1 if failures else 0


def cmd_sweep(args: argparse.Namespace, config: RunConfig) -> int:
    mu0_list = config.mu0_list
    if not mu0_list:
        raise ValueError("sweep needs mu0_list (flag --mu0-list or config)")
    points = continuum_sweep(config.dx, config.times[0], mu0_list,
                             hbar=config.hbar, mass=config.mass)
    rows = []
    for i, pt in enumerate(points):
        if i + 1 < len(points) and points[i + 1].abs_error > 0:
            order = math.log2(pt.abs_error / points[i + 1].abs_error)
        else:
            order = None
        rows.append({
            "mu0": pt.mu0, "l": pt.sites, "z": pt.z,
            "abs_error": pt.abs_error, "empirical_order": order,
        })
    _emit_table(["mu0", "l", "z", "abs_error", "empirical_order"], rows,
                config.output_format, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, physics: bool = True) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--system", choices=_SYSTEM_CHOICES)
    sub.add_argument("--N", type=int, help="box intervals (walls at 0 and N)")
    if physics:
        sub.add_argument("--mu0", type=float)
        sub.add_argument("--hbar", type=float)
        sub.add_argument("--mass", type=float)
    sub.add_argument("--dt", type=float, help="single evolution time")
    sub.add_argument("--format", choices=("csv", "json"))
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out", help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polymerqm",
        description="Polymer lattice propagators: tabulate, evolve, verify, sweep.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_kernel = subs.add_parser("kernel", help="tabulate a propagator kernel")
    _add_common(p_kernel)
    p_kernel.add_argument("--j-min", type=int)
    p_kernel.add_argument("--j-max", type=int)
    p_kernel.add_argument("--r-min", type=int)
    p_kernel.add_argument("--r-max", type=int)
    p_kernel.set_defaults(func=cmd_kernel)

    # the state's sidecar carries hbar, mass and mu0, so evolve takes no physics flags
    p_evolve = subs.add_parser("evolve", help="evolve a wavefunction file")
    _add_common(p_evolve, physics=False)
    p_evolve.add_argument("state", help="input wavefunction CSV (with JSON sidecar)")
    p_evolve.add_argument("--out-window",
                          help="free/periodic output window lo:hi "
                               "(use --out-window=-8:8 for negative bounds)")
    p_evolve.set_defaults(func=cmd_evolve)

    p_verify = subs.add_parser("verify", help="run an invariant suite")
    _add_common(p_verify)
    p_verify.add_argument("--suite", choices=SUITE_NAMES)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = subs.add_parser("sweep", help="continuum-limit error sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--dx", type=float, help="fixed physical separation")
    p_sweep.add_argument("--mu0-list", dest="mu0_list",
                         help="comma-separated spacings, fractions allowed (1/8,1/16)")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
        if args.command == "evolve" and args.out is None:
            raise ValueError("evolve needs --out for the evolved state file")
        return args.func(args, config)
    except WallSupportError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
