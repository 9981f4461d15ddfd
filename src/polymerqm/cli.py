"""Command line: tabulate kernels, evolve state files, verify invariants, sweep.

Each subcommand accepts only the inputs it reads.  `_INPUTS` is the one
table of them: each config key with its flag, how the flag and the JSON
value are read, its default and the subcommands that read it.  The
subcommand parsers and `load_config` are built from it, so a flag or a
config key that a subcommand would ignore is a usage error, and so is
more than one time for `evolve` or `sweep`.

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 physical-precondition violation (box state with wall support).

Tables and state files are CSV: CRLF line ends, floats as shortest
round-trip `repr`, no quoting (no cell holds a comma, a quote or a line
break) and an empty cell for a missing value; each line is one f-string.
`--format json` writes a list of row objects instead.  Runs are
reproducible: configuration comes from one JSON file plus flag
overrides and no environment variables are read, so identical config
and seed give byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import SUITE_NAMES
from .dynamics import WallSupportError
from .lattice import PhysicalParams
from .propagators import PropagatorKernel, _kernel_rows, _plan, evolve
from .stateio import _BLOCK, _csv_lines, load_wavefunction, save_wavefunction, write_atomic


def _parse_mu0_list(text: str) -> tuple[float, ...]:
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "/" in token:
            num, den = token.split("/", 1)
            if float(den) == 0.0:
                raise argparse.ArgumentTypeError(f"zero denominator in {token!r}")
            values.append(float(num) / float(den))
        else:
            values.append(float(token))
    if not values:
        raise argparse.ArgumentTypeError("empty mu0 list")
    return tuple(values)


def _parse_dt(text: str) -> tuple[float]:
    return (float(text),)


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, two integers, got {text!r}") from None
    return lo, hi


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# what a JSON config value must be -> its check
_JSON_CHECKS = {
    "a number": _is_number,
    "an integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "a nonempty list of numbers": lambda value: (
        isinstance(value, list) and bool(value) and all(map(_is_number, value))),
    "an object of numbers": lambda value: (
        isinstance(value, dict) and all(map(_is_number, value.values()))),
}


class _Input(NamedTuple):
    flag: str | None    # the flag that overrides the config key; None: config only
    parse: object       # flag text -> value, or the tuple of allowed values
    json: str | None    # a `_JSON_CHECKS` key; None: one of the allowed values
    default: object
    commands: str       # the subcommands that read it, space-separated
    help: str | None = None


_INPUTS = {
    "hbar": _Input("--hbar", float, "a number", 1.0, "kernel verify sweep"),
    "mass": _Input("--mass", float, "a number", 1.0, "kernel verify sweep"),
    "mu0": _Input("--mu0", float, "a number", 1.0, "kernel verify",
                  "lattice spacing"),
    # "box-images" is an alias of "box": the box engine is the image
    # construction, the odd part of the circle step
    "system": _Input("--system", ("free", "box", "box-images", "periodic"), None,
                     "free", "kernel evolve"),
    "N": _Input("--N", int, "an integer", None, "kernel evolve verify",
                "box intervals (walls at 0 and N), or half the period"),
    "times": _Input("--dt", _parse_dt, "a nonempty list of numbers", (1.0,),
                    "kernel evolve sweep", "single evolution time"),
    "format": _Input("--format", ("csv", "json"), None, "csv", "kernel verify sweep"),
    "seed": _Input("--seed", int, "an integer", 0, "verify",
                   "non-negative integer seeding random.Random for the sampled records"),
    "suite": _Input("--suite", SUITE_NAMES, None, "all", "verify"),
    "tolerances": _Input(None, None, "an object of numbers", None, "verify"),
    "dx": _Input("--dx", float, "a number", 1.0, "sweep", "fixed physical separation"),
    "mu0_list": _Input("--mu0-list", _parse_mu0_list, "a nonempty list of numbers",
                       None, "sweep",
                       "comma-separated spacings, fractions allowed (1/8,1/16)"),
}


def _inputs_of(command: str) -> dict[str, _Input]:
    return {key: spec for key, spec in _INPUTS.items()
            if command in spec.commands.split()}


def load_config(path: str | None, command: str) -> dict:
    """The config keys of a JSON file, checked against what `command` reads.

    A key the command does not read, or a value of the wrong type, is a
    ValueError.  Lists of numbers come back as tuples of floats.
    """
    if path is None:
        return {}
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    inputs = _inputs_of(command)
    unread = set(raw) - set(inputs)
    if unread:
        raise ValueError(f"config {path} has keys {command} does not read: "
                         f"{sorted(unread)}")
    config = {}
    for key, value in raw.items():
        spec = inputs[key]
        if not (value in spec.parse if spec.json is None
                else _JSON_CHECKS[spec.json](value)):
            what = spec.json or f"one of {spec.parse}"
            raise ValueError(f"{key} must be {what}, got {value!r}")
        config[key] = tuple(map(float, value)) if isinstance(value, list) else value
    return config


def _resolve_inputs(args: argparse.Namespace) -> None:
    """Set each input the command reads: its flag, else the config, else the default."""
    config = load_config(args.config, args.command)
    for key, spec in _inputs_of(args.command).items():
        if getattr(args, key, None) is None:
            setattr(args, key, config.get(key, spec.default))


def _single_time(args: argparse.Namespace) -> float:
    if len(args.times) != 1:
        raise ValueError(f"{args.command} takes exactly one time, "
                         f"got {len(args.times)}")
    return args.times[0]


def _kernel(args: argparse.Namespace, params: PhysicalParams) -> PropagatorKernel:
    system = "box" if args.system == "box-images" else args.system
    return PropagatorKernel(system, params, n=args.N)


def _params(args: argparse.Namespace) -> PhysicalParams:
    return PhysicalParams(hbar=args.hbar, mass=args.mass, mu0=args.mu0)


def _fmt(value) -> str:
    """One CSV cell: empty for None, repr for a float, str otherwise."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _emit(chunks, out_path: str | None) -> None:
    """Write str chunks as they come, atomically to a file, or to stdout."""
    if out_path is None:
        sys.stdout.writelines(chunks)
    else:
        write_atomic(out_path, chunks)


def _emit_table(header: list[str], rows: list[tuple], fmt: str,
                out_path: str | None) -> None:
    """Rows of cells in header order, as CSV lines of `_fmt` cells or JSON objects."""
    if fmt == "csv":
        chunks = _csv_lines(header, (",".join(map(_fmt, row)) for row in rows))
    else:
        chunks = [json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"]
    _emit(chunks, out_path)


def _json_list(objects):
    """Object texts in the layout json.dumps(list, indent=2) gives a nonempty list."""
    sep = "[\n"
    for text in objects:
        yield sep + text
        sep = ",\n"
    yield "\n]\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_kernel(args: argparse.Namespace) -> int:
    """Tabulate k(j, r, dt) in O(R + W + N) memory for R columns, any rows.

    Every time is planned once, first (`_plan`), so an error writes nothing; then each
    time's kernel vector is built from its plan in turn (`_kernel_rows`), its rows of j
    gathered about `_BLOCK` cells at a time, each row written once formatted.
    """
    kernel = _kernel(args, _params(args))
    lo, hi = (0, kernel.n) if kernel.system == "box" else (-4, 4)
    j_lo, j_hi, r_lo, r_hi = (default if v is None else v for v, default in (
        (args.j_min, lo), (args.j_max, hi), (args.r_min, lo), (args.r_max, hi)))
    plans = [(float(dt), _plan(kernel, dt, (r_lo, r_hi), (j_lo, j_hi))) for dt in args.times]
    rs = np.arange(r_lo, r_hi + 1)
    # one f-string per cell, a CSV line or a JSON object laid out as
    # json.dumps(rows, indent=2) would: dt and z are formatted once per
    # time, j once per row, r once per table; cells are joined a row at a time
    as_json = args.format == "json"
    system = json.dumps(args.system) if as_json else args.system
    mid, end, sep = (',\n    "im": ', "\n  }", ",\n") if as_json else (",", "", "\r\n")
    r_cells = [str(r) for r in rs.tolist()]
    step = max(1, _BLOCK // rs.size)  # rows of j per gather

    def blocks():
        for dt, plan in plans:
            z, read = plan.z, _kernel_rows(plan)
            tail = (f',\n    "dt": {dt!r},\n    "z": {z!r},\n    "re": ' if as_json
                    else f",{dt!r},{z!r},")
            for start in range(j_lo, j_hi + 1, step):
                block = np.arange(start, min(start + step, j_hi + 1))
                for j, row in zip(block.tolist(), read(block[:, None], rs)):
                    head = (f'  {{\n    "system": {system},\n    "j": {j},\n    "r": '
                            if as_json else f"{system},{j},")
                    yield sep.join([f"{head}{r}{tail}{re!r}{mid}{im!r}{end}"
                                    for r, re, im in zip(r_cells, row.real.tolist(),
                                                         row.imag.tolist())])

    header = ["system", "j", "r", "dt", "z", "re", "im"]
    _emit(_json_list(blocks()) if as_json else _csv_lines(header, blocks()), args.out)
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    if args.out is None:
        raise ValueError("evolve needs --out for the evolved state file")
    dt = _single_time(args)
    psi0 = load_wavefunction(args.state)
    # the sidecar carries the physics; the config only selects the system
    psi1 = evolve(psi0, _kernel(args, psi0.lattice.params), dt, args.out_window)
    save_wavefunction(psi1, args.out)
    sys.stdout.write(f"norm_before={psi0.norm()!r}\n")
    sys.stdout.write(f"norm_after={psi1.norm()!r}\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite  # the check suites load only for verify

    results = run_suite(args.suite, params=_params(args),
                        n_box=8 if args.N is None else args.N,
                        seed=args.seed, overrides=args.tolerances)
    rows = [(r.suite, r.name, r.deviation, r.tolerance, "pass" if r.passed else "fail")
            for r in results]
    _emit_table(["suite", "name", "deviation", "tolerance", "status"],
                rows, args.format, args.out)
    failures = [r for r in results if not r.passed]
    if args.out is not None or args.format == "json":
        for r in results:
            sys.stdout.write(f"{'PASS' if r.passed else 'FAIL'} {r.suite}/{r.name} "
                             f"dev={r.deviation!r} tol={r.tolerance!r}\n")
    for r in failures:
        sys.stderr.write(f"FAIL {r.suite}/{r.name}: deviation {r.deviation!r} "
                         f"exceeds tolerance {r.tolerance!r}\n")
    return 1 if failures else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .checks import continuum_sweep  # the check routes load only for sweep

    dt = _single_time(args)
    if args.mu0_list is None:
        raise ValueError("sweep needs mu0_list (flag --mu0-list or config)")
    points = continuum_sweep(args.dx, dt, args.mu0_list,
                             hbar=args.hbar, mass=args.mass)
    rows = [(pt.mu0, pt.sites, pt.z, pt.abs_error,  # the order against the next spacing
             math.log2(pt.abs_error / nxt.abs_error) if nxt and nxt.abs_error > 0 else None)
            for pt, nxt in zip(points, [*points[1:], None])]
    _emit_table(["mu0", "l", "z", "abs_error", "empirical_order"], rows,
                args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polymerqm",
        description="Polymer lattice propagators: tabulate, evolve, verify, sweep.")
    subs = parser.add_subparsers(dest="command", required=True)
    commands = {
        "kernel": (cmd_kernel, "tabulate a propagator kernel"),
        "evolve": (cmd_evolve, "evolve a wavefunction file"),
        "verify": (cmd_verify, "run an invariant suite"),
        "sweep": (cmd_sweep, "continuum-limit error sweep"),
    }
    sub = {}
    for command, (func, help_text) in commands.items():
        sub[command] = p = subs.add_parser(command, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output file (default: stdout)")
        for key, spec in _inputs_of(command).items():
            if spec.flag is not None:
                kind = ({"choices": spec.parse} if isinstance(spec.parse, tuple)
                        else {"type": spec.parse, "metavar": spec.flag[2:].upper()})
                p.add_argument(spec.flag, dest=key, help=spec.help, **kind)

    for bound in ("--j-min", "--j-max", "--r-min", "--r-max"):
        sub["kernel"].add_argument(bound, type=int)
    sub["evolve"].add_argument("state", help="input wavefunction CSV (with JSON sidecar)")
    sub["evolve"].add_argument("--out-window", type=_parse_window,
                               help="free/periodic output window lo:hi "
                                    "(use --out-window=-8:8 for negative bounds)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve_inputs(args)
        return args.func(args)
    except WallSupportError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
