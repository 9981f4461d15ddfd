"""polymerqm end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run builds the workload's seeded
job list, input files and references (set-up, repeated and timed
apart), then runs the jobs through the real command line,
`python -m polymerqm.cli ...` with PYTHONPATH=src, one fresh interpreter
per job, in a closed loop: one client, one job at a time. It repeats the
whole job list at least three times and until S seconds are spent, and
checks every output file against a numpy-only reference. Between jobs
it times a fresh interpreter importing polymerqm.cli, and a fixed
pure-Python loop that job and import times are scaled by, so that they
read in reference-speed seconds (see bench.py).

With --trace 0 the last line of stdout holds the end-to-end metrics;
with --trace 1 it holds per-layer metrics from a traced pass over the
same job list (see trace_runner.py and layers.py). The line before it
holds run metadata. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import os
import sys

from spawner import Spawner

# One BLAS thread for this process and every job, on every commit:
# box-spectral's matmul would otherwise use every core.
BLAS_THREADS = "1"
# workloads.WORKLOADS; not imported from there, since that loads numpy
WORKLOADS = ("evolve", "tabulate", "deep-time", "verify")
WORKDIR = ".perfbench_work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "polymerqm", "cli.py")):
        sys.stderr.write("error: run from a polymerqm checkout "
                         "(src/polymerqm/cli.py not found)\n")
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    workdir = os.path.join(root, WORKDIR, args.workload)
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), TMPDIR=workdir)
    # started before numpy is loaded here; see spawner.py
    spawner = Spawner(env)
    try:
        import bench
        return bench.run(args, root, workdir, spawner)
    finally:
        spawner.close()


if __name__ == "__main__":
    sys.exit(main())
