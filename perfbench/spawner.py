"""Starts the benchmark's jobs, one at a time, and reports what each cost.

Linux carries a parent's peak RSS over into a child at fork and exec,
so a child's ru_maxrss never reads below its parent's peak. The
benchmark process holds the output references in memory, so it does
not start jobs itself: this small process, started before the benchmark
loads numpy, starts them and reads each child's rusage with os.wait4.

Protocol: one JSON request per line on stdin,
{"argv": [...], "cwd": ..., "log": ..., "timeout": ...}, and one JSON
reply per line on stdout, {"latency_s", "rss_mb", "rc", "timed_out"}.
End of input ends the process. Only the standard library is imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run_child(argv: list, cwd: str, log: str, timeout: float) -> dict:
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        latency = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"latency_s": latency, "rss_mb": usage.ru_maxrss / 1024.0,
            "rc": proc.returncode, "timed_out": killed.is_set()}


class Spawner:
    """Client side: owns the spawner process and sends it one job at a time."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, text=True)

    def run(self, argv: list, cwd: str, log: str,
            timeout: float) -> tuple[float, float, int, bool]:
        """(latency_s, max_rss_mb, exit_code, timed_out) of one child."""
        request = {"argv": argv, "cwd": cwd, "log": log, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the job spawner exited")
        reply = json.loads(line)
        return reply["latency_s"], reply["rss_mb"], reply["rc"], reply["timed_out"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        reply = run_child(req["argv"], req["cwd"], req["log"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
