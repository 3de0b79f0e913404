"""CPU speed probe: one fixed sparse solve timed, again and again, on the stages' CPU.

    python3 probe.py SAMPLES PERIOD

On a shared host the speed of one virtual CPU drifts: the same work runs up
to 1.6 times slower for seconds or minutes at a time, and the guest sees no
steal time, so process CPU time drifts with wall time.  The benchmark
therefore pins the stages and this probe to one CPU.  Every PERIOD seconds
the probe factors and solves the same 3,600-unknown 2D Laplacian with
SuperLU and appends (start on the ``time.monotonic`` clock, thread CPU
seconds of the solve) to SAMPLES as two doubles.  Thread CPU time leaves out
the slices in which a stage process ran instead of the probe, so a sample
measures only how fast the CPU ran the solve.

The probe uses numpy and scipy only, never ``homsim``, so a change to the
program cannot change it.  A sparse factorization follows the stages'
slowdowns more closely than a pure Python loop, a memory-gather loop or a
page-fault loop did: tried on the macro-march stages, their times slow down
as the probe's to the power 1.1-1.25 for this probe, 1.4-1.6 for a Python
loop and about 2 for the other two.

``SpeedProbe`` starts and stops the probe process and turns its samples into
the factor by which the CPU was slower over an interval than the reference
speed, ``NOMINAL_S`` per solve.
"""

from __future__ import annotations

import pathlib
import struct
import subprocess
import sys
import time

import numpy as np

GRID = 60
# Seconds of one solve at the reference speed: about the fastest it ran on a
# 2-vCPU Intel Xeon guest (scipy 1.17).  The value only fixes the scale of
# the rescaled times; both sides of a comparison use it.
NOMINAL_S = 11e-3
PERIOD_S = 0.3
# An interval with fewer samples than this borrows the nearest ones.
MIN_SAMPLES = 4
START_TIMEOUT_S = 20.0
_RECORD = struct.Struct("dd")


def laplacian(n: int = GRID):
    import scipy.sparse as sp

    eye = sp.identity(n, format="csr")
    tri = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    return (sp.kron(eye, tri) + sp.kron(tri, eye)).tocsc()


def main(argv) -> int:
    from scipy.sparse.linalg import splu

    path, period = argv[0], float(argv[1])
    a = laplacian()
    b = np.ones(a.shape[0])
    splu(a).solve(b)
    with open(path, "ab", buffering=0) as out:
        while True:
            t, c = time.monotonic(), time.thread_time()
            splu(a).solve(b)
            out.write(_RECORD.pack(t, time.thread_time() - c))
            time.sleep(period)


class SpeedProbe:
    """The probe process, started on entry and stopped on exit.

    It inherits the CPU affinity of the process that starts it.  Entry
    returns once the first sample is written.
    """

    def __init__(self, path: pathlib.Path, period: float = PERIOD_S):
        self.path, self.period = pathlib.Path(path), period
        self.proc = None
        self.samples = np.empty((0, 2))

    def __enter__(self):
        self.path.unlink(missing_ok=True)
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.path),
                                      repr(self.period)])
        limit = time.monotonic() + START_TIMEOUT_S
        while not (self.path.exists() and self.path.stat().st_size >= _RECORD.size):
            if self.proc.poll() is not None or time.monotonic() > limit:
                self.__exit__(None, None, None)
                raise OSError(f"the speed probe wrote no sample (exit code {self.proc.returncode})")
            time.sleep(0.05)
        return self

    def __exit__(self, *exc):
        self.proc.kill()
        self.proc.wait()
        data = self.path.read_bytes() if self.path.exists() else b""
        n = len(data) // _RECORD.size
        self.samples = np.frombuffer(data[:n * _RECORD.size], float).reshape(n, 2)
        return False

    def slowdown(self, start: float, end: float) -> float:
        """Mean solve time over [start, end] divided by ``NOMINAL_S``.

        Takes the samples that started inside the interval, or the
        ``MIN_SAMPLES`` nearest to it when there are fewer.
        """
        t, dur = self.samples[:, 0], self.samples[:, 1]
        inside = (t >= start) & (t <= end)
        if inside.sum() < MIN_SAMPLES:
            gap = np.maximum(start - t, t - end)
            inside = np.argsort(gap)[:MIN_SAMPLES]
        return float(dur[inside].mean() / NOMINAL_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
