"""A fixed reference kernel that measures how fast the machine runs now.

On a shared host the same pass can take 1.5x longer for minutes at a
time while other tenants load the machine, and everything in the process
slows together (interpreter loops, numpy, LAPACK and sparse products
alike). The benchmark runs this kernel between CLI calls throughout a
run and scales its timings by

    REFERENCE_KERNEL_S / mean(kernel times of the run)

so that they read as seconds on a machine where the kernel takes
REFERENCE_KERNEL_S. The kernel runs for a fixed share of the time,
spread over the run, so its mean weighs the run's moments as the mean
pass time does; a median of a few passes would not, and on runs of the
same code median-based scaling left 1.5 to 2 times the spread. The
kernel is the benchmark's own code on fixed inputs, so a change to the
program moves the scaled timings as it moves the raw ones; only the
machine's speed during the run cancels.
The raw timings and the kernel samples are kept in the results file.

The kernel mixes the kinds of work the program does: float formatting
and parsing in the interpreter (the CSV writers and readers), a
vectorised cosine sum (the cloud simulation), a dense symmetric
eigendecomposition (the dense exact path) and sparse complex
matrix-vector products (the Krylov path), about a quarter of the time
each.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg
import scipy.sparse

# Mean kernel time (rounded) on the 2-core x86_64 VM (Python 3.11, numpy 2.4,
# scipy 1.17, OpenBLAS on one thread) where the benchmark was defined.
REFERENCE_KERNEL_S = 0.05
# Between calls the kernel runs until it has taken this share of the time
# since the first sample, so the samples spread over the whole run.
KERNEL_SHARE = 0.1


class Calibrator:
    """Times the reference kernel at intervals over a run."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._floats = rng.standard_normal(8000).tolist()
        self._phases = rng.uniform(0.0, 1.0, 120_000)
        self._freqs = rng.uniform(1e4, 1e6, 120_000)
        sym = rng.standard_normal((380, 380))
        self._dense = sym + sym.T
        self._sparse = scipy.sparse.random(
            20_000, 20_000, density=12 / 20_000, random_state=rng, format="csr"
        ).astype(np.complex128)
        self._vector = rng.standard_normal(20_000).astype(np.complex128)
        self.samples: list[float] = []
        self.sample()  # first touch of the inputs, untimed
        self.samples.clear()
        self._start: float | None = None

    def _kernel(self) -> float:
        text = ",".join(f"{x:.17g}" for x in self._floats)
        total = sum(float(x) for x in text.split(","))
        for t in (1e-6, 2e-6, 3e-6, 4e-6):
            total += float(np.cos(self._freqs * t + self._phases).sum())
        total += float(scipy.linalg.eigh(self._dense, eigvals_only=True)[-1])
        psi = self._vector
        for _ in range(12):
            psi = self._sparse @ psi
            psi /= np.linalg.norm(psi)
        return total + float(abs(psi[0]))

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - start)

    def keep_share(self) -> None:
        """Sample until the kernel has had KERNEL_SHARE of the time since the first call."""
        if self._start is None:
            self._start = time.perf_counter()
        while sum(self.samples) < KERNEL_SHARE * (time.perf_counter() - self._start):
            self.sample()

    def scale(self) -> float:
        """Factor that turns this run's raw seconds into reference seconds."""
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples)
