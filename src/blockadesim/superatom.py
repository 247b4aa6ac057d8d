"""Mesoscopic excitation dynamics of superatom ensembles.

A superatom of N atoms shares one excitation and Rabi-oscillates,
resonantly and without damping, at the collectively enhanced frequency
sqrt(N) * omega0. Its excitation probability is

    p(t) = (1 - cos(sqrt(N) omega0 t)) / 2 = sin^2(sqrt(N) omega0 t / 2)

A cloud's excitation curve is the weight-sum of its superatoms'
probabilities, and saturates near sum(w)/2 once the oscillations dephase
across the ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloud import SuperatomEnsemble
from .core import PhysicalParams, _require, require_memory, validate_time_grid

__all__ = [
    "ExcitationCurve",
    "superatom_population",
    "simulate_cloud",
    "noninteracting_reference",
    "crossover_time",
]

# Distinct superatom sizes per block of the (size x time) population matrix.
# simulate_cloud's two memory estimates pad its traced peaks: 8 B per
# ensemble entry (the gathered distinct-size index, then the product that
# total_atoms_covered sums) plus 40 B per class in pooled()'s np.unique,
# estimated as 8 and 48; then 9 B per block element, estimated as 12,
# plus the 16 B per distinct size that the loop holds and numpy's ufunc
# buffers, _UFUNC_BUFFER_BYTES.
_CHUNK = 4096
# the broadcast phase sqrt(n_per) omega0 t buffers its short inner loops:
# up to 161,544 B beyond 9 B per element on blocks of 50-4096 sizes x
# 1-200 times (tracemalloc), estimated as three of numpy's 8192-element
# float64 buffers
_UFUNC_BUFFER_BYTES = 3 * 8 * 8192


@dataclass(frozen=True)
class ExcitationCurve:
    """Expected excitation number sampled on a time grid."""

    times: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        times = validate_time_grid(self.times)
        values = np.asarray(self.values, dtype=float)
        _require(times.shape == values.shape, "times and values must be matching 1-D arrays")
        valid = (0.0 <= values) & (values < np.inf)  # NaN fails both
        _require(bool(np.all(valid)), "curve values must be finite and non-negative")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.times.size


def superatom_population(n_per, omega0: float, t):
    """Excitation probability at time(s) ``t``; ``n_per`` broadcasts against ``t``."""
    n_per = np.asarray(n_per, dtype=float)
    # comparisons with 0 and inf also reject NaN
    valid = (0.0 <= n_per) & (n_per < np.inf)
    _require(bool(np.all(valid)), "n_per must be non-negative and finite")
    _require(0.0 < omega0 < np.inf, "omega0 must be positive and finite")
    t = np.asarray(t, dtype=float)
    _require(bool(np.all((0.0 <= t) & (t < np.inf))), "t must be non-negative and finite")
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, refused below
        phase = np.asarray(np.sqrt(n_per) * omega0 * t)
    _require(
        bool(np.all(phase < np.inf)), "t is too long: the phase sqrt(n_per) omega0 t overflows"
    )
    # sin(phase / 2)**2 in the phase's buffer: (1 - cos(phase)) / 2 loses
    # the relative precision of a small phase, all of it below about 1e-8
    value = np.multiply(phase, 0.5, out=phase)
    np.sin(value, out=value)
    np.square(value, out=value)
    return float(value) if value.ndim == 0 else value


def simulate_cloud(
    ensemble: SuperatomEnsemble, params: PhysicalParams, time_grid
) -> ExcitationCurve:
    """Weighted excitation curve of a partitioned cloud.

    Weights of exactly equal size are pooled by ``ensemble.pooled()``,
    which sorts the ensemble's size table, not its entries. The law is then
    summed once per distinct size, in ascending order and fixed-size
    blocks, so identical inputs give bit-identical curves.
    """
    _require(len(ensemble) > 0, "ensemble is empty (every cell's atom number underflows to 0?)")
    t = validate_time_grid(time_grid)
    n_classes = ensemble.sizes.size
    require_memory(
        8.0 * len(ensemble) + 48.0 * n_classes,
        f"pooling {len(ensemble)} superatom entries of {n_classes} classes",
    )
    n_distinct, grouped = ensemble.pooled()
    require_memory(
        12.0 * min(n_distinct.size, _CHUNK) * t.size + 16.0 * n_distinct.size
        + _UFUNC_BUFFER_BYTES,
        f"a curve of {n_distinct.size} distinct superatom sizes at {t.size} times",
    )
    values = np.zeros_like(t)
    for lo in range(0, n_distinct.size, _CHUNK):
        hi = lo + _CHUNK
        values += grouped[lo:hi] @ superatom_population(n_distinct[lo:hi, None], params.omega0, t)
    metadata = {
        "omega0_radps": params.omega0,
        "n_entries": len(ensemble),
        "n_distinct": int(n_distinct.size),
        "total_weight": float(ensemble.weight.sum()),
        "total_atoms_covered": ensemble.total_atoms_covered,
    }
    return ExcitationCurve(t, values, metadata)


def noninteracting_reference(
    n_atoms: float, params: PhysicalParams, time_grid
) -> ExcitationCurve:
    """Excitation curve of the same atoms with the blockade switched off.

    Every atom Rabi-oscillates independently at omega0, so the expected
    excitation number is n_atoms * sin^2(omega0 t / 2).
    """
    _require(n_atoms > 0.0, "n_atoms must be positive")
    t = validate_time_grid(time_grid)
    values = n_atoms * superatom_population(1.0, params.omega0, t)
    return ExcitationCurve(t, values, {"n_atoms": n_atoms})


def crossover_time(
    curve: ExcitationCurve, reference: ExcitationCurve, threshold: float = 0.1
) -> float | None:
    """First time the curve falls below (1 - threshold) x the reference.

    Both curves must share a time grid. The crossing is located by linear
    interpolation of f(t) = curve - (1 - threshold) * reference between
    the bracketing grid points; if the curve is already below at the first
    grid point, or the previous one carried neither curve nor reference,
    that grid time is returned. Returns None when no crossing occurs.

    Points where the reference is zero (including t = 0) carry no signal
    and are skipped.
    """
    _require(0.0 < threshold < 1.0, "threshold must be in (0, 1)")
    _require(
        np.array_equal(curve.times, reference.times), "curve and reference must share a time grid"
    )
    t = curve.times
    signal = reference.values > 0.0
    gap = curve.values - (1.0 - threshold) * reference.values
    below = np.flatnonzero(signal & (gap < 0.0))
    if below.size == 0:
        return None
    k = int(below[0])
    # gap >= 0 before k; at gap[k - 1] = 0 the interpolation gives t[k - 1]
    if k > 0 and (gap[k - 1] > 0.0 or signal[k - 1]):
        prev = gap[k - 1]
        return float(t[k - 1] + prev / (prev - gap[k]) * (t[k] - t[k - 1]))
    return float(t[k])
