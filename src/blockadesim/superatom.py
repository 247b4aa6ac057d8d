"""Mesoscopic excitation dynamics of superatom ensembles.

A superatom of N atoms shares one excitation and Rabi-oscillates at the
collectively enhanced frequency sqrt(N) * omega0. Its excitation
probability, with an optional phenomenological damping gamma of the
coherence, is

    p(t) = (1 - exp(-gamma t) * cos(sqrt(N) omega0 t)) / 2

which at gamma = 0 is sin^2(sqrt(N) omega0 t / 2). A cloud's excitation
curve is the weight-sum of its superatoms' probabilities, and saturates
near sum(w)/2 once the oscillations dephase across the ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloud import SuperatomEnsemble
from .core import PhysicalParams, validate_time_grid
from .errors import DegenerateDataError, InvalidParameterError

__all__ = [
    "ExcitationCurve",
    "superatom_population",
    "simulate_cloud",
    "noninteracting_reference",
    "crossover_time",
]

# Distinct superatom sizes per block when accumulating the (size x time)
# population matrix; bounds peak memory at a few _CHUNK * len(t) floats.
_CHUNK = 4096


@dataclass(frozen=True)
class ExcitationCurve:
    """Expected excitation number sampled on a time grid."""

    times: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        times = validate_time_grid(self.times)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape:
            raise InvalidParameterError("times and values must be matching 1-D arrays")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise InvalidParameterError("curve values must be finite and non-negative")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.times.size


def superatom_population(n_per, omega0: float, t, gamma: float = 0.0):
    """Excitation probability at time(s) ``t``; ``n_per`` broadcasts against ``t``."""
    n_per = np.asarray(n_per, dtype=float)
    if np.any(n_per < 0.0):
        raise InvalidParameterError("n_per must be non-negative")
    if omega0 <= 0.0:
        raise InvalidParameterError("omega0 must be positive")
    if gamma < 0.0:
        raise InvalidParameterError("gamma must be non-negative")
    t = np.asarray(t, dtype=float)
    envelope = np.exp(-gamma * t) if gamma > 0.0 else 1.0
    value = 0.5 * (1.0 - envelope * np.cos(np.sqrt(n_per) * omega0 * t))
    return float(value) if value.ndim == 0 else value


def simulate_cloud(
    ensemble: SuperatomEnsemble, params: PhysicalParams, time_grid
) -> ExcitationCurve:
    """Weighted excitation curve of a partitioned cloud.

    Weights of exactly equal ``n_per`` are pooled, then the law is summed
    once per distinct size, in ascending order and fixed-size blocks, so
    identical inputs give bit-identical curves.
    """
    if len(ensemble) == 0:
        raise DegenerateDataError(
            "ensemble is empty (n_min above the central superatom size?)"
        )
    t = validate_time_grid(time_grid)

    n_distinct, inverse = np.unique(ensemble.n_per, return_inverse=True)
    grouped = np.bincount(inverse, weights=ensemble.weight)
    values = np.zeros_like(t)
    for lo in range(0, n_distinct.size, _CHUNK):
        hi = lo + _CHUNK
        values += grouped[lo:hi] @ superatom_population(
            n_distinct[lo:hi, None], params.omega0, t, params.gamma_dephase
        )
    metadata = {
        "omega0_radps": params.omega0,
        "gamma_per_s": params.gamma_dephase,
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
    excitation number is n_atoms * sin^2(omega0 t / 2) (damped by gamma
    the same way single superatoms are).
    """
    if n_atoms <= 0.0:
        raise InvalidParameterError("n_atoms must be positive")
    t = validate_time_grid(time_grid)
    values = n_atoms * superatom_population(1.0, params.omega0, t, params.gamma_dephase)
    return ExcitationCurve(t, values, {"n_atoms": n_atoms})


def crossover_time(
    curve: ExcitationCurve, reference: ExcitationCurve, threshold: float = 0.1
) -> float | None:
    """First time the curve falls below (1 - threshold) x the reference.

    Both curves must share a time grid. The crossing is located by linear
    interpolation of f(t) = curve - (1 - threshold) * reference between
    the bracketing grid points; if the curve is already below at the
    second grid point the interpolation degenerates and that grid time is
    returned. Returns None when no crossing occurs on the grid.

    Points where the reference is zero (including t = 0) carry no signal
    and are skipped.
    """
    if not (0.0 < threshold < 1.0):
        raise InvalidParameterError("threshold must be in (0, 1)")
    if curve.times.shape != reference.times.shape or not np.array_equal(
        curve.times, reference.times
    ):
        raise InvalidParameterError("curve and reference must share a time grid")
    t = curve.times
    gap = curve.values - (1.0 - threshold) * reference.values
    for k in range(t.size):
        if reference.values[k] == 0.0:
            continue
        if gap[k] < 0.0:
            if k == 0:
                return float(t[0])
            prev = gap[k - 1]
            if prev > 0.0:
                frac = prev / (prev - gap[k])
                return float(t[k - 1] + frac * (t[k] - t[k - 1]))
            if prev == 0.0 and reference.values[k - 1] > 0.0:
                return float(t[k - 1])  # exact touch at the previous point
            return float(t[k])  # previous point carried no signal
    return None
