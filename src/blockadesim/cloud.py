"""Gaussian atom cloud and its tiling into blockade-sized cells.

The cloud is an anisotropic Gaussian density profile

    n(x, y, z) = n0 * exp(-x**2/(2 sx**2) - y**2/(2 sy**2) - z**2/(2 sz**2))

with peak density n0 = n_atoms / ((2 pi)**(3/2) sx sy sz). For mesoscopic
dynamics it is partitioned into a cubic grid of cells whose volume equals
one blockade sphere at the cloud center; each cell becomes one or more
"superatoms", clusters that share a single excitation.

Two local models:

* ``simple``: the blockade radius is density independent, each cell is one
  superatom holding all n_i atoms of the cell (weight 1).
* ``collective``: the radius grows self-consistently with sqrt(n) driving
  enhancement, so a cell holds n_i / N_local superatoms of N_local atoms
  each, with N_local evaluated from the density at the cell center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .core import (
    PhysicalParams,
    blockade_radius_collective,
    blockade_radius_simple,
    require_memory,
)
from .errors import InvalidParameterError
from .exact import AtomPositions

__all__ = [
    "CloudSpec",
    "SuperatomEnsemble",
    "peak_density",
    "density_at",
    "sample_positions",
    "partition_superatoms",
    "MODELS",
]

# the partition peaked at 89 (simple) and 106 (collective) B per cell on the
# reference cloud (tracemalloc)
_BYTES_PER_CELL = 128.0
MODELS = ("simple", "collective")


@dataclass(frozen=True)
class CloudSpec:
    """A Gaussian cloud: total atom number and per-axis rms radii in meters."""

    n_atoms: float
    sigma: tuple[float, float, float]

    def __post_init__(self) -> None:
        if not (self.n_atoms > 0.0 and math.isfinite(self.n_atoms)):
            raise InvalidParameterError("n_atoms must be positive and finite")
        sigma = tuple(float(s) for s in self.sigma)
        if len(sigma) != 3 or not all(s > 0.0 and math.isfinite(s) for s in sigma):
            raise InvalidParameterError("sigma must be three positive finite radii")
        object.__setattr__(self, "sigma", sigma)

    @classmethod
    def isotropic(cls, n_atoms: float, sigma: float) -> "CloudSpec":
        return cls(n_atoms, (sigma, sigma, sigma))

    @classmethod
    def from_peak_density(
        cls, peak: float, sigma: tuple[float, float, float]
    ) -> "CloudSpec":
        """Fix the total atom number so the central density equals ``peak``."""
        if peak <= 0.0:
            raise InvalidParameterError("peak density must be positive")
        sx, sy, sz = sigma
        n_atoms = peak * (2.0 * math.pi) ** 1.5 * sx * sy * sz
        return cls(n_atoms, tuple(sigma))


def peak_density(spec: CloudSpec) -> float:
    """Central density n0 in m^-3."""
    sx, sy, sz = spec.sigma
    return spec.n_atoms / ((2.0 * math.pi) ** 1.5 * sx * sy * sz)


def density_at(spec: CloudSpec, point) -> float | np.ndarray:
    """Density at one point (shape (3,)) or many (shape (..., 3)), in m^-3."""
    point = np.asarray(point, dtype=float)
    if point.shape[-1] != 3:
        raise InvalidParameterError("points must have a trailing axis of length 3")
    sigma = np.array(spec.sigma)
    exponent = -0.5 * ((point / sigma) ** 2).sum(axis=-1)
    value = peak_density(spec) * np.exp(exponent)
    return float(value) if value.ndim == 0 else value


def sample_positions(spec: CloudSpec, count: int, seed: int) -> AtomPositions:
    """Draw atom positions from the cloud's Gaussian profile, reproducibly."""
    if count < 1:
        raise InvalidParameterError("count must be at least 1")
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((count, 3)) * np.array(spec.sigma)
    return AtomPositions(coords)


@dataclass(frozen=True)
class SuperatomEnsemble:
    """Weighted superatoms tiling a cloud.

    ``n_per[k]`` atoms share one excitation in each of ``weight[k]``
    identical superatoms centered at ``centers[k]``. Weights are generally
    fractional (cells rarely hold an integer number of blockade spheres).
    ``total_atoms_covered`` is sum(weight * n_per), at most the cloud's
    atom number; the shortfall is the tail mass outside the grid plus any
    cells dropped by the n_min cut.
    """

    n_per: np.ndarray
    weight: np.ndarray
    centers: np.ndarray
    total_atoms_covered: float

    def __post_init__(self) -> None:
        n_per = np.asarray(self.n_per, dtype=float)
        weight = np.asarray(self.weight, dtype=float)
        centers = np.asarray(self.centers, dtype=float)
        k = n_per.shape[0]
        if n_per.ndim != 1 or weight.shape != (k,) or centers.shape != (k, 3):
            raise InvalidParameterError("ensemble arrays have inconsistent shapes")
        if not (np.all(np.isfinite(n_per)) and np.all(np.isfinite(weight))):
            raise InvalidParameterError("ensemble entries must be finite")
        if np.any(n_per <= 0.0) or np.any(weight <= 0.0):
            raise InvalidParameterError("n_per and weight must be positive")
        object.__setattr__(self, "n_per", n_per)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "centers", centers)

    def __len__(self) -> int:
        return self.n_per.shape[0]

    @property
    def total_superatoms(self) -> float:
        return float(self.weight.sum())


def _axis_masses(sigma: float, k: int, side: float) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center coordinates and Gaussian mass fractions along one axis."""
    edges = side * (np.arange(k + 1) - k / 2.0)
    cdf = ndtr(edges / sigma)
    return 0.5 * (edges[:-1] + edges[1:]), np.diff(cdf)


def partition_superatoms(
    spec: CloudSpec,
    params: PhysicalParams,
    model: str = "collective",
    n_min: float = 1.0,
    span_sigmas: float = 5.0,
) -> SuperatomEnsemble:
    """Tile the cloud with cells of one central blockade volume each.

    The cubic cell side is (4 pi / 3)**(1/3) times the blockade radius at
    the cloud center (the model's own radius formula, so the collective
    model tiles more coarsely at low drive). The grid is centered on the
    origin and spans at least ``span_sigmas`` rms radii on every axis;
    per-cell atom numbers are exact Gaussian integrals over the cell, and
    cells whose superatom size falls below ``n_min`` are dropped.

    Raises SizeCapError before allocating a grid that exceeds the memory limit.
    """
    if model not in MODELS:
        raise InvalidParameterError(f"unknown model {model!r}")
    # negated comparisons also reject NaN
    if not n_min >= 0.0:
        raise InvalidParameterError(f"n_min must be non-negative, got {n_min}")
    if not 0.0 < span_sigmas < math.inf:
        raise InvalidParameterError(
            f"span_sigmas must be positive and finite, got {span_sigmas}"
        )

    n0 = peak_density(spec)
    if model == "simple":
        r_peak = blockade_radius_simple(params)
    else:
        r_peak, _ = blockade_radius_collective(params, n0)
    side = (4.0 * math.pi / 3.0) ** (1.0 / 3.0) * r_peak

    # Python floats: an overflowing span gives an inf count, not an error
    counts = [max(1.0, float(np.ceil(2.0 * span_sigmas * s / side))) for s in spec.sigma]
    n_cells = math.prod(counts)
    require_memory(n_cells * _BYTES_PER_CELL, f"{n_cells:.3g} partition cells")

    per_axis = [_axis_masses(s, int(k), side) for s, k in zip(spec.sigma, counts)]
    mass = (
        per_axis[0][1][:, None, None]
        * per_axis[1][1][None, :, None]
        * per_axis[2][1][None, None, :]
    ).ravel()
    centers = np.stack(
        np.meshgrid(per_axis[0][0], per_axis[1][0], per_axis[2][0], indexing="ij"),
        axis=-1,
    ).reshape(-1, 3)
    atoms_in_cell = spec.n_atoms * mass

    if model == "simple":
        n_per = atoms_in_cell
        weight = np.ones_like(n_per)
    else:
        local = density_at(spec, centers)
        n_per = np.zeros_like(local)
        occupied = local > 0.0
        _, n_per[occupied] = blockade_radius_collective(params, local[occupied])
        with np.errstate(invalid="ignore", divide="ignore"):
            weight = atoms_in_cell / n_per

    keep = (atoms_in_cell > 0.0) & (n_per >= n_min) & (n_per > 0.0)
    n_per = n_per[keep]
    weight = weight[keep]
    centers = centers[keep]
    covered = float((weight * n_per).sum())
    return SuperatomEnsemble(n_per, weight, centers, covered)
