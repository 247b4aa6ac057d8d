"""Gaussian atom cloud and its tiling into blockade-sized cells.

The cloud is an anisotropic Gaussian density profile

    n(x, y, z) = n0 * exp(-x**2/(2 sx**2) - y**2/(2 sy**2) - z**2/(2 sz**2))

with peak density n0 = n_atoms / ((2 pi)**(3/2) sx sy sz). For mesoscopic
dynamics it is partitioned into a cubic grid of cells whose volume equals
one blockade sphere at the cloud center; each cell becomes one or more
"superatoms", clusters that share a single excitation.

Two local models:

* ``simple``: the blockade radius is density independent, each cell is one
  superatom holding all n_i atoms of the cell.
* ``collective``: the radius grows self-consistently with sqrt(n) driving
  enhancement, so a cell holds n_i / N_local superatoms of N_local atoms
  each, with N_local evaluated from the density at the cell center.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import (
    PhysicalParams,
    blockade_radius_collective,
    blockade_radius_simple,
    require_memory,
)
from .errors import InvalidParameterError

__all__ = [
    "CloudSpec",
    "SuperatomEnsemble",
    "peak_density",
    "partition_superatoms",
    "MODELS",
]

# the partition peaked at 70-75 B per octant cell on the reference cloud
# at 42 and 210 kHz, both models, most of it the orbit ranks of its one
# 3-axis group; at 38-42 on clouds of two distinct radii and 60-74 on
# clouds of three, where the class tables are as large as the grid
# (tracemalloc). Building ensemble.csv's columns while the ensemble is
# held adds 12-13 B per cell, the kept cells' int32 axis indices
_BYTES_PER_CELL = 88.0
MODELS = ("simple", "collective")
SPAN_SIGMAS = 5.0  # half-extent of the cell grid on each axis, in rms radii


@dataclass(frozen=True)
class CloudSpec:
    """A Gaussian cloud: total atom number and per-axis rms radii in meters."""

    n_atoms: float
    sigma: tuple[float, float, float]

    def __post_init__(self) -> None:
        sigma = tuple(float(s) for s in self.sigma)
        if len(sigma) != 3 or not all(s > 0.0 and math.isfinite(s) for s in sigma):
            raise InvalidParameterError("sigma must be three positive finite radii")
        # refuses NaN, zero, negative or infinite n_atoms too; a volume
        # that underflows to 0 would divide by zero
        volume = _gaussian_volume(sigma)
        if not (volume > 0.0 and 0.0 < self.n_atoms / volume < math.inf):
            raise InvalidParameterError(
                f"peak density n_atoms / ((2 pi)**1.5 sx sy sz) must be positive and finite,"
                f" got n_atoms = {self.n_atoms!r}, sigma = {sigma!r} m"
            )
        object.__setattr__(self, "sigma", sigma)

    @classmethod
    def isotropic(cls, n_atoms: float, sigma: float) -> "CloudSpec":
        return cls(n_atoms, (sigma, sigma, sigma))

    @classmethod
    def from_peak_density(
        cls, peak: float, sigma: tuple[float, float, float]
    ) -> "CloudSpec":
        """Fix the total atom number so the central density equals ``peak``."""
        if not 0.0 < peak < math.inf:  # NaN fails too
            raise InvalidParameterError(f"peak density must be positive and finite, got {peak!r}")
        # peak's mantissa leads the product and its power of two comes last:
        # every rounding is that of peak * volume, so replays stay
        # byte-identical, yet no partial product overflows
        mantissa, exponent = math.frexp(peak)
        try:
            n_atoms = math.ldexp(_gaussian_volume(sigma, mantissa), exponent)
        except OverflowError:
            n_atoms = math.inf  # refused by __post_init__
        return cls(n_atoms, tuple(sigma))


def _gaussian_volume(sigma: tuple[float, float, float], scale: float = 1.0) -> float:
    """scale * (2 pi)**1.5 * sx * sy * sz, multiplied from left to right."""
    sx, sy, sz = sigma
    return scale * (2.0 * math.pi) ** 1.5 * sx * sy * sz


def peak_density(spec: CloudSpec) -> float:
    """Central density n0 in m^-3."""
    return spec.n_atoms / _gaussian_volume(spec.sigma)


@dataclass(frozen=True)
class SuperatomEnsemble:
    """Weighted superatoms tiling a cloud, pooled by symmetry class.

    Entry k stands for ``weight[k]`` identical superatoms of
    ``sizes[index[k]]`` atoms each, in one octant cell (x, y, z >= 0) and
    in each of its mirror images: the cloud is symmetric on every axis, so
    ``weight`` includes the number of cells an entry stands for, 2 per
    axis or 1 on an axis where its centre is 0, so 1, 2, 4 or 8. A
    simple-model weight is exactly that number; a collective one is
    generally fractional (cells rarely hold an integer number of blockade
    spheres).
    ``sizes`` is the table of class sizes, each class some entry's: the
    partition makes each orbit of cells that the cloud's symmetry makes
    equivalent one class, in both models, and an ensemble built from
    per-entry sizes gives each entry its own (``index =
    arange(len(sizes))``). ``n_per`` is each entry's size.
    ``columns()`` builds ensemble.csv's five columns (x, y, z, n_per,
    weight), plain or as runio.write_table's coded pairs, for that file
    only; a partition's ensemble codes n_per and weight as its class
    tables and each entry's class.
    ``total_atoms_covered`` is sum(weight * n_per), at most the cloud's
    atom number; the shortfall is the tail mass outside the grid.
    """

    sizes: np.ndarray
    index: np.ndarray
    weight: np.ndarray
    columns: Callable[[], list]

    def __post_init__(self) -> None:
        sizes = np.asarray(self.sizes, dtype=float)
        index = np.asarray(self.index)
        weight = np.asarray(self.weight, dtype=float)
        if sizes.ndim != 1 or index.ndim != 1 or weight.shape != index.shape:
            raise InvalidParameterError("ensemble arrays have inconsistent shapes")
        if index.dtype.kind != "i" or (index.size and index.min() < 0):
            raise InvalidParameterError("class indices must be non-negative integers")
        counts = np.bincount(index, minlength=sizes.size)
        if counts.size != sizes.size or not counts.all():
            raise InvalidParameterError("every class must be some entry's, every index a class")
        if not (np.all(np.isfinite(sizes)) and np.all(np.isfinite(weight))):
            raise InvalidParameterError("ensemble entries must be finite")
        if np.any(sizes <= 0.0) or np.any(weight <= 0.0):
            raise InvalidParameterError("n_per and weight must be positive")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "weight", weight)

    def __len__(self) -> int:
        return self.index.shape[0]

    @property
    def n_per(self) -> np.ndarray:
        """Each entry's superatom size, ``sizes[index]``."""
        return self.sizes[self.index]

    @property
    def total_atoms_covered(self) -> float:
        covered = self.n_per
        covered *= self.weight
        return float(covered.sum())

    def pooled(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct sizes, ascending, and the total weight of each.

        np.unique sorts the size table, not the entries, and merges
        classes of bit-equal size; np.bincount then adds each entry's
        weight to its distinct size in entry order, the sums that pooling
        the per-entry ``n_per`` would give."""
        distinct, inverse = np.unique(self.sizes, return_inverse=True)
        return distinct, np.bincount(inverse[self.index], weights=self.weight)

    @property
    def sub_atom_share(self) -> float:
        """Share of the superatom weight in entries with n_per < 1: cells
        that count more superatoms than they hold atoms."""
        sub_atom = (self.sizes < 1.0)[self.index]
        return float(self.weight[sub_atom].sum()) / float(self.weight.sum())


def _axis_masses(
    sigma: float, k: int, side: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centres >= 0 of one axis of k cells, the number of mirror images
    each stands for (1 for a zero-centred cell, else 2), and each cell's
    Gaussian mass fraction."""
    edges = side * (np.arange(k // 2, k + 1) - k / 2.0)
    mult = np.full(k - k // 2, 2.0)
    if k % 2:  # the first cell is centred on 0, its own mirror image
        mult[0] = 1.0
    # the lower tail of the mirrored cell, ndtr(-u) = erfc(u / sqrt(2)) / 2 at
    # u = edge / sigma: a diff of ndtr values near 1 would lose the far
    # cells' relative precision
    scaled = (edges / sigma * math.sqrt(0.5)).tolist()
    tail = 0.5 * np.fromiter(map(math.erfc, scaled), float, len(scaled))
    mass = tail[:-1] - tail[1:]
    return 0.5 * (edges[:-1] + edges[1:]), mult, mass


def _on_axes(array: np.ndarray, axes: list[int]) -> np.ndarray:
    """``array``, whose dimensions are the grid ``axes``, broadcastable
    against the (x, y, z) octant."""
    return np.expand_dims(array, tuple(a for a in range(3) if a not in axes))


def partition_superatoms(
    spec: CloudSpec, params: PhysicalParams, model: str = "collective"
) -> SuperatomEnsemble:
    """Tile the cloud with cells of one central blockade volume each.

    The cubic cell side is (4 pi / 3)**(1/3) times the blockade radius at
    the cloud center (the model's own radius formula, so the collective
    model tiles more coarsely at low drive). The grid is centered on the
    origin and spans at least SPAN_SIGMAS rms radii on every axis;
    per-cell atom numbers are exact Gaussian integrals over the cell, and
    cells whose atom number or superatom size underflows to 0 are dropped.

    Only the cells with all centre coordinates >= 0 are built, each
    standing for its 2 mirror images per axis (1 on an axis of odd cell
    count, whose middle cell is centered on 0); the product of the three
    goes into ``weight``. Per-axis masses are lower-tail differences,
    (erfc(lo/(sigma sqrt 2)) - erfc(hi/(sigma sqrt 2))) / 2, which keep the
    far cells' relative precision. The cloud's symmetry makes the cells of
    an orbit equivalent: those whose indices permute each other within
    each group of axes of equal sigma. Each orbit is one class, in both
    models, whose atom number, size and weight are computed once, so its
    cells carry bit-equal values. Only the classes that kept cells hold
    are returned, in the order of the groups' orbits; ensemble.csv's
    columns are built only if the ensemble's ``columns()`` is called.

    Raises SizeCapError before allocating a grid that exceeds the memory limit.
    """
    if model not in MODELS:
        raise InvalidParameterError(f"unknown model {model!r}")

    n0 = peak_density(spec)
    if model == "simple":
        r_peak = blockade_radius_simple(params)
    else:
        r_peak, _ = blockade_radius_collective(params, n0)
    side = (4.0 * math.pi / 3.0) ** (1.0 / 3.0) * r_peak
    if not 0.0 < side < math.inf:
        raise InvalidParameterError(
            f"cell side {side!r} m of the central blockade radius must be positive and finite"
        )

    # Python floats: a count that overflows is inf, not an error
    counts = [max(1.0, float(np.ceil(2.0 * SPAN_SIGMAS * s / side))) for s in spec.sigma]
    n_cells = math.prod(float(np.ceil(k / 2.0)) for k in counts)
    require_memory(n_cells * _BYTES_PER_CELL, f"{n_cells:.3g} partition cells (one octant)")

    cells = [_axis_masses(s, int(k), side) for s, k in zip(spec.sigma, counts)]
    # axes of bit-equal sigma have equal cell counts, so the cells of such a
    # group permute each other. Each orbit's key sum(idx**2), share of the
    # atoms and mirror images come from its sorted indices, the share
    # multiplied with the largest index's mass last, so every class table,
    # an outer product over the groups, is computed once per orbit
    groups: dict[float, list[int]] = {}
    for axis, s in enumerate(spec.sigma):
        groups.setdefault(s, []).append(axis)
    keys, shares, mirrors = [], [], []
    for axes in groups.values():
        k = int(counts[axes[0]])
        _, mult, mass = cells[axes[0]]
        orbits = _orbits(mass.size, len(axes))
        idx = 2 * np.arange(k // 2, k) - (k - 1)  # cell centres in half sides
        keys.append(sum(idx[i] ** 2 for i in orbits))
        shares.append(functools.reduce(np.multiply, (mass[i] for i in orbits)))
        mirrors.append(functools.reduce(np.multiply, (mult[i] for i in orbits)))
    shape = tuple(key.size for key in keys)
    atoms = functools.reduce(np.multiply.outer, shares).ravel()
    atoms *= spec.n_atoms
    if model == "simple":  # a cell is one superatom of all its atoms
        sizes = atoms
    else:
        sizes = _collective_sizes(params, n0, side, list(groups), keys)
    held = (atoms > 0.0) & (sizes > 0.0)
    sizes = sizes[held]
    # a simple class's weight is mult * (x / x), exactly mult; the power of
    # two scales the quotient exactly and cannot overflow the atom number
    weight = functools.reduce(np.multiply.outer, mirrors).ravel()[held] * (atoms[held] / sizes)
    del atoms
    code = np.cumsum(held) - 1  # the held classes renumbered in table order
    code[~held] = -1

    ranks = [
        _on_axes(_multiset_ranks(np.ogrid[(slice(cells[axes[0]][2].size),) * len(axes)]), axes)
        for axes in groups.values()
    ]
    index = code[np.ravel_multi_index(tuple(ranks), shape).ravel()]
    keep = index >= 0
    index = index[keep]
    columns = functools.partial(_coded_columns, tuple(c[0] for c in cells), keep, sizes, index,
                                weight)
    return SuperatomEnsemble(sizes, index, weight[index], columns)


def _coded_columns(centres, keep, sizes, index, weight) -> list[tuple]:
    """ensemble.csv's columns as runio.write_table's coded pairs (table,
    codes), in the partition's entry order: each axis as its octant
    centres and each kept cell's index on it, and n_per and weight as the
    class tables and each entry's class."""
    shape = tuple(axis.size for axis in centres)
    kept = keep.reshape(shape)
    # int32 axis indices, which the write holds: 12 B per entry
    cells = [
        np.broadcast_to(_on_axes(np.arange(n, dtype=np.int32), [axis]), shape)[kept]
        for axis, n in enumerate(shape)
    ]
    return [*zip(centres, cells), (sizes, index), (weight, index)]


def _orbits(m: int, n: int) -> tuple[np.ndarray, ...]:
    """The orbits of an n-axis group of m cells per axis (n = 1, 2 or 3),
    the sets of cells whose indices permute each other, each as its sorted
    indices lo <= ... <= hi: n arrays, in the order of the orbits'
    _multiset_ranks, which order by hi, then by the next lower index, as
    C order does on a mask indexed [hi, ..., lo]."""
    grid = np.ogrid[(slice(m),) * n]
    ordered = np.ones((m,) * n, dtype=bool)
    for upper, lower in zip(grid, grid[1:]):
        ordered &= upper >= lower
    return np.nonzero(ordered)[::-1]


def _multiset_ranks(idx: list[np.ndarray]) -> np.ndarray:
    """Cells of an n-axis group (n = 1, 2 or 3), given by their indices on
    its axes as n broadcastable arrays, ranked by their sorted indices
    a <= b <= c as a + C(b + 1, 2) + C(c + 2, 3): cells whose indices
    permute each other, an orbit, share a rank, and on a group of m cells
    per axis the ranks run densely from 0 to C(m + n - 1, n) - 1."""
    if len(idx) == 1:
        return idx[0]
    lo, hi = functools.reduce(np.minimum, idx), functools.reduce(np.maximum, idx)
    if len(idx) == 2:
        return lo + hi * (hi + 1) // 2
    mid = sum(idx) - lo - hi
    return lo + mid * (mid + 1) // 2 + hi * (hi + 1) * (hi + 2) // 6


def _collective_sizes(
    params: PhysicalParams, n0: float, side: float, sigmas: list[float], keys: list[np.ndarray]
) -> np.ndarray:
    """The collective n_per of each class, 0 where the density underflows,
    raveled from a table with one axis per group, over its orbits. The
    density exponent sum((c / sigma)**2) / 2 is a sum over the groups of
    (side / 2 sigma)**2 times each orbit's integer sum of idx**2, ``keys``,
    so the core formula runs once per class, not per cell."""
    exponent = functools.reduce(np.add.outer, [
        (side / (2.0 * s)) ** 2 * key for s, key in zip(sigmas, keys)
    ]).ravel()
    local = n0 * np.exp(-0.5 * exponent)
    del exponent
    table = np.zeros_like(local)
    occupied = local > 0.0
    _, table[occupied] = blockade_radius_collective(params, local[occupied])
    return table
