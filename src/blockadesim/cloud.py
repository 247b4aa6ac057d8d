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

# the partition peaked at 68-70 (simple) and 65-66 (collective) B per
# octant cell on the reference cloud at 42 and 210 kHz, and at 55-79 on
# clouds of two or three distinct radii; building the centres for
# ensemble.csv while the ensemble is held peaked at 72-82 (tracemalloc)
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
    partition gives cells that the cloud's symmetry makes equivalent one
    class, and an ensemble built from per-entry sizes gives each entry its
    own (``index = arange(len(sizes))``). ``n_per`` is each entry's size.
    ``centers()`` builds the (len, 3) cell centres, for ensemble.csv only.
    ``total_atoms_covered`` is sum(weight * n_per), at most the cloud's
    atom number; the shortfall is the tail mass outside the grid.
    """

    sizes: np.ndarray
    index: np.ndarray
    weight: np.ndarray
    centers: Callable[[], np.ndarray]

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
    def total_superatoms(self) -> float:
        return float(self.weight.sum())

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
        return float(self.weight[sub_atom].sum()) / self.total_superatoms


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


def _group_product(p: np.ndarray, n: int) -> np.ndarray:
    """The n-fold outer product of ``p`` (n = 1, 2 or 3), each cell's factors
    multiplied in an order that its index multiset fixes, so cells whose
    indices permute each other get bit-equal products: a pair's product is
    symmetric, and a triple multiplies its largest index's factor last."""
    if n == 1:
        return p
    pair = p[:, None] * p
    if n == 2:
        return pair
    base = pair[:, :, None] * p  # (p_i p_j) p_k, right where k is largest
    i, j, k = np.ogrid[:p.size, :p.size, :p.size]
    out = base.transpose(0, 2, 1).copy()  # (p_i p_k) p_j
    np.copyto(out, base.transpose(2, 0, 1), where=i >= j)  # (p_j p_k) p_i
    np.copyto(out, base, where=k >= np.maximum(i, j))
    return out


def _group_keys(idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct sums of idx**2 over the cells of an n-axis group,
    ascending, and each cell's rank among them. ``idx`` = 2 c / side, the
    cell centres in half sides, are integers of one parity."""
    square = idx * idx
    if n == 1:  # idx ascends from 0 or 1, so its squares are distinct
        return square, np.arange(idx.size)
    # square // 4 is m**2 or m (m + 1) at idx = 2m or 2m + 1, so the dense
    # table of sums it indexes holds at most n idx.size**2 entries
    quarter = square // 4
    total = quarter[:, None] + quarter
    if n == 3:
        total = total[:, :, None] + quarter
    present = np.zeros(n * int(quarter[-1]) + 1, dtype=bool)
    present[total] = True
    rank = np.cumsum(present) - 1
    return 4 * np.flatnonzero(present) + n * int(idx[0] % 2), rank[total]


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
    far cells' relative precision. Cells whose centres the cloud's symmetry
    makes equivalent share one class, whose size is computed once:
    collective cells of equal sum((c / sigma)**2) on each group of axes of
    equal sigma, and simple cells whose indices permute each other within
    such groups. Only the classes that kept cells hold are returned, in
    the order of the groups' keys; the cell centres are built only if the
    ensemble's ``centers()`` is called.

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
    (x, mx, _), (y, my, _), (z, mz, _) = cells
    # axes of bit-equal sigma have equal cell counts, so the cells of such a
    # group permute each other; its masses and keys are built so that
    # permuted cells get bit-equal sizes, and each group's keys rank the
    # classes of its cells, whose sizes one table holds
    groups: dict[float, list[int]] = {}
    for axis, s in enumerate(spec.sigma):
        groups.setdefault(s, []).append(axis)
    if model == "collective":
        sizes, ranks = _collective_sizes(params, n0, side, groups, [int(k) for k in counts])
    else:
        ranks = [_on_axes(_multiset_ranks(cells[axes[0]][2].size, len(axes)), axes)
                 for axes in groups.values()]
        sizes = np.empty([int(rank.max()) + 1 for rank in ranks])
    classes = np.ravel_multi_index(tuple(ranks), sizes.shape).ravel()
    sizes = sizes.ravel()
    atoms_in_cell = functools.reduce(np.multiply, (
        _on_axes(_group_product(cells[axes[0]][2], len(axes)), axes) for axes in groups.values()
    )).ravel()
    atoms_in_cell *= spec.n_atoms
    if model == "simple":  # a cell's atom number, bit-equal over its class
        sizes[classes] = atoms_in_cell
    mult = (mx[:, None, None] * my[None, :, None] * mz[None, None, :]).ravel()

    keep = (atoms_in_cell > 0.0) & (sizes > 0.0)[classes]
    classes = classes[keep]
    # a simple cell's weight is mult * (x / x), exactly mult; the power of
    # two scales the quotient exactly and cannot overflow the atom number
    weight = mult[keep] * (atoms_in_cell[keep] / sizes[classes])
    # renumber the classes that kept cells hold, in table order
    held = np.zeros(sizes.size, dtype=bool)
    held[classes] = True
    rank = np.cumsum(held) - 1
    centers = functools.partial(_grid_centers, x, y, z, keep)
    return SuperatomEnsemble(sizes[held], rank[classes], weight, centers)


def _grid_centers(x: np.ndarray, y: np.ndarray, z: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The (x, y, z) centres of the octant cells that ``keep`` marks, in
    the partition's entry order."""
    centers = np.empty((len(x), len(y), len(z), 3))
    centers[..., 0] = x[:, None, None]
    centers[..., 1] = y[None, :, None]
    centers[..., 2] = z
    return centers.reshape(-1, 3)[keep]


def _multiset_ranks(m: int, n: int) -> np.ndarray:
    """Each cell of an n-axis group of m cells per axis (n = 1, 2 or 3)
    ranked by its sorted indices a <= b <= c as a + C(b + 1, 2) + C(c + 2, 3):
    cells whose indices permute each other, a simple-model class, share a
    rank, and the ranks run densely from 0 to C(m + n - 1, n) - 1."""
    grid = np.ogrid[(slice(m),) * n]
    if n == 1:
        return grid[0]
    lo, hi = functools.reduce(np.minimum, grid), functools.reduce(np.maximum, grid)
    if n == 2:
        return lo + hi * (hi + 1) // 2
    mid = sum(grid) - lo - hi
    return lo + mid * (mid + 1) // 2 + hi * (hi + 1) * (hi + 2) // 6


def _collective_sizes(
    params: PhysicalParams, n0: float, side: float, groups: dict, counts: list[int]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The collective n_per of each class, 0 where the density underflows:
    a table with one axis per group, over the group's distinct sums of
    idx**2, and each octant cell's rank on each of those axes. The density
    exponent sum((c / sigma)**2) / 2 is a sum over the groups of
    (side / 2 sigma)**2 times that integer sum, so the core formula runs
    once per class, not per cell."""
    exponent, ranks = 0.0, []
    for g, (s, axes) in enumerate(groups.items()):
        k = counts[axes[0]]
        keys, rank = _group_keys(2 * np.arange(k // 2, k) - (k - 1), len(axes))
        shape = [1] * len(groups)
        shape[g] = keys.size
        exponent = exponent + (side / (2.0 * s)) ** 2 * keys.reshape(shape)
        ranks.append(_on_axes(rank, axes))
    local = n0 * np.exp(-0.5 * exponent)
    table = np.zeros_like(local)
    occupied = local > 0.0
    _, table[occupied] = blockade_radius_collective(params, local[occupied])
    return table, ranks
