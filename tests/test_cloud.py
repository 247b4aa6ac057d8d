"""Gaussian cloud: density profile and superatom partition."""

import decimal
import itertools
import math

import numpy as np
import pytest
from scipy.special import ndtr

import blockadesim.cloud
import blockadesim.core
from blockadesim.cloud import (
    CloudSpec,
    SuperatomEnsemble,
    _axis_masses,
    partition_superatoms,
    peak_density,
)
from blockadesim.constants import HBAR
from blockadesim.core import (
    PhysicalParams,
    blockade_radius_collective,
    blockade_radius_simple,
)
from blockadesim.errors import InvalidParameterError, SizeCapError
from blockadesim.superatom import simulate_cloud

from conftest import N_ATOMS_REF, SIGMA_REF, density_at, entry_ensemble, traced_peak


# --- density profile -----------------------------------------------------------


def test_peak_density_for_quoted_cloud():
    # 1.5e7 atoms in a 22.7 um isotropic cloud: frozen 8.1422...e19 m^-3,
    # i.e. the quoted 8.2e13 cm^-3 within rounding
    spec = CloudSpec.isotropic(1.5e7, 22.7e-6)
    n0 = peak_density(spec)
    assert n0 == pytest.approx(8.142239728e19, rel=1e-9)
    assert n0 == pytest.approx(8.2e19, rel=0.02)


def test_from_peak_density_round_trip():
    spec = CloudSpec.from_peak_density(8.2e19, (20e-6, 22e-6, 30e-6))
    assert peak_density(spec) == pytest.approx(8.2e19, rel=1e-12)
    # rounded exactly as the left-to-right product, so replays stay
    # byte-identical; peak * (volume) rounds differently at this cloud
    sigma = (22.6e-6,) * 3
    assert CloudSpec.from_peak_density(8.2e19, sigma).n_atoms == (
        8.2e19 * (2.0 * math.pi) ** 1.5 * 22.6e-6 * 22.6e-6 * 22.6e-6
    )
    # where that product overflows at its first factor, the atom number fits
    dense = CloudSpec.from_peak_density(1e308, (1e-6, 1e-6, 1e-6))
    assert dense.n_atoms == pytest.approx(1e308 * ((2.0 * math.pi) ** 1.5 * 1e-18), rel=1e-15)


def test_peak_density_linear_in_atom_number():
    a = CloudSpec.isotropic(1e7, 20e-6)
    b = CloudSpec.isotropic(3e7, 20e-6)
    assert peak_density(b) == pytest.approx(3 * peak_density(a), rel=1e-12)


def test_density_at_center_equals_peak(reference_cloud):
    assert density_at(reference_cloud, [0.0, 0.0, 0.0]) == pytest.approx(
        peak_density(reference_cloud), rel=1e-12
    )


def test_density_one_sigma_out():
    spec = CloudSpec(1e7, (20e-6, 25e-6, 30e-6))
    n0 = peak_density(spec)
    assert density_at(spec, [20e-6, 0, 0]) == pytest.approx(n0 * math.exp(-0.5), rel=1e-12)
    assert density_at(spec, [0, 25e-6, 0]) == pytest.approx(n0 * math.exp(-0.5), rel=1e-12)
    assert density_at(spec, [20e-6, 25e-6, 30e-6]) == pytest.approx(
        n0 * math.exp(-1.5), rel=1e-12
    )


def test_density_at_batch_shape(reference_cloud):
    points = np.zeros((4, 5, 3))
    out = density_at(reference_cloud, points)
    assert out.shape == (4, 5)
    assert np.all(out == peak_density(reference_cloud))


def test_cloud_spec_validation():
    with pytest.raises(InvalidParameterError):
        CloudSpec(0.0, (1e-6, 1e-6, 1e-6))
    with pytest.raises(InvalidParameterError):
        CloudSpec(1e6, (1e-6, -1e-6, 1e-6))
    with pytest.raises(InvalidParameterError):
        CloudSpec.from_peak_density(-1.0, (1e-6, 1e-6, 1e-6))
    with pytest.raises(InvalidParameterError, match="n_atoms = inf"):
        CloudSpec.from_peak_density(1e308, (1.0, 1.0, 1.0))


# --- partition ------------------------------------------------------------------


def bisect_superatom_size(params, density):
    """Independent route to the self-consistent size: bisection on
    f(r) = C6/r^6 - hbar*sqrt(n*(4pi/3)*r^3)*omega0."""

    def f(r):
        n = density * 4 * math.pi / 3 * r**3
        return params.c6 / r**6 - HBAR * math.sqrt(n) * params.omega0

    lo, hi = 1e-9, 1e-3
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    r = math.sqrt(lo * hi)
    return density * 4 * math.pi / 3 * r**3


def test_simple_partition_of_nearly_uniform_region(strong_params, monkeypatch):
    # a huge cloud sampled only near its center is flat: every cell then
    # holds density * cell volume atoms with unit weight
    spec = CloudSpec.isotropic(1e20, 1.0)
    monkeypatch.setattr(blockadesim.cloud, "SPAN_SIGMAS", 5e-5)
    ensemble = partition_superatoms(spec, strong_params, model="simple")
    side = (4 * math.pi / 3) ** (1 / 3) * blockade_radius_simple(strong_params)
    per_axis = math.ceil(2 * 5e-5 / side)
    # one octant of entries, weighted by their mirror images
    assert len(ensemble) == math.ceil(per_axis / 2) ** 3
    assert ensemble.weight.sum() == per_axis**3
    expected_n = peak_density(spec) * side**3
    assert np.allclose(ensemble.n_per, expected_n, rtol=1e-3)


def test_partition_covers_cloud(reference_cloud, strong_params):
    for model in ("simple", "collective"):
        ensemble = partition_superatoms(
            reference_cloud, strong_params, model=model
        )
        assert ensemble.total_atoms_covered <= reference_cloud.n_atoms * (1 + 1e-9)
        assert ensemble.total_atoms_covered >= 0.999 * reference_cloud.n_atoms


@pytest.mark.parametrize("drive", ["weak", "strong"])
def test_collective_sub_atom_share_of_the_reference_cloud(reference_cloud, request, drive):
    # cells past rho ~ 4.7 sigma hold under one atom per superatom: 718 and
    # 1,575 atoms of 1.5e7 at 42 and 210 kHz, yet 15.1 % and 18.6 % of the
    # superatom weight at span 5 sigma (frozen)
    params = request.getfixturevalue(f"{drive}_params")
    ensemble = partition_superatoms(reference_cloud, params)
    share = {"weak": 0.15086794892396874, "strong": 0.1858202673749993}[drive]
    assert ensemble.sub_atom_share == pytest.approx(share, rel=1e-9)


# the largest relative deviation from scipy's ndtr measured over these axes
# was 9.5e-15
AXIS_MASS_RTOL = 2e-14


@pytest.mark.parametrize("fill", [1e-3, 0.3, 0.7, 0.999])
def test_axis_masses_match_scipy_ndtr(fill):
    # every cell count from 1 to 129, odd and even, each at a radius whose
    # grid spans SPAN_SIGMAS with the last cell filled to ``fill``
    side = 1e-6
    for k in range(1, 130):
        sigma = (k - 1 + fill) * side / (2 * blockadesim.cloud.SPAN_SIGMAS)
        assert math.ceil(2 * blockadesim.cloud.SPAN_SIGMAS * sigma / side) == k
        mass = _axis_masses(sigma, k, side)[2]
        edges = side * (np.arange(k // 2, k + 1) - k / 2)
        oracle = ndtr(-edges[:-1] / sigma) - ndtr(-edges[1:] / sigma)
        assert np.max(np.abs(mass - oracle) / oracle) <= AXIS_MASS_RTOL, k


def full_grid_partition(spec, params, model):
    """Every cell of the grid at span 5 sigma, none of them
    mirrored: the oracle the octant partition must reproduce. A cell's
    mass is the difference of the Gaussian tail on its own side of the
    centre; for cells above it, a difference of ndtr values near 1 would
    lose up to 1e-10 of a far cell's mass and move the collective total
    weight by 1.5e-12 on the 60-cell grid."""
    if model == "simple":
        radius = blockade_radius_simple(params)
    else:
        radius, _ = blockade_radius_collective(params, peak_density(spec))
    side = (4 * math.pi / 3) ** (1 / 3) * radius
    centers, masses = [], []
    for sigma in spec.sigma:
        k = math.ceil(2 * 5.0 * sigma / side)
        edges = side * (np.arange(k + 1) - k / 2)
        lo, hi = edges[:-1] / sigma, edges[1:] / sigma
        upper = lo + hi > 0.0
        masses.append(np.where(upper, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo)))
        centers.append(0.5 * (edges[:-1] + edges[1:]))
    grid = np.stack(np.meshgrid(*centers, indexing="ij"), axis=-1).reshape(-1, 3)
    atoms = spec.n_atoms * np.einsum("i,j,k->ijk", *masses).ravel()
    if model == "simple":
        n_per = atoms
    else:
        _, n_per = blockade_radius_collective(params, density_at(spec, grid))
    return entry_ensemble(n_per, atoms / n_per, grid)


def mirrored(ensemble):
    """Each octant entry at every sign flip of its nonzero centre
    coordinates, each image carrying an equal share of the weight."""
    octant = ensemble.centers()
    mirrors = 2.0 ** np.count_nonzero(octant, axis=1)
    images = []
    for signs in itertools.product((1.0, -1.0), repeat=3):
        # flipping a zero coordinate gives the same cell, not an image
        new = np.all((np.array(signs) > 0.0) | (octant != 0.0), axis=1)
        images.append((octant[new] * signs, ensemble.n_per[new],
                       ensemble.weight[new] / mirrors[new]))
    centers, n_per, weight = (np.concatenate(part) for part in zip(*images))
    return entry_ensemble(n_per, weight, centers)


def by_center(ensemble):
    centers = ensemble.centers()
    order = np.lexsort(centers.T)
    return centers[order], ensemble.n_per[order], ensemble.weight[order]


@pytest.mark.parametrize("model", ["simple", "collective"])
@pytest.mark.parametrize("cells", [(60, 60, 60), (23, 23, 23), (16, 23, 30)])
def test_octant_mirrors_into_the_full_grid(strong_params, model, cells):
    # rms radii that give the cells per axis at span 5 sigma; the peak
    # density fixes the collective cell side whatever the radii
    n0 = 8.2e19
    if model == "simple":
        side = (4 * math.pi / 3) ** (1 / 3) * blockade_radius_simple(strong_params)
    else:
        side = (4 * math.pi / 3) ** (1 / 3) * blockade_radius_collective(strong_params, n0)[0]
    spec = CloudSpec.from_peak_density(n0, tuple((k - 0.5) * side / 10.0 for k in cells))
    octant = partition_superatoms(spec, strong_params, model=model)
    full = full_grid_partition(spec, strong_params, model)
    assert len(octant) == math.prod(k - k // 2 for k in cells)
    assert len(full) == math.prod(cells)

    centers, n_per, weight = by_center(mirrored(octant))
    full_centers, full_n_per, full_weight = by_center(full)
    assert np.array_equal(centers, full_centers)
    assert weight.sum() == pytest.approx(full_weight.sum(), rel=1e-12)
    assert (weight * n_per).sum() == pytest.approx((full_weight * full_n_per).sum(), rel=1e-12)

    t = np.linspace(0.0, 2e-5, 200)
    curve = simulate_cloud(octant, strong_params, t).values
    full_curve = simulate_cloud(full, strong_params, t).values
    assert np.max(np.abs(curve - full_curve)) <= 1e-12 * full_weight.sum()


def test_partition_is_deterministic(reference_cloud, strong_params):
    a = partition_superatoms(reference_cloud, strong_params)
    b = partition_superatoms(reference_cloud, strong_params)
    assert np.array_equal(a.sizes, b.sizes)
    assert np.array_equal(a.index, b.index)
    assert np.array_equal(a.n_per, b.n_per)
    assert np.array_equal(a.weight, b.weight)
    assert np.array_equal(a.centers(), b.centers())


def test_collective_center_matches_bisection_oracle(reference_cloud, strong_params):
    ensemble = partition_superatoms(
        reference_cloud, strong_params, model="collective"
    )
    k = int(np.argmax(ensemble.n_per))
    local = density_at(reference_cloud, ensemble.centers()[k])
    assert ensemble.n_per[k] == pytest.approx(
        bisect_superatom_size(strong_params, local), rel=1e-9
    )
    # thousands of atoms per central superatom under strong driving
    assert 3000 < ensemble.n_per[k] < 6000


# Relative error bound of a partition's n_per against the core formula
# evaluated exactly at the float inputs: the density exponent
# E = sum((c / sigma)**2) / 2 takes at most 5 roundings per term, an
# absolute error of 5 eps E, which reaches the size as 0.8 of the density's
# error; the size formula adds about 14 roundings of its own. So
# 16 eps (1 + E) bounds every cell, fixed before any was measured.
SIZE_ROUNDINGS = 16


def collective_size_oracle(params, n0, sigma):
    """blockade_radius_collective's n_per at the density n0 exp(-E) of a cell
    centre c, E = sum((c / sigma)**2) / 2, to 40 digits on the float
    constants and inputs the core formula uses: with V = 4 pi / 3, x = c6 /
    (hbar omega0) and its exponents a = 2.0 / 15.0 and b = -1.0 / 15.0, the
    size n V r**3 at r = x**a (V n)**b is exactly x**(3 a) (V n0)**(1 + 3 b)
    exp(-(1 + 3 b) E), one exp per centre. Returns a function of c giving
    the size and E."""
    context = decimal.Context(prec=40)
    d = decimal.Decimal
    with decimal.localcontext(context):
        volume = d(4.0 * math.pi / 3.0)
        power = 1 + 3 * d(-1.0 / 15.0)
        x = d(params.c6 / (HBAR * params.omega0))
        scale = x ** (3 * d(2.0 / 15.0)) * (volume * d(n0)) ** power
    half_squares = [{} for _ in sigma]  # (c / sigma)**2 / 2 by coordinate

    def size(center):
        with decimal.localcontext(context):
            exponent = sum(
                cache[c] if c in cache else cache.setdefault(c, (d(c) / d(s)) ** 2 / 2)
                for c, s, cache in zip(center, sigma, half_squares)
            )
            return float(scale * (-power * exponent).exp()), float(exponent)

    return size


def test_collective_sizes_come_from_the_core_formula(strong_params):
    # clouds of one, two and three distinct radii: one, two and three axis
    # groups, whose keys the partition evaluates the formula at
    for radii in [(1.0, 1.0, 1.0), (1.0, 1.0, 1.3), (0.8, 1.0, 1.3)]:
        spec = CloudSpec(N_ATOMS_REF, tuple(SIGMA_REF * r for r in radii))
        ensemble = partition_superatoms(spec, strong_params, model="collective")
        exact_size = collective_size_oracle(strong_params, peak_density(spec), spec.sigma)
        for center, n_per in zip(ensemble.centers().tolist(), ensemble.n_per.tolist()):
            exact, exponent = exact_size(center)
            bound = SIZE_ROUNDINGS * np.finfo(float).eps * (1.0 + exponent)
            assert abs(n_per - exact) <= bound * exact, (radii, center)


def half_side_indices(ensemble):
    """Each entry's cell centre on each axis in half cell sides, 2 m or
    2 m + 1 for the m-th octant cell of an axis of odd or even cell count,
    and m itself."""
    centers = ensemble.centers()
    m = np.empty(centers.shape, dtype=int)
    idx = np.empty_like(m)
    for axis in range(3):
        coords = centers[:, axis]
        positions = np.unique(coords)
        m[:, axis] = np.searchsorted(positions, coords)
        idx[:, axis] = 2 * m[:, axis] + int(positions[0] > 0.0)
    return idx, m


@pytest.mark.parametrize("model", ["simple", "collective"])
@pytest.mark.parametrize("radii", [(1.0, 1.0, 1.0), (1.0, 1.3, 1.0)])
def test_cells_sharing_a_key_carry_bit_equal_sizes(strong_params, model, radii):
    # axes of equal radius form a group; a collective cell's key is each
    # group's sum of idx**2, a simple one's each group's sorted indices
    spec = CloudSpec(N_ATOMS_REF, tuple(SIGMA_REF * r for r in radii))
    ensemble = partition_superatoms(spec, strong_params, model=model)
    idx, m = half_side_indices(ensemble)
    groups = [[0, 2], [1]] if radii[0] != radii[1] else [[0, 1, 2]]
    if model == "collective":
        keys = np.column_stack([(idx[:, axes] ** 2).sum(axis=1) for axes in groups])
    else:
        keys = np.column_stack([np.sort(m[:, axes], axis=1) for axes in groups])
    sizes, classes = {}, {}
    for key, n_per, cls in zip(
        map(tuple, keys.tolist()), ensemble.n_per.tolist(), ensemble.index.tolist()
    ):
        assert sizes.setdefault(key, n_per) == n_per, key
        assert classes.setdefault(key, cls) == cls, key
    # one class per key, and the size table holds each class once
    assert len(set(classes.values())) == len(classes) == ensemble.sizes.size


def test_collective_partition_drops_cells_of_zero_density(strong_params, monkeypatch):
    # at 40 rms radii the corner densities underflow to exactly zero
    spec = CloudSpec.isotropic(1e4, 3e-6)
    monkeypatch.setattr(blockadesim.cloud, "SPAN_SIGMAS", 40.0)
    ensemble = partition_superatoms(spec, strong_params, model="collective")
    assert np.all(density_at(spec, ensemble.centers()) > 0.0)
    assert np.all(np.isfinite(ensemble.weight)) and np.all(ensemble.n_per > 0.0)
    assert ensemble.total_atoms_covered == pytest.approx(spec.n_atoms, rel=1e-6)


def test_collective_weights_count_superatoms_per_cell(reference_cloud, strong_params):
    ensemble = partition_superatoms(
        reference_cloud, strong_params, model="collective"
    )
    atoms_per_cell = ensemble.weight * ensemble.n_per
    assert ensemble.total_atoms_covered == pytest.approx(
        atoms_per_cell.sum(), rel=1e-12
    )
    # central cells hold one blockade sphere by construction of the cell
    # size, so their weights per mirror image sit near 1
    k = int(np.argmax(ensemble.n_per))
    mirrors = 2.0 ** np.count_nonzero(ensemble.centers()[k])
    assert ensemble.weight[k] / mirrors == pytest.approx(1.0, abs=0.2)


def test_simple_model_weights_are_unity(reference_cloud, strong_params):
    ensemble = partition_superatoms(
        reference_cloud, strong_params, model="simple"
    )
    # one superatom per cell and mirror image
    mirrors = 2.0 ** np.count_nonzero(ensemble.centers(), axis=1)
    assert np.all(ensemble.weight / mirrors == 1.0)


def test_collective_tiles_finer_than_simple(reference_cloud, strong_params):
    # in a dense cloud the collective radius is smaller, so more cells
    simple = partition_superatoms(reference_cloud, strong_params, model="simple")
    coll = partition_superatoms(reference_cloud, strong_params, model="collective")
    assert len(coll) > len(simple)


def test_stronger_drive_means_more_cells(reference_cloud, strong_params, weak_params):
    weak = partition_superatoms(reference_cloud, weak_params, model="simple")
    strong = partition_superatoms(reference_cloud, strong_params, model="simple")
    assert len(strong) > len(weak)


def test_partition_cell_cap(reference_cloud, strong_params, monkeypatch):
    # the cap counts bytes: 1e6 sigmas of cells are refused before allocating
    limit = 64 * 2**20
    monkeypatch.setattr(blockadesim.core, "MEMORY_LIMIT_BYTES", limit)
    monkeypatch.setattr(blockadesim.cloud, "SPAN_SIGMAS", 1e6)

    def refused():
        with pytest.raises(SizeCapError, match="cells"):
            partition_superatoms(reference_cloud, strong_params)

    assert traced_peak(refused) < limit


@pytest.mark.parametrize("model", ["collective", "simple"])
@pytest.mark.parametrize("drive_hz", [42e3, 210e3])
def test_memory_estimate_bounds_the_traced_peak(reference_cloud, c6, monkeypatch, model, drive_hz):
    # a limit just below the traced peak must refuse, four times it admit
    params = PhysicalParams.from_hz(drive_hz, c6)

    def partition():
        return partition_superatoms(reference_cloud, params, model=model)

    peak = traced_peak(partition)
    monkeypatch.setattr(blockadesim.core, "MEMORY_LIMIT_BYTES", peak - 1)
    with pytest.raises(SizeCapError):
        partition()
    monkeypatch.setattr(blockadesim.core, "MEMORY_LIMIT_BYTES", 4 * peak)
    partition()


def test_partition_rejects_bad_model(reference_cloud, strong_params):
    with pytest.raises(InvalidParameterError):
        partition_superatoms(reference_cloud, strong_params, model="hybrid")


def test_ensemble_validation():
    with pytest.raises(InvalidParameterError):
        entry_ensemble(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(InvalidParameterError):
        entry_ensemble(np.array([1.0, -2.0]), np.array([1.0, 1.0]))
    empty = entry_ensemble(np.array([]), np.array([]))
    assert len(empty) == 0

    def origin():
        return np.zeros((3, 3))

    sizes, weight = np.array([4.0, 9.0]), np.array([1.0, 2.0, 3.0])
    pooled = SuperatomEnsemble(sizes, np.array([1, 0, 1]), weight, origin)
    assert len(pooled) == 3
    assert np.array_equal(pooled.n_per, [9.0, 4.0, 9.0])
    assert pooled.total_atoms_covered == 9.0 + 8.0 + 27.0
    for index in ([0, 2, 1], [1, 1, 1], [-1, 0, 1], [0.0, 1.0, 1.0]):
        # past the table, a class no entry holds, negative, not integers
        with pytest.raises(InvalidParameterError, match="class"):
            SuperatomEnsemble(sizes, np.array(index), weight, origin)
    with pytest.raises(InvalidParameterError, match="positive"):
        SuperatomEnsemble(np.array([4.0, 0.0]), np.array([1, 0, 1]), weight, origin)


def test_total_weight_scales_with_density_to_the_fifth_root(strong_params):
    # number of collective superatoms ~ integral of n/N_local ~ n0**(1/5)
    densities = np.geomspace(8.2e18, 8.2e19, 5)
    totals = [
        partition_superatoms(
            CloudSpec.from_peak_density(n, (SIGMA_REF,) * 3),
            strong_params,
            model="collective",
        ).total_superatoms
        for n in densities
    ]
    exponent = np.polyfit(np.log(densities), np.log(totals), 1)[0]
    assert exponent == pytest.approx(0.2, abs=0.01)


def test_total_weight_scales_with_drive(reference_cloud, c6):
    drives = np.geomspace(42e3, 210e3, 5)
    totals = [
        partition_superatoms(
            reference_cloud,
            PhysicalParams.from_hz(f, c6),
            model="collective",
        ).total_superatoms
        for f in drives
    ]
    exponent = np.polyfit(np.log(drives), np.log(totals), 1)[0]
    assert exponent == pytest.approx(0.4, abs=0.01)
