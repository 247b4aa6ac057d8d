"""Gaussian cloud: density profile, sampling, superatom partition."""

import math

import numpy as np
import pytest

import blockadesim.core
from blockadesim.cloud import (
    CloudSpec,
    SuperatomEnsemble,
    density_at,
    partition_superatoms,
    peak_density,
    sample_positions,
)
from blockadesim.constants import HBAR
from blockadesim.core import (
    PhysicalParams,
    blockade_radius_collective,
    blockade_radius_simple,
)
from blockadesim.errors import InvalidParameterError, SizeCapError

from conftest import N_ATOMS_REF, SIGMA_REF, traced_peak


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


# --- sampling -------------------------------------------------------------------


def test_sampling_is_reproducible(reference_cloud):
    a = sample_positions(reference_cloud, 50, seed=3)
    b = sample_positions(reference_cloud, 50, seed=3)
    c = sample_positions(reference_cloud, 50, seed=4)
    assert np.array_equal(a.coords, b.coords)
    assert not np.array_equal(a.coords, c.coords)


def test_sampling_moments():
    spec = CloudSpec(1e7, (10e-6, 20e-6, 40e-6))
    coords = sample_positions(spec, 200_000, seed=11).coords
    sigma = np.array(spec.sigma)
    assert np.all(np.abs(coords.mean(axis=0)) < 4 * sigma / math.sqrt(200_000))
    assert np.allclose(coords.std(axis=0), sigma, rtol=0.01)


def test_sampling_needs_positive_count(reference_cloud):
    with pytest.raises(InvalidParameterError):
        sample_positions(reference_cloud, 0, seed=1)


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


def test_simple_partition_of_nearly_uniform_region(strong_params):
    # a huge cloud sampled only near its center is flat: every cell then
    # holds density * cell volume atoms with unit weight
    spec = CloudSpec.isotropic(1e20, 1.0)
    ensemble = partition_superatoms(
        spec, strong_params, model="simple", n_min=0.0, span_sigmas=5e-5
    )
    side = (4 * math.pi / 3) ** (1 / 3) * blockade_radius_simple(strong_params)
    expected_per_axis = math.ceil(2 * 5e-5 / side)
    assert len(ensemble) == expected_per_axis**3
    assert np.all(ensemble.weight == 1.0)
    expected_n = peak_density(spec) * side**3
    assert np.allclose(ensemble.n_per, expected_n, rtol=1e-3)


def test_partition_covers_cloud(reference_cloud, strong_params):
    for model in ("simple", "collective"):
        ensemble = partition_superatoms(
            reference_cloud, strong_params, model=model, n_min=0.0
        )
        assert ensemble.total_atoms_covered <= reference_cloud.n_atoms * (1 + 1e-9)
        assert ensemble.total_atoms_covered >= 0.999 * reference_cloud.n_atoms


def test_partition_is_deterministic(reference_cloud, strong_params):
    a = partition_superatoms(reference_cloud, strong_params, n_min=0.0)
    b = partition_superatoms(reference_cloud, strong_params, n_min=0.0)
    assert np.array_equal(a.n_per, b.n_per)
    assert np.array_equal(a.weight, b.weight)
    assert np.array_equal(a.centers, b.centers)


def test_collective_center_matches_bisection_oracle(reference_cloud, strong_params):
    ensemble = partition_superatoms(
        reference_cloud, strong_params, model="collective", n_min=0.0
    )
    k = int(np.argmax(ensemble.n_per))
    local = density_at(reference_cloud, ensemble.centers[k])
    assert ensemble.n_per[k] == pytest.approx(
        bisect_superatom_size(strong_params, local), rel=1e-9
    )
    # thousands of atoms per central superatom under strong driving
    assert 3000 < ensemble.n_per[k] < 6000


def test_collective_sizes_come_from_the_core_formula(reference_cloud, strong_params):
    ensemble = partition_superatoms(
        reference_cloud, strong_params, model="collective", n_min=0.0
    )
    _, expected = blockade_radius_collective(
        strong_params, density_at(reference_cloud, ensemble.centers)
    )
    assert np.allclose(ensemble.n_per, expected, rtol=1e-15, atol=0.0)


def test_collective_partition_drops_cells_of_zero_density(strong_params):
    # at 40 rms radii the corner densities underflow to exactly zero
    spec = CloudSpec.isotropic(1e4, 3e-6)
    ensemble = partition_superatoms(
        spec, strong_params, model="collective", n_min=0.0, span_sigmas=40.0
    )
    assert np.all(density_at(spec, ensemble.centers) > 0.0)
    assert np.all(np.isfinite(ensemble.weight)) and np.all(ensemble.n_per > 0.0)
    assert ensemble.total_atoms_covered == pytest.approx(spec.n_atoms, rel=1e-6)


def test_collective_weights_count_superatoms_per_cell(reference_cloud, strong_params):
    ensemble = partition_superatoms(
        reference_cloud, strong_params, model="collective", n_min=0.0
    )
    atoms_per_cell = ensemble.weight * ensemble.n_per
    assert ensemble.total_atoms_covered == pytest.approx(
        atoms_per_cell.sum(), rel=1e-12
    )
    # central cells hold one blockade sphere by construction of the cell
    # size, so their weights sit near 1
    k = int(np.argmax(ensemble.n_per))
    assert ensemble.weight[k] == pytest.approx(1.0, abs=0.2)


def test_simple_model_weights_are_unity(reference_cloud, strong_params):
    ensemble = partition_superatoms(
        reference_cloud, strong_params, model="simple", n_min=0.0
    )
    assert np.all(ensemble.weight == 1.0)


def test_collective_tiles_finer_than_simple(reference_cloud, strong_params):
    # in a dense cloud the collective radius is smaller, so more cells
    simple = partition_superatoms(reference_cloud, strong_params, model="simple", n_min=0.0)
    coll = partition_superatoms(reference_cloud, strong_params, model="collective", n_min=0.0)
    assert len(coll) > len(simple)


def test_stronger_drive_means_more_cells(reference_cloud, strong_params, weak_params):
    weak = partition_superatoms(reference_cloud, weak_params, model="simple", n_min=0.0)
    strong = partition_superatoms(reference_cloud, strong_params, model="simple", n_min=0.0)
    assert len(strong) > len(weak)


def test_n_min_drops_small_superatoms(reference_cloud, strong_params):
    full = partition_superatoms(reference_cloud, strong_params, n_min=0.0)
    cut = partition_superatoms(reference_cloud, strong_params, n_min=100.0)
    assert len(cut) < len(full)
    assert cut.n_per.min() >= 100.0
    assert cut.total_atoms_covered < full.total_atoms_covered


def test_partition_cell_cap(reference_cloud, strong_params, monkeypatch):
    # the cap counts bytes: 1e6 sigmas of cells are refused before allocating
    limit = 64 * 2**20
    monkeypatch.setattr(blockadesim.core, "MEMORY_LIMIT_BYTES", limit)

    def refused():
        with pytest.raises(SizeCapError, match="cells"):
            partition_superatoms(reference_cloud, strong_params, span_sigmas=1e6)

    assert traced_peak(refused) < limit


@pytest.mark.parametrize("model", ["collective", "simple"])
@pytest.mark.parametrize("drive_hz", [42e3, 210e3])
def test_memory_estimate_bounds_the_traced_peak(reference_cloud, c6, monkeypatch, model, drive_hz):
    # a limit just below the traced peak must refuse, four times it admit
    params = PhysicalParams.from_hz(drive_hz, c6)

    def partition():
        return partition_superatoms(reference_cloud, params, model=model, n_min=0.0)

    peak = traced_peak(partition)
    monkeypatch.setattr(blockadesim.core, "MEMORY_LIMIT_BYTES", peak - 1)
    with pytest.raises(SizeCapError):
        partition()
    monkeypatch.setattr(blockadesim.core, "MEMORY_LIMIT_BYTES", 4 * peak)
    partition()


def test_partition_rejects_bad_model(reference_cloud, strong_params):
    with pytest.raises(InvalidParameterError):
        partition_superatoms(reference_cloud, strong_params, model="hybrid")
    with pytest.raises(InvalidParameterError):
        partition_superatoms(reference_cloud, strong_params, n_min=-1.0)
    with pytest.raises(InvalidParameterError):
        partition_superatoms(reference_cloud, strong_params, span_sigmas=0.0)
    for bad in (dict(n_min=math.nan), dict(span_sigmas=math.nan), dict(span_sigmas=math.inf)):
        with pytest.raises(InvalidParameterError, match=next(iter(bad))):
            partition_superatoms(reference_cloud, strong_params, **bad)


def test_ensemble_validation():
    with pytest.raises(InvalidParameterError):
        SuperatomEnsemble(
            np.array([1.0, 2.0]), np.array([1.0]), np.zeros((2, 3)), 3.0
        )
    with pytest.raises(InvalidParameterError):
        SuperatomEnsemble(
            np.array([1.0, -2.0]), np.array([1.0, 1.0]), np.zeros((2, 3)), 3.0
        )
    empty = SuperatomEnsemble(np.array([]), np.array([]), np.zeros((0, 3)), 0.0)
    assert len(empty) == 0


def test_total_weight_scales_with_density_to_the_fifth_root(strong_params):
    # number of collective superatoms ~ integral of n/N_local ~ n0**(1/5)
    densities = np.geomspace(8.2e18, 8.2e19, 5)
    totals = [
        partition_superatoms(
            CloudSpec.from_peak_density(n, (SIGMA_REF,) * 3),
            strong_params,
            model="collective",
            n_min=0.0,
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
            n_min=0.0,
        ).total_superatoms
        for f in drives
    ]
    exponent = np.polyfit(np.log(drives), np.log(totals), 1)[0]
    assert exponent == pytest.approx(0.4, abs=0.01)
