"""Superatom oscillations, cloud curves, crossover detection."""

import math
import warnings

import numpy as np
import pytest

import blockadesim.analysis
import blockadesim.cloud
import blockadesim.core
from blockadesim.analysis import scaling_experiment
from blockadesim.cloud import CloudSpec, SuperatomEnsemble, partition_superatoms
from blockadesim.constants import TWO_PI
from blockadesim.core import PhysicalParams
from blockadesim.errors import InvalidParameterError, SizeCapError
from blockadesim.superatom import (
    ExcitationCurve,
    crossover_time,
    noninteracting_reference,
    simulate_cloud,
    superatom_population,
)

from conftest import (
    N_ATOMS_REF, SIGMA_REF, STRONG_DRIVE_HZ, WEAK_DRIVE_HZ, entry_ensemble, traced_peak,
)

OMEGA = 2 * math.pi * 1e5
PARAMS = PhysicalParams(OMEGA, 1e-60)


def small_ensemble(n_per, weights):
    return entry_ensemble(n_per, weights)


# --- single superatom ------------------------------------------------------------


def test_population_starts_at_zero():
    assert superatom_population(100.0, OMEGA, 0.0) == 0.0


def test_pi_pulse_fully_transfers():
    n = 49.0
    t_pi = math.pi / (math.sqrt(n) * OMEGA)
    assert superatom_population(n, OMEGA, t_pi) == pytest.approx(1.0, rel=1e-12)


def test_collective_frequency_scales_as_sqrt_n():
    # a 4x larger superatom oscillates exactly twice as fast
    t = np.linspace(0.0, 5e-6, 500)
    one = superatom_population(25.0, OMEGA, t)
    four = superatom_population(100.0, OMEGA, t / 2)
    assert np.allclose(one, four, atol=1e-12)


def test_population_is_vectorized():
    t = np.linspace(0.0, 1e-5, 7)
    out = superatom_population(10.0, OMEGA, t)
    assert out.shape == (7,)
    assert out[0] == 0.0


def test_population_broadcasts_sizes_against_times():
    n_per = np.array([1.0, 9.0, 49.0, 400.0])
    t = np.linspace(0.0, 2e-5, 37)
    grid = superatom_population(n_per[:, None], OMEGA, t)
    assert grid.shape == (4, 37)
    for row, n in zip(grid, n_per):
        assert np.array_equal(row, superatom_population(n, OMEGA, t))


def test_population_rejects_any_negative_size():
    with pytest.raises(InvalidParameterError):
        superatom_population(np.array([4.0, 1.0, -1e-300, 9.0])[:, None], OMEGA, 0.0)


def test_population_validates_inputs():
    with pytest.raises(InvalidParameterError):
        superatom_population(-1.0, OMEGA, 0.0)
    with pytest.raises(InvalidParameterError):
        superatom_population(1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "name, value",
    [
        ("n_per", math.nan),
        ("n_per", math.inf),
        ("n_per", np.array([4.0, math.nan])),
        ("omega0", math.nan),
        ("omega0", math.inf),
    ],
)
def test_population_rejects_non_finite_input(name, value):
    args = dict(n_per=10.0, omega0=OMEGA, t=np.linspace(0.0, 1e-5, 5))
    with pytest.raises(InvalidParameterError, match=f"{name} must be"):
        superatom_population(**(args | {name: value}))


@pytest.mark.parametrize("t", [math.nan, -1.0, math.inf])
def test_population_rejects_negative_or_non_finite_time(t):
    with pytest.raises(InvalidParameterError, match="t must be"):
        superatom_population(4.0, 1e6, np.array([0.0, t]))


def test_population_refuses_an_overflowing_phase_naming_t():
    with pytest.raises(InvalidParameterError, match="t is too long"):
        superatom_population(4.0, 1e9, np.array([0.0, 1e300]))  # phase 2e309


def test_population_is_bit_identical_to_the_closed_form(rng):
    n_per = rng.uniform(0.0, 1e4, 64)[:, None]
    t = np.linspace(0.0, 3e-5, 50)
    expected = 0.5 * (1.0 - np.cos(np.sqrt(n_per) * OMEGA * t))
    assert np.array_equal(superatom_population(n_per, OMEGA, t), expected)
    assert superatom_population(9.0, OMEGA, 1e-6) == 0.5 * (1.0 - math.cos(3.0 * OMEGA * 1e-6))


# --- cloud curves -----------------------------------------------------------------


def test_single_entry_curve_matches_population():
    ensemble = small_ensemble([36.0], [2.5])
    t = np.linspace(0.0, 2e-5, 200)
    curve = simulate_cloud(ensemble, PARAMS, t)
    assert np.allclose(
        curve.values, 2.5 * superatom_population(36.0, OMEGA, t), rtol=1e-12
    )


def test_curve_starts_at_zero_and_stays_nonnegative():
    ensemble = small_ensemble([10.0, 40.0, 90.0], [5.0, 3.0, 1.0])
    t = np.linspace(0.0, 1e-4, 400)
    curve = simulate_cloud(ensemble, PARAMS, t)
    assert curve.values[0] == 0.0
    assert np.all(curve.values >= 0.0)
    assert np.all(curve.values <= ensemble.weight.sum())


def test_curve_matches_per_entry_population_sum(rng):
    # heavy exact repeats (as the symmetric cell grid produces) mixed with
    # random sizes; the grouped sum must match the entry-by-entry law
    repeated = rng.choice(rng.uniform(1.0, 5000.0, size=40), size=6000)
    n_per = rng.permutation(np.concatenate([repeated, rng.uniform(1.0, 5000.0, 3000)]))
    weights = rng.uniform(0.01, 3.0, size=n_per.size)
    t = np.concatenate([[0.0], np.geomspace(1e-9, 1e-4, 120)])
    curve = simulate_cloud(small_ensemble(n_per, weights), PARAMS, t)
    expected = np.zeros_like(t)
    for n, w in zip(n_per, weights):
        expected += w * superatom_population(n, OMEGA, t)
    assert np.abs(curve.values - expected).max() <= 1e-12 * weights.sum()
    assert curve.metadata["n_distinct"] == np.unique(n_per).size
    # the same entries pooled into one class per distinct size, as a
    # partition would hand them over, give the same bits
    classes, index = np.unique(n_per, return_inverse=True)
    pooled = SuperatomEnsemble(classes, index, weights, lambda: np.zeros((n_per.size, 3)))
    assert np.array_equal(simulate_cloud(pooled, PARAMS, t).values, curve.values)


def test_curve_invariant_under_entry_permutation(rng):
    n_per = rng.uniform(5.0, 500.0, size=300)
    weights = rng.uniform(0.1, 4.0, size=300)
    t = np.linspace(0.0, 5e-5, 100)
    base = simulate_cloud(small_ensemble(n_per, weights), PARAMS, t)
    perm = rng.permutation(300)
    shuffled = simulate_cloud(small_ensemble(n_per[perm], weights[perm]), PARAMS, t)
    assert np.allclose(base.values, shuffled.values, rtol=1e-12, atol=1e-12)


def test_long_time_mean_is_half_total_weight(rng):
    n_per = rng.uniform(40.0, 400.0, size=50)
    weights = rng.uniform(0.5, 2.0, size=50)
    ensemble = small_ensemble(n_per, weights)
    slowest_period = 2 * math.pi / (math.sqrt(n_per.min()) * OMEGA)
    t = np.linspace(0.0, 20 * slowest_period, 4000)
    curve = simulate_cloud(ensemble, PARAMS, t)
    assert curve.values.mean() == pytest.approx(weights.sum() / 2, rel=0.02)


def test_empty_ensemble_rejected():
    empty = small_ensemble([], [])
    with pytest.raises(InvalidParameterError, match="ensemble is empty"):
        simulate_cloud(empty, PARAMS, np.linspace(0, 1e-5, 10))


@pytest.mark.parametrize("grid", [[0.0, math.inf], [math.nan]])
def test_non_finite_time_grid_rejected_before_evaluation(grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="time grid must be finite"):
            simulate_cloud(small_ensemble([10.0], [1.0]), PARAMS, grid)


@pytest.mark.parametrize("grid", [[0.0, math.inf], [math.nan]])
def test_noninteracting_reference_rejects_non_finite_grid_before_evaluation(grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="time grid must be finite"):
            noninteracting_reference(1e3, PARAMS, grid)


def test_curve_blocks_are_refused_before_allocating(monkeypatch):
    # 4096 distinct sizes at 4096 times: 134 MB per (size x time) block
    limit = 64 * 2**20
    monkeypatch.setattr(blockadesim.core, "MEMORY_LIMIT_BYTES", limit)
    ensemble = small_ensemble(np.arange(1.0, 4097.0), np.ones(4096))
    t = np.linspace(0.0, 2e-5, 4096)

    def refused():
        with pytest.raises(SizeCapError, match="memory cap"):
            simulate_cloud(ensemble, PARAMS, t)

    assert traced_peak(refused) < limit


@pytest.mark.parametrize("model", ["collective", "simple"])
@pytest.mark.parametrize("drive_hz", [42e3, 210e3])
def test_curve_memory_estimate_bounds_the_traced_peak(
    reference_cloud, c6, monkeypatch, model, drive_hz
):
    # a limit just below the traced peak must refuse, four times it admit
    params = PhysicalParams.from_hz(drive_hz, c6)
    ensemble = partition_superatoms(reference_cloud, params, model=model)
    t = np.linspace(0.0, 2e-5, 200)
    peak = traced_peak(lambda: simulate_cloud(ensemble, params, t))
    monkeypatch.setattr(blockadesim.core, "MEMORY_LIMIT_BYTES", peak - 1)
    with pytest.raises(SizeCapError):
        simulate_cloud(ensemble, params, t)
    monkeypatch.setattr(blockadesim.core, "MEMORY_LIMIT_BYTES", 4 * peak)
    simulate_cloud(ensemble, params, t)


# (entries, distinct sizes) of each cloud at 210 kHz, frozen from the
# per-entry pooling that sorted every entry's n_per
POOLED_COUNTS = {
    ((1.0, 1.0, 1.0), "simple"): (3375, 680),
    ((1.0, 1.0, 1.0), "collective"): (27000, 1040),
    ((1.0, 1.0, 1.3), "simple"): (4500, 2400),
    ((1.0, 1.0, 1.3), "collective"): (34200, 14298),
    ((0.8, 1.0, 1.3), "simple"): (3600, 3600),
    ((0.8, 1.0, 1.3), "collective"): (28080, 27439),
}


@pytest.mark.parametrize("cloud_and_model", POOLED_COUNTS)
def test_pooled_sizes_and_weights_match_the_per_entry_pooling(strong_params, cloud_and_model):
    # the collective clouds of two and three radii merge 14,516 and 28,080
    # classes into 14,298 and 27,439 distinct sizes: bit-equal sizes of
    # different classes must pool as their entries do
    radii, model = cloud_and_model
    spec = CloudSpec(N_ATOMS_REF, tuple(SIGMA_REF * r for r in radii))
    ensemble = partition_superatoms(spec, strong_params, model=model)
    distinct, weight = ensemble.pooled()
    oracle, inverse = np.unique(ensemble.n_per, return_inverse=True)
    assert np.array_equal(distinct, oracle)
    assert np.array_equal(weight, np.bincount(inverse, weights=ensemble.weight))
    metadata = simulate_cloud(ensemble, strong_params, np.linspace(0.0, 2e-5, 200)).metadata
    assert (metadata["n_entries"], metadata["n_distinct"]) == POOLED_COUNTS[cloud_and_model]


@pytest.fixture
def sorts(monkeypatch):
    """The length of every array that np.unique or np.argsort is handed."""
    lengths = []
    for name in ("unique", "argsort"):
        def recorded(a, *args, _sort=getattr(np, name), **kwargs):
            lengths.append(np.size(a))
            return _sort(a, *args, **kwargs)

        monkeypatch.setattr(np, name, recorded)
    return lengths


@pytest.mark.parametrize("model", ["simple", "collective"])
def test_cloud_curves_sort_no_array_as_long_as_the_entries(
    reference_cloud, strong_params, c6, monkeypatch, sorts, model
):
    ensemble = partition_superatoms(reference_cloud, strong_params, model=model)
    simulate_cloud(ensemble, strong_params, np.linspace(0.0, 2e-5, 200))
    assert sorts and max(sorts) < len(ensemble)

    # acceptance 07's sweep: no sort as long as any of its ensembles, and
    # no ensemble's cell centres built
    entries, centres = [], []
    partition = blockadesim.analysis.partition_superatoms

    def counted(*args, **kwargs):
        ensemble = partition(*args, **kwargs)
        entries.append(len(ensemble))
        return ensemble

    monkeypatch.setattr(blockadesim.analysis, "partition_superatoms", counted)
    monkeypatch.setattr(blockadesim.cloud, "_grid_centers", lambda *args: centres.append(args))
    sorts.clear()
    scaling_experiment(
        (SIGMA_REF,) * 3, np.geomspace(2.8e18, 8.2e19, 4),
        TWO_PI * np.geomspace(WEAK_DRIVE_HZ, STRONG_DRIVE_HZ, 4), c6,
        np.concatenate([[0.0], np.geomspace(1e-9, 1e-4, 159)]), model=model,
    )
    assert len(entries) == 16 and max(sorts) < min(entries)
    assert centres == []


def test_curve_metadata_reports_generation():
    ensemble = small_ensemble([10.0], [7.0])
    curve = simulate_cloud(ensemble, PARAMS, np.linspace(0, 1e-5, 10))
    assert curve.metadata["omega0_radps"] == OMEGA
    assert curve.metadata["n_entries"] == 1
    assert curve.metadata["n_distinct"] == 1
    assert curve.metadata["total_weight"] == 7.0
    repeated = simulate_cloud(
        small_ensemble([10.0, 4.0, 10.0, 10.0, 4.0], [1.0] * 5), PARAMS, np.linspace(0, 1e-5, 10)
    )
    assert repeated.metadata["n_entries"] == 5
    assert repeated.metadata["n_distinct"] == 2


def test_curve_validation():
    with pytest.raises(InvalidParameterError):
        ExcitationCurve(np.array([0.0, 1.0]), np.array([0.0, -0.5]))
    with pytest.raises(InvalidParameterError):
        ExcitationCurve(np.array([1.0, 0.5]), np.array([0.0, 0.1]))
    with pytest.raises(InvalidParameterError):
        ExcitationCurve(np.array([0.0, 1.0]), np.array([0.0]))
    for times in ([-1.0, 0.0], [0.0, math.inf], [math.nan, 1.0]):
        with pytest.raises(InvalidParameterError, match="time grid"):
            ExcitationCurve(np.array(times), np.array([0.0, 0.1]))


def test_noninteracting_reference_is_scaled_single_atom():
    t = np.linspace(0.0, 1e-5, 50)
    ref = noninteracting_reference(1e6, PARAMS, t)
    assert np.allclose(ref.values, 1e6 * np.sin(OMEGA * t / 2) ** 2, rtol=1e-12)


# --- crossover --------------------------------------------------------------------


def test_identical_curves_never_cross():
    t = np.linspace(0.0, 1e-5, 60)
    ref = noninteracting_reference(100.0, PARAMS, t)
    assert crossover_time(ref, ref, threshold=0.1) is None


def test_flat_zero_curve_crosses_immediately():
    t = np.linspace(0.0, 1e-5, 60)
    ref = noninteracting_reference(100.0, PARAMS, t)
    flat = ExcitationCurve(t, np.zeros_like(t))
    # degenerate bracket: the first informative grid point is returned
    assert crossover_time(flat, ref, threshold=0.1) == t[1]


def test_crossover_interpolates_linearly():
    # curve fixed at 2, reference ramping through 4 at t = 0.5: with a 50%
    # threshold the gap 2 - 0.5*4t crosses zero exactly at t = 1
    t = np.linspace(0.0, 2.0, 21)
    curve = ExcitationCurve(t, np.full_like(t, 2.0))
    ref = ExcitationCurve(t, 4.0 * t)
    got = crossover_time(curve, ref, threshold=0.5)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_crossover_requires_shared_grid():
    a = ExcitationCurve(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    b = ExcitationCurve(np.array([0.0, 2.0]), np.array([0.0, 1.0]))
    with pytest.raises(InvalidParameterError):
        crossover_time(a, b)


def test_crossover_threshold_domain():
    t = np.linspace(0.0, 1.0, 5)
    curve = ExcitationCurve(t, np.ones_like(t))
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(InvalidParameterError):
            crossover_time(curve, curve, threshold=bad)


# --- cloud-level physics ------------------------------------------------------------


def test_cloud_curve_quadratic_at_short_times(reference_cloud, strong_params):
    ensemble = partition_superatoms(
        reference_cloud, strong_params, model="collective"
    )
    omega = strong_params.omega0
    t_star = 0.1 / (math.sqrt(ensemble.n_per.max()) * omega)
    t = np.concatenate([[0.0], np.geomspace(t_star / 30, t_star, 40)])
    curve = simulate_cloud(ensemble, strong_params, t)
    ideal = reference_cloud.n_atoms * (omega * t[1:] / 2) ** 2
    ratio = curve.values[1:] / ideal
    assert np.abs(ratio - 1.0).max() < 0.01


def test_cloud_curve_suppressed_after_crossover(reference_cloud, strong_params):
    omega = strong_params.omega0
    ensemble = partition_superatoms(
        reference_cloud, strong_params, model="collective"
    )
    # up to the reference maximum at pi/omega
    t = np.concatenate([[0.0], np.geomspace(1e-9, math.pi / omega, 200)])
    curve = simulate_cloud(ensemble, strong_params, t)
    ref = noninteracting_reference(reference_cloud.n_atoms, strong_params, t)
    t_cross = crossover_time(curve, ref, threshold=0.1)
    assert t_cross is not None
    after = t > t_cross
    assert np.all(curve.values[after] <= ref.values[after])
