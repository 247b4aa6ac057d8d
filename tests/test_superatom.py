"""Superatom oscillations, cloud curves, crossover detection."""

import math
import warnings

import numpy as np
import pytest

from blockadesim.cloud import SuperatomEnsemble, partition_superatoms
from blockadesim.core import PhysicalParams
from blockadesim.errors import DegenerateDataError, InvalidParameterError
from blockadesim.superatom import (
    ExcitationCurve,
    crossover_time,
    noninteracting_reference,
    simulate_cloud,
    superatom_population,
)

OMEGA = 2 * math.pi * 1e5
PARAMS = PhysicalParams(OMEGA, 1e-60)


def small_ensemble(n_per, weights):
    n_per = np.asarray(n_per, dtype=float)
    weights = np.asarray(weights, dtype=float)
    centers = np.zeros((n_per.size, 3))
    return SuperatomEnsemble(n_per, weights, centers, float((n_per * weights).sum()))


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


def test_damping_relaxes_to_half():
    gamma = 1e7
    assert superatom_population(10.0, OMEGA, 1e-5, gamma=gamma) == pytest.approx(
        0.5, rel=1e-6
    )


def test_population_broadcasts_sizes_against_times():
    n_per = np.array([1.0, 9.0, 49.0, 400.0])
    t = np.linspace(0.0, 2e-5, 37)
    grid = superatom_population(n_per[:, None], OMEGA, t, gamma=3e4)
    assert grid.shape == (4, 37)
    for row, n in zip(grid, n_per):
        assert np.array_equal(row, superatom_population(n, OMEGA, t, gamma=3e4))


def test_population_rejects_any_negative_size():
    with pytest.raises(InvalidParameterError):
        superatom_population(np.array([4.0, 1.0, -1e-300, 9.0])[:, None], OMEGA, 0.0)


def test_population_validates_inputs():
    with pytest.raises(InvalidParameterError):
        superatom_population(-1.0, OMEGA, 0.0)
    with pytest.raises(InvalidParameterError):
        superatom_population(1.0, 0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        superatom_population(1.0, OMEGA, 0.0, gamma=-1.0)


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


@pytest.mark.parametrize("gamma", [0.0, 4e4])
def test_curve_matches_per_entry_population_sum(rng, gamma):
    # heavy exact repeats (as the symmetric cell grid produces) mixed with
    # random sizes; the grouped sum must match the entry-by-entry law
    repeated = rng.choice(rng.uniform(1.0, 5000.0, size=40), size=6000)
    n_per = rng.permutation(np.concatenate([repeated, rng.uniform(1.0, 5000.0, 3000)]))
    weights = rng.uniform(0.01, 3.0, size=n_per.size)
    params = PhysicalParams(OMEGA, 1e-60, gamma_dephase=gamma)
    t = np.concatenate([[0.0], np.geomspace(1e-9, 1e-4, 120)])
    curve = simulate_cloud(small_ensemble(n_per, weights), params, t)
    expected = np.zeros_like(t)
    for n, w in zip(n_per, weights):
        expected += w * superatom_population(n, OMEGA, t, gamma)
    assert np.abs(curve.values - expected).max() <= 1e-12 * weights.sum()
    assert curve.metadata["n_distinct"] == np.unique(n_per).size


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


def test_damped_curve_settles_at_half_weight():
    ensemble = small_ensemble([100.0, 200.0], [3.0, 1.0])
    damped = PhysicalParams(OMEGA, 1e-60, gamma_dephase=2e6)
    t = np.linspace(0.0, 2e-5, 300)
    curve = simulate_cloud(ensemble, damped, t)
    assert curve.values[-1] == pytest.approx(ensemble.weight.sum() / 2, rel=1e-4)


def test_empty_ensemble_rejected():
    empty = SuperatomEnsemble(np.array([]), np.array([]), np.zeros((0, 3)), 0.0)
    with pytest.raises(DegenerateDataError):
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
        reference_cloud, strong_params, model="collective", n_min=0.0
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
        reference_cloud, strong_params, model="collective", n_min=0.0
    )
    # up to the reference maximum at pi/omega
    t = np.concatenate([[0.0], np.geomspace(1e-9, math.pi / omega, 200)])
    curve = simulate_cloud(ensemble, strong_params, t)
    ref = noninteracting_reference(reference_cloud.n_atoms, strong_params, t)
    t_cross = crossover_time(curve, ref, threshold=0.1)
    assert t_cross is not None
    after = t > t_cross
    assert np.all(curve.values[after] <= ref.values[after])
