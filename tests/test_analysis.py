"""Saturation fits and scaling sweeps."""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from blockadesim.analysis import (
    fit_saturation,
    saturation_model,
    scaling_experiment,
)
from blockadesim.core import PhysicalParams
from blockadesim.errors import DegenerateDataError, InvalidParameterError
from blockadesim.superatom import ExcitationCurve

from conftest import SIGMA_REF

TRUTH_NSAT = 1.7e4
TRUTH_RATE = 1.7e11


def clean_curve(stop=2e-6, num=120):
    t = np.linspace(0.0, stop, num)
    return ExcitationCurve(t, saturation_model(t, TRUTH_NSAT, TRUTH_RATE))


def noisy_curve(seed, level=0.05, stop=2e-6, num=120):
    rng = np.random.default_rng(seed)
    base = clean_curve(stop, num)
    values = np.maximum(base.values * (1 + level * rng.standard_normal(num)), 0.0)
    return ExcitationCurve(base.times, values)


# --- saturation fit ----------------------------------------------------------------


def test_model_initial_slope_and_plateau():
    # slope R at the origin, plateau n_sat at late times
    eps = 1e-14
    assert saturation_model(eps, TRUTH_NSAT, TRUTH_RATE) == pytest.approx(
        TRUTH_RATE * eps, rel=1e-6
    )
    assert saturation_model(1.0, TRUTH_NSAT, TRUTH_RATE) == pytest.approx(
        TRUTH_NSAT, rel=1e-12
    )


def test_noiseless_recovery():
    fit = fit_saturation(clean_curve())
    assert fit.n_sat == pytest.approx(TRUTH_NSAT, rel=1e-6)
    assert fit.rate == pytest.approx(TRUTH_RATE, rel=1e-6)
    assert fit.converged
    assert fit.residual_rms < 1e-6 * TRUTH_NSAT


def test_noisy_recovery_is_close():
    fit = fit_saturation(noisy_curve(seed=42))
    assert fit.n_sat == pytest.approx(TRUTH_NSAT, rel=0.05)
    assert fit.rate == pytest.approx(TRUTH_RATE, rel=0.10)
    assert fit.n_sat_err > 0.0
    assert fit.rate_err > 0.0


@settings(max_examples=25, deadline=None)
@given(st.floats(1e-3, 1e3))
def test_fit_scale_equivariance(k):
    base = clean_curve(num=60)
    scaled = ExcitationCurve(base.times, k * base.values)
    fit = fit_saturation(scaled)
    assert fit.n_sat == pytest.approx(k * TRUTH_NSAT, rel=1e-6)
    assert fit.rate == pytest.approx(k * TRUTH_RATE, rel=1e-6)


def test_time_rescaling_moves_only_the_rate():
    base = clean_curve(num=60)
    stretched = ExcitationCurve(base.times * 10.0, base.values)
    fit = fit_saturation(stretched)
    assert fit.n_sat == pytest.approx(TRUTH_NSAT, rel=1e-6)
    assert fit.rate == pytest.approx(TRUTH_RATE / 10.0, rel=1e-6)


def test_linear_data_pins_rate_but_not_plateau():
    # far from saturation only the initial slope is identifiable
    t = np.linspace(0.0, 1e-5, 50)
    fit = fit_saturation(ExcitationCurve(t, 3e9 * t))
    assert fit.rate == pytest.approx(3e9, rel=0.01)
    assert fit.n_sat_err > 100 * fit.n_sat or fit.n_sat_err > 1e6 * 3e9 * 1e-5


def test_fit_needs_four_points():
    t = np.array([0.0, 1.0, 2.0])
    with pytest.raises(InvalidParameterError):
        fit_saturation(ExcitationCurve(t, np.array([0.0, 1.0, 2.0])))


def test_fit_rejects_all_zero_curve():
    t = np.linspace(0.0, 1.0, 10)
    with pytest.raises(DegenerateDataError):
        fit_saturation(ExcitationCurve(t, np.zeros_like(t)))


def test_fit_agrees_with_scipy_curve_fit():
    curve = noisy_curve(seed=7)
    ours = fit_saturation(curve)
    popt, pcov = scipy.optimize.curve_fit(
        lambda t, n_sat, rate: saturation_model(t, n_sat, rate),
        curve.times,
        curve.values,
        p0=[curve.values.max(), curve.values.max() / curve.times[-1]],
        xtol=1e-13,
        ftol=1e-13,
    )
    assert ours.n_sat == pytest.approx(popt[0], rel=1e-6)
    assert ours.rate == pytest.approx(popt[1], rel=1e-6)
    errs = np.sqrt(np.diag(pcov))
    assert ours.n_sat_err == pytest.approx(errs[0], rel=1e-3)
    assert ours.rate_err == pytest.approx(errs[1], rel=1e-3)


def test_fit_statistics_over_seeds():
    # acceptance runs 100 replicates; a 30-seed sanity version here
    estimates = []
    covered = 0
    for seed in range(30):
        fit = fit_saturation(noisy_curve(seed=seed, stop=3e-6, num=150))
        estimates.append((fit.n_sat, fit.rate))
        covered += abs(fit.n_sat - TRUTH_NSAT) <= 1.96 * fit.n_sat_err
    estimates = np.array(estimates)
    assert abs(estimates[:, 0].mean() / TRUTH_NSAT - 1) < 0.02
    assert abs(estimates[:, 1].mean() / TRUTH_RATE - 1) < 0.02
    assert covered >= 24


def test_reported_iterations_bounded():
    fit = fit_saturation(clean_curve())
    assert 1 <= fit.n_iterations <= 200


# --- scaling sweeps ---------------------------------------------------------------------


def quick_time_grid():
    return np.concatenate([[0.0], np.geomspace(1e-8, 2e-5, 60)])


def test_scaling_experiment_structure(strong_params):
    result = scaling_experiment(
        (SIGMA_REF,) * 3,
        [2e19, 8e19],
        [2 * math.pi * 1e5, 2 * math.pi * 2e5],
        strong_params,
        quick_time_grid(),
        model="simple",
        n_min=0.0,
        span_sigmas=3.0,
    )
    assert len(result.points) == 4
    assert all(p.converged for p in result.points)
    assert result.n_excluded == 0
    assert sorted(result.exponents) == ["a", "b", "c", "d"]
    assert all(e.n_points == 4 for e in result.exponents.values())


def test_scaling_recovers_exact_power_law(strong_params, monkeypatch):
    # bypass the simulation: feed curves whose saturation parameters follow
    # R = n^0.6 w^1.2 and n_sat = n^0.2 w^0.4 exactly, and expect exact
    # exponents back
    import blockadesim.analysis as analysis
    from blockadesim.cloud import peak_density

    nc, wc = 3e19, 3e5  # grid centers; keep rate/n_sat near 3 there

    def fake_partition(spec, params, **kwargs):
        return (spec, params)

    def fake_simulate(pair, params, grid):
        n = peak_density(pair[0])
        w = params.omega0
        n_sat = n**0.2 * w**0.4
        rate = n_sat * 3.0 * (n / nc) ** 0.4 * (w / wc) ** 0.8
        return ExcitationCurve(grid, saturation_model(grid, n_sat, rate))

    monkeypatch.setattr(analysis, "partition_superatoms", fake_partition)
    monkeypatch.setattr(analysis, "simulate_cloud", fake_simulate)
    result = analysis.scaling_experiment(
        (SIGMA_REF,) * 3,
        [1e19, 3e19, 9e19],
        [1e5, 3e5, 9e5],
        strong_params,
        np.concatenate([[0.0], np.geomspace(1e-3, 10.0, 40)]),
    )
    assert result.exponents["a"].value == pytest.approx(0.6, abs=1e-6)
    assert result.exponents["b"].value == pytest.approx(1.2, abs=1e-6)
    assert result.exponents["c"].value == pytest.approx(0.2, abs=1e-6)
    assert result.exponents["d"].value == pytest.approx(0.4, abs=1e-6)


def test_scaling_degenerate_axis_reports_nan(strong_params):
    result = scaling_experiment(
        (SIGMA_REF,) * 3,
        [8.2e19],
        [2 * math.pi * 1e5, 2 * math.pi * 2e5, 2 * math.pi * 4e5],
        strong_params,
        quick_time_grid(),
        model="simple",
        n_min=0.0,
        span_sigmas=3.0,
    )
    assert math.isnan(result.exponents["a"].value)
    assert math.isnan(result.exponents["c"].value)
    assert math.isfinite(result.exponents["b"].value)
    assert math.isfinite(result.exponents["d"].value)


def test_scaling_validates_grids(strong_params):
    with pytest.raises(InvalidParameterError):
        scaling_experiment(
            (SIGMA_REF,) * 3, [], [1e5], strong_params, quick_time_grid()
        )
    with pytest.raises(InvalidParameterError):
        scaling_experiment(
            (SIGMA_REF,) * 3, [1e19], [-1e5], strong_params, quick_time_grid()
        )
