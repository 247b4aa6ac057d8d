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
from blockadesim.errors import InvalidParameterError
from blockadesim.superatom import ExcitationCurve

from conftest import SIGMA_REF, traced_peak

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


@settings(max_examples=25, deadline=None, derandomize=True)
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
    with pytest.raises(InvalidParameterError, match="no positive value after t = 0"):
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


LINE_T = np.linspace(0.0, 1e-5, 50)
EARLY_T = np.linspace(0.0, 4.9e-6, 50)  # first positive time 1e-7


@pytest.mark.parametrize(
    "t, values, rate",
    [
        # only the initial slope is identifiable, and it is still reported
        pytest.param(LINE_T, 3e9 * LINE_T, 3e9, id="straight-line"),
        pytest.param(LINE_T, (LINE_T >= LINE_T[25]).astype(float), None, id="step"),
        # k t_1 = 100: every sample after t = 0 sits on the plateau
        pytest.param(
            EARLY_T, saturation_model(EARLY_T, 1e3, 1e12), None, id="saturated-early"
        ),
        # its first positive sample lies above its mean, so nothing rises
        pytest.param(
            LINE_T, 1.0 + 0.01 * np.random.default_rng(1).standard_normal(50), None,
            id="flat-noise",
        ),
        pytest.param(LINE_T, np.exp(-LINE_T / 2e-6), None, id="decaying"),
        pytest.param(LINE_T, (LINE_T == LINE_T[-1]).astype(float), None, id="spike-at-end"),
    ],
)
def test_curves_that_do_not_determine_the_fit_do_not_converge(t, values, rate):
    fit = fit_saturation(ExcitationCurve(t, values))
    assert fit.converged is False
    if rate is not None:
        assert fit.rate == pytest.approx(rate, rel=0.01)


def test_flat_noise_never_converges():
    # the interior-minimum rule alone read one low first sample as a
    # resolved rise in 99 of these 200 curves
    fits = [
        fit_saturation(ExcitationCurve(
            LINE_T, 1.0 + 0.01 * np.random.default_rng(seed).standard_normal(50)
        ))
        for seed in range(200)
    ]
    assert [seed for seed, fit in enumerate(fits) if fit.converged is not False] == []


@pytest.mark.parametrize("rows", [10**4, 10**5])
def test_flat_curve_ends_the_root_search_where_the_slope_vanishes(rows):
    # past k t_1 = 37.4 every 1 - exp(-k t) rounds to 1, so dS/dk is exactly
    # 0 up to the scan's end: the search stops there instead of creeping along
    t = np.arange(1.0, rows + 1.0)
    fit = fit_saturation(ExcitationCurve(t, np.ones(rows)))
    assert fit.n_iterations <= 5
    assert fit.converged is False
    assert fit.n_sat == 1.0 and fit.residual_rms == 0.0
    assert fit.rate * t[0] >= 37.4


def test_fit_rejects_curve_positive_only_at_time_zero():
    t = np.linspace(0.0, 1.0, 10)
    values = np.zeros_like(t)
    values[0] = 1.0
    with pytest.raises(InvalidParameterError, match="after t = 0"):
        fit_saturation(ExcitationCurve(t, values))


def test_rise_within_the_first_sample_of_a_wide_log_grid_is_resolved():
    # t_1 / t_max = 1e-12 and k t_1 = 1: a scan ending at 1e2 / t_max would
    # stop eleven decades short of the rate
    t = np.concatenate([[0.0], np.geomspace(1e-12, 1.0, 60)])
    fit = fit_saturation(ExcitationCurve(t, saturation_model(t, 5.0, 5e12)))
    assert fit.converged
    assert fit.rate == pytest.approx(5e12, rel=1e-10)
    assert fit.n_sat == pytest.approx(5.0, rel=1e-10)


def test_scan_reaches_a_tiny_first_time_or_refuses_it():
    t = np.concatenate([[0.0, 1e-300], np.linspace(0.1, 3.0, 30)])
    fit = fit_saturation(ExcitationCurve(t, saturation_model(t, 5.0, 5.0)))
    assert fit.converged
    assert fit.rate == pytest.approx(5.0, rel=1e-10)
    t[1] = 1e-310  # 1e2 / t_1 overflows
    with pytest.raises(InvalidParameterError, match="first positive time"):
        fit_saturation(ExcitationCurve(t, saturation_model(t, 5.0, 5.0)))


def test_fit_refuses_times_whose_scanned_decay_overflows():
    # 1e2 / t_1 * t_max = 1e310: the scan's last k * t would overflow
    t = np.array([0.0, 1e-8, 1.0, 1e100, 1e300])
    values = np.array([0.0, 1.0, 2.0, 2.0, 2.0])
    with pytest.raises(InvalidParameterError, match="1e-08 to 1e\\+300 s span too many decades"):
        fit_saturation(ExcitationCurve(t, values))
    # t_1 / t_max = 1e-330 underflows to 0 on the scaled times: refused, not
    # divided by
    t = np.array([0.0, 1e-30, 1e299, 1e300])
    with pytest.raises(InvalidParameterError, match="1e-30 to 1e\\+300 s span too many decades"):
        fit_saturation(ExcitationCurve(t, values[:4]))


def test_fit_of_a_curve_near_1e_minus_200_finds_its_plateau():
    # unscaled, every scanned residual sum underflowed to 0, so the scan
    # kept its first rate and gave n_sat = 1.29e-192
    k = np.arange(9.0)
    fit = fit_saturation(ExcitationCurve(k, 2e-200 * -np.expm1(-k / 3)))
    assert fit.converged
    assert fit.n_sat == pytest.approx(2e-200, rel=1e-9)
    assert fit.rate == pytest.approx(2e-200 / 3, rel=1e-9)


def test_fit_refuses_a_rate_that_underflows_once_scaled_back():
    # t_k = k 1e200 s, y_k = 2e-200 (1 - exp(-k/3)): R = 6.7e-401 per s
    # came back as R = 0.0 and R_err = 0.0
    k = np.arange(9.0)
    curve = ExcitationCurve(k * 1e200, 2e-200 * -np.expm1(-k / 3))
    with pytest.raises(InvalidParameterError, match="e-200 underflows float64"):
        fit_saturation(curve)


def test_fit_reports_a_negative_variance_as_undetermined():
    # times 1e-13 apart: J^T J is singular but for rounding, its computed
    # inverse has a negative variance, and the clamp to 0 reported
    # n_sat = 6.5e7 and R = 2.5 with zero error bars, converged
    fit = fit_saturation(ExcitationCurve(1.0 + 1e-13 * np.arange(4), np.arange(1.0, 5.0)))
    assert fit.n_sat_err == math.inf and fit.rate_err == math.inf
    assert not fit.converged


@pytest.mark.parametrize("time_scale, value_scale", [(1e100, 1e-100), (1e-100, 1e100)])
def test_fit_results_scale_with_the_curve_s_units(time_scale, value_scale):
    # at times k 1e100 s and values near 2e-100, R_err**2 underflowed and
    # R_err = 0.0 came with converged = true
    k = np.arange(30.0)
    values = 2 * -np.expm1(-k / 3) * (1 + 0.01 * np.random.default_rng(3).standard_normal(30))
    unit = fit_saturation(ExcitationCurve(k, values))
    fit = fit_saturation(ExcitationCurve(k * time_scale, values * value_scale))
    assert unit.converged and fit.converged
    rate_scale = value_scale / time_scale
    for got, want in [
        (fit.n_sat, unit.n_sat * value_scale), (fit.n_sat_err, unit.n_sat_err * value_scale),
        (fit.rate, unit.rate * rate_scale), (fit.rate_err, unit.rate_err * rate_scale),
        (fit.residual_rms, unit.residual_rms * value_scale),
    ]:
        assert got == pytest.approx(want, rel=1e-9)
    assert 0.0 < fit.rate_err < fit.rate


def test_million_point_fit_holds_at_most_eight_curve_sized_arrays():
    n = 10**6
    curve = clean_curve(num=n)
    peak = traced_peak(lambda: fit_saturation(curve))
    assert peak <= 8 * 8 * n


# --- scaling sweeps ---------------------------------------------------------------------


def quick_time_grid():
    return np.concatenate([[0.0], np.geomspace(1e-8, 2e-5, 60)])


def test_scaling_experiment_structure(c6):
    result = scaling_experiment(
        (SIGMA_REF,) * 3,
        [2e19, 8e19],
        [2 * math.pi * 1e5, 2 * math.pi * 2e5],
        c6,
        quick_time_grid(),
        model="simple",
    )
    assert len(result.points) == 4
    assert all(p.converged for p in result.points)
    assert result.n_excluded == 0
    assert sorted(result.exponents) == ["a", "b", "c", "d"]
    assert all(e.n_points == 4 for e in result.exponents.values())


def test_scaling_recovers_exact_power_law(c6, monkeypatch):
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
        c6,
        np.concatenate([[0.0], np.geomspace(1e-3, 10.0, 40)]),
    )
    assert result.exponents["a"].value == pytest.approx(0.6, abs=1e-6)
    assert result.exponents["b"].value == pytest.approx(1.2, abs=1e-6)
    assert result.exponents["c"].value == pytest.approx(0.2, abs=1e-6)
    assert result.exponents["d"].value == pytest.approx(0.4, abs=1e-6)


def test_scaling_degenerate_axis_reports_nan(c6):
    result = scaling_experiment(
        (SIGMA_REF,) * 3,
        [8.2e19],
        [2 * math.pi * 1e5, 2 * math.pi * 2e5, 2 * math.pi * 4e5],
        c6,
        quick_time_grid(),
        model="simple",
    )
    assert math.isnan(result.exponents["a"].value)
    assert math.isnan(result.exponents["c"].value)
    assert math.isfinite(result.exponents["b"].value)
    assert math.isfinite(result.exponents["d"].value)


def test_scaling_validates_grids(c6):
    with pytest.raises(InvalidParameterError):
        scaling_experiment(
            (SIGMA_REF,) * 3, [], [1e5], c6, quick_time_grid()
        )
    with pytest.raises(InvalidParameterError):
        scaling_experiment(
            (SIGMA_REF,) * 3, [1e19], [-1e5], c6, quick_time_grid()
        )
