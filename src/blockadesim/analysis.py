"""Saturation-curve fitting and scaling-exponent extraction.

Excitation curves are reduced to two numbers by the saturation law

    y(t) = n_sat * (1 - exp(-R t / n_sat))

whose initial slope is R and plateau n_sat. Sweeping peak density and
drive strength and regressing the fitted pair on a log-log grid yields
the four scaling exponents

    R     ~ n**a * omega0**b
    n_sat ~ n**c * omega0**d

The fitter is a Levenberg-Marquardt iteration over log-parameters, which
enforces positivity without constraints and makes the convergence test
(max relative parameter change) a plain step-norm test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cloud import DEFAULT_CELL_CAP, CloudSpec, partition_superatoms
from .core import PhysicalParams
from .errors import (
    DegenerateDataError,
    DomainError,
    InvalidParameterError,
    RankDeficiencyError,
)
from .superatom import ExcitationCurve, simulate_cloud

__all__ = [
    "SaturationFit",
    "PowerLawFit",
    "SweepPoint",
    "ExponentEstimate",
    "ScalingResult",
    "saturation_model",
    "fit_saturation",
    "fit_power_law",
    "scaling_experiment",
]

FIT_MAX_ITERATIONS = 200
FIT_REL_TOL = 1e-10


def saturation_model(t, n_sat: float, rate: float):
    """Saturation law n_sat * (1 - exp(-rate*t/n_sat)), expm1 for stability."""
    t = np.asarray(t, dtype=float)
    return n_sat * (-np.expm1(-rate * t / n_sat))


def _saturation_jacobian(t: np.ndarray, n_sat: float, rate: float) -> np.ndarray:
    x = rate * t / n_sat
    decay = np.exp(-x)
    return np.column_stack([-np.expm1(-x) - x * decay, t * decay])


@dataclass(frozen=True)
class SaturationFit:
    """Result of a saturation-law fit.

    ``n_sat`` and ``rate`` are the plateau and initial slope; their
    standard errors come from the linearized covariance sigma^2 (J^T J)^-1
    at the optimum. ``converged`` is False when the iteration cap was hit
    or damping stalled, in which case the best iterate is still reported.
    """

    n_sat: float
    rate: float
    n_sat_err: float
    rate_err: float
    residual_rms: float
    converged: bool
    n_iterations: int


def fit_saturation(curve: ExcitationCurve) -> SaturationFit:
    """Fit the saturation law to a curve by damped least squares.

    Initial guesses: n_sat from the curve maximum, the rate from the
    secant slope across the first quartile of points. The iteration runs
    in log-parameter space (both parameters are positive by construction)
    and stops when the largest relative parameter change drops below
    FIT_REL_TOL or after FIT_MAX_ITERATIONS steps.
    """
    t = curve.times
    y = curve.values
    if t.size < 4:
        raise InvalidParameterError("saturation fit needs at least 4 points")
    if not np.any(y > 0.0):
        raise DegenerateDataError("curve has no positive values to fit")

    n_sat0 = float(y.max())
    quartile = max(1, t.size // 4)
    slope = (y[quartile] - y[0]) / (t[quartile] - t[0])
    if not (np.isfinite(slope) and slope > 0.0):
        slope = n_sat0 / (t[-1] - t[0])
    theta = np.log([n_sat0, slope])

    def objective(th: np.ndarray) -> tuple[np.ndarray, float]:
        n_sat, rate = np.exp(th)
        resid = saturation_model(t, n_sat, rate) - y
        return resid, float(resid @ resid)

    resid, ssr = objective(theta)
    lam = 1e-3
    converged = False
    n_iter = 0
    for n_iter in range(1, FIT_MAX_ITERATIONS + 1):
        n_sat, rate = np.exp(theta)
        # chain rule: columns are d(model)/d(log p) = d(model)/dp * p
        jac = _saturation_jacobian(t, n_sat, rate) * np.exp(theta)
        grad = jac.T @ resid
        jtj = jac.T @ jac
        damping = np.diag(jtj).copy()
        damping[damping <= 0.0] = 1e-300
        step = None
        while lam < 1e15:
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(damping), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = np.clip(theta + delta, -700.0, 700.0)
            resid_new, ssr_new = objective(trial)
            if math.isfinite(ssr_new) and ssr_new <= ssr:
                step = trial - theta
                theta, resid, ssr = trial, resid_new, ssr_new
                lam = max(lam * 0.3, 1e-12)
                break
            lam *= 5.0
        if step is None:
            break
        if float(np.max(np.abs(step))) < FIT_REL_TOL:
            converged = True
            break

    n_sat, rate = np.exp(theta)
    dof = t.size - 2
    sigma2 = ssr / dof
    jac = _saturation_jacobian(t, n_sat, rate)
    jtj = jac.T @ jac
    try:
        cov = sigma2 * np.linalg.inv(jtj)
        errs = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        errs = np.array([np.inf, np.inf])
    return SaturationFit(
        n_sat=float(n_sat),
        rate=float(rate),
        n_sat_err=float(errs[0]),
        rate_err=float(errs[1]),
        residual_rms=float(np.sqrt(ssr / t.size)),
        converged=converged,
        n_iterations=n_iter,
    )


@dataclass(frozen=True)
class PowerLawFit:
    """y = prefactor * x**exponent fitted by least squares in log-log."""

    exponent: float
    prefactor: float
    exponent_err: float
    n_points: int


def fit_power_law(x, y) -> PowerLawFit:
    """Fit a single power law through (x, y) by ordinary least squares on logs.

    Requires strictly positive data (DomainError otherwise) and at least
    two distinct x values (RankDeficiencyError otherwise). With exactly
    two points the fit is exact and the exponent error is reported as 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise InvalidParameterError("need matching 1-D arrays of at least 2 points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidParameterError("data must be finite")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise DomainError("power-law fitting needs strictly positive data")
    lx = np.log(x)
    ly = np.log(y)
    if np.all(lx == lx[0]):
        raise RankDeficiencyError("all x values identical; exponent not identifiable")
    design = np.column_stack([np.ones_like(lx), lx])
    coef, _, _, _ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - design @ coef
    n = x.size
    sxx = float(((lx - lx.mean()) ** 2).sum())
    if n > 2:
        exponent_err = math.sqrt(float(resid @ resid) / (n - 2) / sxx)
    else:
        exponent_err = 0.0
    return PowerLawFit(
        exponent=float(coef[1]),
        prefactor=float(math.exp(coef[0])),
        exponent_err=exponent_err,
        n_points=n,
    )


@dataclass(frozen=True)
class SweepPoint:
    """Saturation fit at one (peak density, drive) configuration."""

    n_peak: float
    omega0: float
    n_sat: float
    n_sat_err: float
    rate: float
    rate_err: float
    converged: bool


@dataclass(frozen=True)
class ExponentEstimate:
    name: str
    value: float
    std_error: float
    n_points: int


@dataclass(frozen=True)
class ScalingResult:
    points: tuple[SweepPoint, ...]
    exponents: dict[str, ExponentEstimate]
    n_excluded: int


def _joint_exponents(
    points: list[SweepPoint], value_of, names: tuple[str, str]
) -> list[ExponentEstimate]:
    """Regress log(value) on [1, log n, log omega0], tolerating flat axes.

    A grid axis with fewer than two distinct values cannot identify its
    exponent; that estimate comes back NaN and the other axis is still
    fitted. Exact fits (as many points as columns) report zero errors.
    """
    m = len(points)
    if m == 0:
        return [ExponentEstimate(name, math.nan, math.nan, 0) for name in names]
    ln_n = np.log([p.n_peak for p in points])
    ln_o = np.log([p.omega0 for p in points])
    ln_y = np.log([value_of(p) for p in points])
    axes = [ln_n, ln_o]
    used = [np.unique(col).size >= 2 for col in axes]
    columns = [np.ones(m)] + [col for col, u in zip(axes, used) if u]
    design = np.column_stack(columns)
    if m < design.shape[1]:
        return [ExponentEstimate(name, math.nan, math.nan, m) for name in names]
    coef, _, _, _ = np.linalg.lstsq(design, ln_y, rcond=None)
    resid = ln_y - design @ coef
    dof = m - design.shape[1]
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    cov = sigma2 * np.linalg.pinv(design.T @ design)
    estimates = []
    position = 1
    for name, u in zip(names, used):
        if u:
            err = math.sqrt(max(cov[position, position], 0.0))
            estimates.append(ExponentEstimate(name, float(coef[position]), err, m))
            position += 1
        else:
            estimates.append(ExponentEstimate(name, math.nan, math.nan, m))
    return estimates


def scaling_experiment(
    sigma: tuple[float, float, float],
    density_grid,
    omega0_grid,
    params_base: PhysicalParams,
    time_grid,
    model: str = "collective",
    n_min: float = 1.0,
    span_sigmas: float = 5.0,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> ScalingResult:
    """Sweep (peak density, drive) grids and extract scaling exponents.

    Every grid point partitions a cloud of rms radii ``sigma`` at that
    peak density, simulates its excitation curve on ``time_grid`` and fits
    the saturation law. Exponents a, b (rate) and c, d (n_sat) come from a
    joint two-variable log-log regression over the converged fits;
    non-converged points are excluded and counted in ``n_excluded``.

    For meaningful exponents each grid should span at least a factor of a
    few with three or more points; a single-valued axis yields NaN for its
    exponents rather than an error. The sweep is deterministic.
    """
    density_grid = [float(n) for n in density_grid]
    omega0_grid = [float(o) for o in omega0_grid]
    if not density_grid or not omega0_grid:
        raise InvalidParameterError("density and drive grids must be non-empty")
    if any(n <= 0.0 for n in density_grid) or any(o <= 0.0 for o in omega0_grid):
        raise InvalidParameterError("grid values must be positive")
    time_grid = np.asarray(time_grid, dtype=float)

    points = []
    for n_peak in density_grid:
        spec = CloudSpec.from_peak_density(n_peak, sigma)
        for omega0 in omega0_grid:
            params = replace(params_base, omega0=omega0)
            ensemble = partition_superatoms(
                spec, params, model=model, n_min=n_min,
                span_sigmas=span_sigmas, cell_cap=cell_cap,
            )
            curve = simulate_cloud(ensemble, params, time_grid)
            fit = fit_saturation(curve)
            points.append(SweepPoint(
                n_peak, omega0, fit.n_sat, fit.n_sat_err, fit.rate, fit.rate_err,
                fit.converged,
            ))

    good = [p for p in points if p.converged]
    rate_est = _joint_exponents(good, lambda p: p.rate, ("a", "b"))
    nsat_est = _joint_exponents(good, lambda p: p.n_sat, ("c", "d"))
    exponents = {e.name: e for e in rate_est + nsat_est}
    return ScalingResult(tuple(points), exponents, len(points) - len(good))
