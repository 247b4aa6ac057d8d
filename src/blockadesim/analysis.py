"""Saturation-curve fitting and scaling-exponent extraction.

Excitation curves are reduced to two numbers by the saturation law

    y(t) = n_sat * (1 - exp(-R t / n_sat))

whose initial slope is R and plateau n_sat. Sweeping peak density and
drive strength and regressing the fitted pair on a log-log grid yields
the four scaling exponents

    R     ~ n**a * omega0**b
    n_sat ~ n**c * omega0**d

The fit is by variable projection: at a fixed decay rate k = R/n_sat the
law is linear in n_sat, which is solved exactly, so only k is searched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cloud import CloudSpec, partition_superatoms
from .core import PhysicalParams
from .errors import InvalidParameterError
from .superatom import ExcitationCurve, simulate_cloud

__all__ = [
    "SaturationFit",
    "SweepPoint",
    "ExponentEstimate",
    "ScalingResult",
    "saturation_model",
    "fit_saturation",
    "scaling_experiment",
]

FIT_SCAN_PER_DECADE = 4
FIT_REL_TOL = 1e-13  # final bisection bracket width over its upper end


def saturation_model(t, n_sat: float, rate: float):
    """Saturation law n_sat * (1 - exp(-rate*t/n_sat)), expm1 for stability."""
    t = np.asarray(t, dtype=float)
    return n_sat * (-np.expm1(-rate * t / n_sat))


def _saturation_jacobian(t: np.ndarray, n_sat: float, rate: float) -> np.ndarray:
    x = rate * t / n_sat
    decay = np.exp(-x)
    return np.column_stack([-np.expm1(-x) - x * decay, t * decay])


def _project(t: np.ndarray, y: np.ndarray, k: float) -> tuple[float, np.ndarray]:
    """Least-squares n_sat at decay rate k, and the residual y - n_sat * f."""
    f = saturation_model(t, 1.0, k)
    n_sat = float(f @ y) / float(f @ f)
    return n_sat, y - n_sat * f


@dataclass(frozen=True)
class SaturationFit:
    """Result of a saturation-law fit.

    ``n_sat`` and ``rate`` are the plateau and initial slope; their
    standard errors come from the linearized covariance sigma^2 (J^T J)^-1
    at the optimum. ``converged`` is False when the best scanned decay rate
    lies at an end of the scan or ties its right neighbour, or when
    ``rate_err`` is not below ``rate``: the curve then resolves its rise or
    its plateau but not both, or neither (flat noise), and the best rate
    found is still reported. ``n_iterations`` counts bisection steps.
    """

    n_sat: float
    n_sat_err: float
    rate: float
    rate_err: float
    residual_rms: float
    converged: bool
    n_iterations: int


# an overflow ends as inf or NaN without a warning; the result is checked below
@np.errstate(all="ignore")
def fit_saturation(curve: ExcitationCurve) -> SaturationFit:
    """Least-squares fit of the saturation law by variable projection.

    With f = 1 - exp(-k t), n_sat(k) = (f.y)/(f.f) exactly. The residual
    sum of squares S(k) is scanned at FIT_SCAN_PER_DECADE log-spaced rates
    per decade from 1e-8/t_max (a straight line) to 1e2/t_1, t_1 the first
    positive time (saturated by the first sample). Between the best scanned
    rate's neighbours, k is bisected on the sign of
    dS/dk = -2 n_sat (t exp(-k t)).r; then R = n_sat * k. InvalidParameterError
    refuses a fit that overflows float64: a NaN, or an inf other than an error bar.
    """
    t = curve.times
    y = curve.values
    if t.size < 4:
        raise InvalidParameterError("saturation fit needs at least 4 points")
    # f(0) = 0, so a value at t = 0 carries no information
    first = int(t[0] == 0.0)
    if not np.any(y[first:] > 0.0):
        raise InvalidParameterError("curve has no positive value after t = 0 to fit")

    t_1, t_max = float(t[first]), float(t[-1])
    k_lo, k_hi = 1e-8 / t_max, 1e2 / t_1
    if not k_hi < math.inf:
        raise InvalidParameterError(f"first positive time {t_1!r} is too small to fit")
    if not k_hi * t_max < math.inf:  # so no scanned k * t overflows
        raise InvalidParameterError(f"times {t_1!r} to {t_max!r} s span too many decades to fit")
    n_scan = 1 + math.ceil(FIT_SCAN_PER_DECADE * (math.log10(k_hi) - math.log10(k_lo)))
    rates = np.geomspace(k_lo, k_hi, n_scan).tolist()
    # one rate at a time: no (scan x T) array; min(inf, NaN) is inf, so a
    # residual sum that overflows is never the best
    scan_ssr = [min(math.inf, float(r @ r)) for _, r in (_project(t, y, k) for k in rates)]
    best = int(np.argmin(scan_ssr))
    # the first minimum is already strictly below its left neighbour
    converged = 0 < best < n_scan - 1 and scan_ssr[best] < scan_ssr[best + 1]

    lo, hi = rates[max(best - 1, 0)], rates[min(best + 1, n_scan - 1)]
    n_iter = 0
    while hi - lo > FIT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        resid = _project(t, y, mid)[1]
        if (t * np.exp(-mid * t)) @ resid > 0.0:  # dS/dk < 0 as n_sat > 0
            lo = mid
        else:
            hi = mid
        n_iter += 1

    k = 0.5 * (lo + hi)
    n_sat, resid = _project(t, y, k)
    rate, ssr = n_sat * k, float(resid @ resid)
    jac = _saturation_jacobian(t, n_sat, rate)
    jtj = jac.T @ jac
    try:
        cov = ssr / (t.size - 2) * np.linalg.inv(jtj)
    except np.linalg.LinAlgError:  # singular: the curve determines neither
        cov = np.diag([np.inf, np.inf])
    n_sat_err, rate_err = np.sqrt(np.maximum(np.diag(cov), 0.0)).tolist()
    # n_sat is finite where rate is; an error may be inf (undetermined), never NaN
    if not all(map(math.isfinite, (rate, ssr, *jtj.flat))) or math.isnan(n_sat_err + rate_err):
        raise InvalidParameterError(f"a fit of times to {t_max!r} s and values to "
                                    f"{float(y.max())!r} overflows float64")
    # a rate within its own error is not determined by the curve
    return SaturationFit(
        n_sat, n_sat_err, rate, rate_err, math.sqrt(ssr / t.size),
        converged and rate_err < rate, n_iter,
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

    @property
    def n_excluded(self) -> int:
        """Points whose fit did not converge, left out of the exponents."""
        return sum(not p.converged for p in self.points)


def _joint_exponents(
    points: list[SweepPoint], value_of, names: tuple[str, str]
) -> list[ExponentEstimate]:
    """Regress log(value) on [1, log n, log omega0], tolerating flat axes.

    A grid axis with fewer than two distinct values cannot identify its
    exponent; that estimate comes back NaN and the other axis is still
    fitted. Exact fits (as many points as columns) report zero errors.
    """
    m = len(points)
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
    for name, grid in (("density", density_grid), ("drive", omega0_grid)):
        if not all(0.0 < v < math.inf for v in grid):  # NaN fails too
            raise InvalidParameterError(f"{name} grid values must be positive and finite")
    time_grid = np.asarray(time_grid, dtype=float)

    points = []
    for n_peak in density_grid:
        spec = CloudSpec.from_peak_density(n_peak, sigma)
        for omega0 in omega0_grid:
            params = replace(params_base, omega0=omega0)
            ensemble = partition_superatoms(spec, params, model=model, n_min=n_min)
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
    return ScalingResult(tuple(points), exponents)
