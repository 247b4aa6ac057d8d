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
FIT_REL_TOL = 1e-13  # final root bracket width over its upper end
# scanned rates x times whose decay factors are held at once (64 KiB); a
# block holds at least one rate
_SCAN_BLOCK = 8192
# root steps in a row that may each fail to halve the bracket before a
# midpoint step: at most 4 times the steps of a bisection
_SLOW_STEPS = 3


def _rise(minus_kt: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The saturation law's shape 1 - exp(-k t), from -k t, into ``out``;
    expm1 for stability. Every evaluation of the law goes through here."""
    out = np.expm1(minus_kt, out=out)
    return np.negative(out, out=out)


def saturation_model(t, n_sat: float, rate: float):
    """Saturation law n_sat * (1 - exp(-rate*t/n_sat))."""
    minus_kt = np.asarray(-rate * np.asarray(t, dtype=float) / n_sat)
    return n_sat * _rise(minus_kt, out=minus_kt)


def _scan(t: np.ndarray, y: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Residual sum of squares at each decay rate k, with n_sat solved
    exactly at each; f = 1 - exp(-k t) is built for a block of rates at once."""
    ssr = np.empty(rates.size)
    rows = max(1, _SCAN_BLOCK // t.size)
    for lo in range(0, rates.size, rows):
        f = np.multiply.outer(-rates[lo:lo + rows], t)
        _rise(f, out=f)
        n_sat = (f @ y) / np.einsum("ij,ij->i", f, f)
        f *= n_sat[:, None]
        np.subtract(y, f, out=f)  # the residuals
        ssr[lo:lo + rows] = np.einsum("ij,ij->i", f, f)
    return ssr


def _project(t: np.ndarray, y: np.ndarray, k: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Least-squares n_sat at decay rate k, the residual y - n_sat * f with
    f = 1 - exp(-k t), and exp(-k t)."""
    decay = np.multiply(t, -k)
    f = _rise(decay)
    np.exp(decay, out=decay)
    n_sat = float(f @ y) / float(f @ f)
    f *= n_sat
    return n_sat, np.subtract(y, f, out=f), decay


def _slope(t: np.ndarray, y: np.ndarray, k: float) -> float:
    """(t exp(-k t)).r at decay rate k, r the residual: dS/dk = -2 n_sat
    times it, S the residual sum of squares, so it is > 0 below the best k."""
    _, resid, decay = _project(t, y, k)
    decay *= t
    return float(decay @ resid)


def _root(t: np.ndarray, y: np.ndarray, lo: float, hi: float) -> tuple[float, int]:
    """The decay rate in [lo, hi] where dS/dk changes sign, to FIT_REL_TOL,
    and the root steps taken. Illinois regula falsi: the secant's root
    between the bracket's ends, whose slope value is halved where the other
    end moved twice in a row; the midpoint where the ends do not differ in
    sign, or after _SLOW_STEPS steps in a row that each failed to halve
    the bracket."""
    g_lo, g_hi = _slope(t, y, lo), _slope(t, y, hi)
    steps, kept, slow = 2, 0, 0  # kept: the end the last step kept, -1 lo or +1 hi
    while hi - lo > FIT_REL_TOL * hi:
        width = hi - lo
        if g_lo > 0.0 >= g_hi and slow < _SLOW_STEPS:
            # kept a quarter tolerance inside: where the root lies within
            # rounding of one end, the next step closes the bracket
            margin = 0.25 * FIT_REL_TOL * hi
            k = min(max(lo + width * (g_lo / (g_lo - g_hi)), lo + margin), hi - margin)
        else:
            k = 0.5 * (lo + hi)
        g = _slope(t, y, k)
        steps += 1
        if g > 0.0:  # dS/dk < 0 as n_sat > 0
            lo, g_lo = k, g
            if kept == 1:
                g_hi *= 0.5
            kept = 1
        else:
            hi, g_hi = k, g
            if kept == -1:
                g_lo *= 0.5
            kept = -1
        slow = slow + 1 if hi - lo > 0.5 * width else 0
    return 0.5 * (lo + hi), steps


@dataclass(frozen=True)
class SaturationFit:
    """Result of a saturation-law fit.

    ``n_sat`` and ``rate`` are the plateau and initial slope; their
    standard errors come from the linearized covariance sigma^2 (J^T J)^-1
    at the optimum. ``converged`` is False when the best scanned decay rate
    lies at an end of the scan or ties its right neighbour, or when
    ``rate_err`` is not below ``rate``: the curve then resolves its rise or
    its plateau but not both, or neither (flat noise), and the best rate
    found is still reported. Both errors are inf where J^T J is singular,
    or so near it that its computed inverse has a negative variance.
    ``n_iterations`` counts root steps, each one evaluation of the sign of
    dS/dk.
    """

    n_sat: float
    n_sat_err: float
    rate: float
    rate_err: float
    residual_rms: float
    converged: bool
    n_iterations: int


# inv of a near-singular J^T J may overflow; the result is checked below
@np.errstate(all="ignore")
def fit_saturation(curve: ExcitationCurve) -> SaturationFit:
    """Least-squares fit of the saturation law by variable projection.

    The fit runs on t / t_max and y / max(y), so no sum in it under- or
    overflows whatever the curve's units; n_sat, R, their errors and the
    rms are scaled back. With f = 1 - exp(-k t), n_sat(k) = (f.y)/(f.f)
    exactly. The residual sum of squares S(k) is scanned at
    FIT_SCAN_PER_DECADE log-spaced rates per decade from 1e-8/t_max (a
    straight line) to 1e2/t_1, t_1 the first positive time (saturated by
    the first sample). Between the best scanned rate's neighbours the root
    of dS/dk = -2 n_sat (t exp(-k t)).r is found by a safeguarded regula
    falsi (see _root); then R = n_sat * k. InvalidParameterError refuses a
    fit whose results overflow float64: a NaN, an inf n_sat, R or rms, or
    an error bar that is finite only before it is scaled back; and one whose
    nonzero result scales back to 0 or a subnormal float.
    """
    t = curve.times
    y = curve.values
    if t.size < 4:
        raise InvalidParameterError("saturation fit needs at least 4 points")
    # f(0) = 0, so a value at t = 0 carries no information
    first = int(t[0] == 0.0)
    if not np.any(y[first:] > 0.0):
        raise InvalidParameterError("curve has no positive value after t = 0 to fit")

    t_1, t_max, y_max = float(t[first]), float(t[-1]), float(y.max())
    if not 1e2 / t_1 < math.inf:  # so every scanned rate stays finite in 1/s
        raise InvalidParameterError(f"first positive time {t_1!r} is too small to fit")
    t = t / t_max
    y = y / y_max
    # t_1 / t_max underflows to 0 where the times span over 308 decades
    k_lo, k_hi = 1e-8, 1e2 / float(t[first]) if t[first] > 0.0 else math.inf
    if not k_hi < math.inf:  # so no scanned k * t overflows
        raise InvalidParameterError(f"times {t_1!r} to {t_max!r} s span too many decades to fit")
    n_scan = 1 + math.ceil(FIT_SCAN_PER_DECADE * (math.log10(k_hi) - math.log10(k_lo)))
    rates = np.geomspace(k_lo, k_hi, n_scan)
    scan_ssr = _scan(t, y, rates).tolist()
    best = int(np.argmin(scan_ssr))
    # the first minimum is already strictly below its left neighbour
    converged = 0 < best < n_scan - 1 and scan_ssr[best] < scan_ssr[best + 1]

    k, n_iter = _root(
        t, y, float(rates[max(best - 1, 0)]), float(rates[min(best + 1, n_scan - 1)])
    )
    n_sat, resid, decay = _project(t, y, k)
    ssr = float(resid @ resid)
    # the Jacobian's columns d/dn_sat = 1 - exp(-x) - x exp(-x) and
    # d/dR = t exp(-x) at x = k t, built in the residual's and decay's buffers
    x = np.multiply(t, k)
    jac_n = _rise(np.negative(x, out=resid), out=resid)
    jac_n -= np.multiply(x, decay, out=x)
    jac_r = np.multiply(t, decay, out=decay)
    jtj = np.array([[jac_n @ jac_n, jac_n @ jac_r], [jac_n @ jac_r, jac_r @ jac_r]])
    try:
        variances = ssr / (t.size - 2) * np.diag(np.linalg.inv(jtj))
    except np.linalg.LinAlgError:  # singular: the curve determines neither
        variances = np.array([np.inf, np.inf])
    if np.any(variances < 0.0):  # so near singular that rounding made it indefinite
        variances = np.array([np.inf, np.inf])
    scaled_errors = np.sqrt(variances).tolist()
    in_units = (n_sat, n_sat * k, math.sqrt(ssr / t.size), *scaled_errors)
    n_sat_err, rate_err = scaled_errors[0] * y_max, scaled_errors[1] * y_max / t_max
    n_sat *= y_max
    rate = n_sat * (k / t_max)
    residual_rms = math.sqrt(ssr / t.size) * y_max
    # an error may be inf (undetermined) if it was before scaling back, never NaN
    if not all(map(math.isfinite, (n_sat, rate, residual_rms))) or any(
        math.isnan(err) or (math.isinf(err) and math.isfinite(scaled))
        for err, scaled in zip((n_sat_err, rate_err), scaled_errors)
    ):
        raise InvalidParameterError(f"a fit of times to {t_max!r} s and values to "
                                    f"{y_max!r} overflows float64")
    # the mirror: a nonzero result that scales back to 0 or a subnormal
    if any(abs(value) < np.finfo(float).smallest_normal and unit != 0.0 for value, unit in zip(
        (n_sat, rate, residual_rms, n_sat_err, rate_err), in_units
    )):
        raise InvalidParameterError(f"a fit of times to {t_max!r} s and values to "
                                    f"{y_max!r} underflows float64")
    # a rate within its own error is not determined by the curve
    return SaturationFit(
        n_sat, n_sat_err, rate, rate_err, residual_rms, converged and rate_err < rate, n_iter,
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
    """The sweep's points and exponents; ``unidentified`` names why each
    NaN exponent could not be identified."""

    points: tuple[SweepPoint, ...]
    exponents: dict[str, ExponentEstimate]
    unidentified: dict[str, str]

    @property
    def n_excluded(self) -> int:
        """Points whose fit did not converge, left out of the exponents."""
        return sum(not p.converged for p in self.points)


def _joint_exponents(
    points: list[SweepPoint], value_of, names: tuple[str, str]
) -> tuple[list[ExponentEstimate], dict[str, str]]:
    """Regress log(value) on [1, log n, log omega0], tolerating flat axes.

    An exponent that cannot be identified comes back NaN, with its reason
    in the returned dict: its grid axis has fewer than two distinct values
    (the other axis is still fitted), or there are fewer points than
    unknowns. Exact fits (as many points as columns) report zero errors.
    """
    m = len(points)
    ln_n = np.log([p.n_peak for p in points])
    ln_o = np.log([p.omega0 for p in points])
    ln_y = np.log([value_of(p) for p in points])
    axes = [ln_n, ln_o]
    used = [np.unique(col).size >= 2 for col in axes]
    columns = [np.ones(m)] + [col for col, u in zip(axes, used) if u]
    design = np.column_stack(columns)
    reasons = {
        name: f"fewer than two distinct grid values among the {m} converged fits"
        for name, u in zip(names, used) if not u
    }
    if m < design.shape[1]:
        for name in names:
            reasons.setdefault(
                name, f"fewer converged fits ({m}) than unknowns ({design.shape[1]})"
            )
        return [ExponentEstimate(name, math.nan, math.nan, m) for name in names], reasons
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
    return estimates, reasons


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
    rate_est, rate_why = _joint_exponents(good, lambda p: p.rate, ("a", "b"))
    nsat_est, nsat_why = _joint_exponents(good, lambda p: p.n_sat, ("c", "d"))
    exponents = {e.name: e for e in rate_est + nsat_est}
    return ScalingResult(tuple(points), exponents, rate_why | nsat_why)
