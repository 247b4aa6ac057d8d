"""Output checks, one per CLI command, returning a list of problems.

Every check is a tolerance, never a digest, so a correct change to the
program that reorders a sum or swaps a propagator still passes. The
checks hold for any workload seed; the stored exact references apply
only at the default seed.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

# Curve vs the direct sin^2 sum: the program computes (W - sum w cos)/2,
# whose cancellation leaves an absolute error of order 1e-16 * W.
CURVE_ATOL_PER_WEIGHT = 1e-9
CURVE_RTOL = 1e-9
ENSEMBLE_CHUNK_ROWS = 50_000
SIN2_CHUNK = 4096

# Closed-form exponents of the superatom model (n_per ~ n^0.8 omega^-0.4
# collective; one superatom per fixed cell simple) and allowed deviation.
# Each tolerance is twice the largest deviation that the sweep grid's cell
# discretisation produced over seeds 0-39 (collective 0.0068, 0.0152,
# 0.0038, 0.0088; simple c 0.049, d 0.070). The simple model's a and b
# have no closed form the saturation fit reproduces, so they are not checked.
EXPONENT_ORACLES = {
    "collective": {"a": (0.6, 0.014), "b": (1.2, 0.031), "c": (0.2, 0.008), "d": (0.4, 0.018)},
    "simple": {"c": (0.0, 0.099), "d": (0.5, 0.14)},
}

# Exact trajectories: bounds slack and agreement with stored references.
BOUND_SLACK = 1e-9
REFERENCE_ATOL = 1e-6


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def _numeric(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def direct_curve(ensemble_csv: str, omega0: float, times: np.ndarray) -> tuple[np.ndarray, float]:
    """sum_k weight_k sin^2(sqrt(n_per_k) omega0 t / 2), streamed from the CSV."""
    total = np.zeros_like(times)
    weight_sum = 0.0
    with open(ensemble_csv, "r", encoding="utf-8") as fh:
        fh.readline()
        while lines := list(itertools.islice(fh, ENSEMBLE_CHUNK_ROWS)):
            block = np.loadtxt(lines, delimiter=",", ndmin=2)
            n_per, weight = block[:, 3], block[:, 4]
            weight_sum += float(weight.sum())
            for lo in range(0, n_per.size, SIN2_CHUNK):
                phase = np.outer(np.sqrt(n_per[lo:lo + SIN2_CHUNK]) * omega0 / 2.0, times)
                total += weight[lo:lo + SIN2_CHUNK] @ np.sin(phase) ** 2
    return total, weight_sum


def check_curve(curve_csv: str, ensemble_csv: str, omega0_hz: float) -> list[str]:
    curve = _numeric(curve_csv)
    times, values = curve[:, 0], curve[:, 1]
    expected, weight_sum = direct_curve(ensemble_csv, 2.0 * math.pi * omega0_hz, times)
    limit = CURVE_ATOL_PER_WEIGHT * weight_sum + CURVE_RTOL * np.abs(expected)
    excess = np.abs(values - expected) - limit
    if not np.all(np.isfinite(values)) or np.any(excess > 0.0):
        k = int(np.argmax(excess))
        return [f"{curve_csv}: n_rydberg {values[k]!r} at t={times[k]!r} differs from "
                f"the direct sin^2 sum {expected[k]!r}"]
    return []


def check_cloud(out: str, expect: dict) -> list[str]:
    return check_curve(os.path.join(out, "curve.csv"), os.path.join(out, "ensemble.csv"),
                       expect["omega0_hz"])


def check_fit(out: str, expect: dict) -> list[str]:
    header, rows = _read_csv(os.path.join(out, "fit.csv"))
    fit = dict(zip(header, rows[0]))
    problems = []
    if fit.get("converged") != "true":
        problems.append(f"{out}/fit.csv: fit did not converge")
    for key in ("n_sat", "R_per_s"):
        value = float(fit.get(key, "nan"))
        if not (math.isfinite(value) and value > 0.0):
            problems.append(f"{out}/fit.csv: {key} = {value!r} is not positive and finite")
    return problems


def check_scaling(out: str, expect: dict) -> list[str]:
    problems = []
    header, rows = _read_csv(os.path.join(out, "sweep.csv"))
    status = [dict(zip(header, row)).get("converged") for row in rows]
    if len(rows) != expect["points"] or any(s != "true" for s in status):
        problems.append(f"{out}/sweep.csv: {status.count('true')} of {expect['points']} "
                        "points converged")
    header, rows = _read_csv(os.path.join(out, "exponents.csv"))
    exponents = {row[0]: float(row[1]) for row in rows}
    for name, (oracle, tol) in EXPONENT_ORACLES[expect["model"]].items():
        value = exponents.get(name, math.nan)
        if not abs(value - oracle) <= tol:
            problems.append(f"{out}/exponents.csv: {name} = {value!r} is not within "
                            f"{tol} of the closed form {oracle}")
    return problems


def check_trajectory(path: str, n_atoms: int, reference: str | None = None) -> list[str]:
    data = _numeric(path)
    t, n, w = data[:, 0], data[:, 1], data[:, 2]
    problems = []
    if not np.all(np.isfinite(data)):
        problems.append(f"{path}: non-finite values")
    if not (t[0] == 0.0 and abs(n[0]) <= BOUND_SLACK and abs(w[0]) <= BOUND_SLACK):
        problems.append(f"{path}: does not start at (n, w) = (0, 0) at t = 0")
    if np.any(n < -BOUND_SLACK) or np.any(n > n_atoms + BOUND_SLACK):
        problems.append(f"{path}: n_rydberg leaves [0, {n_atoms}]")
    if np.any(w < -BOUND_SLACK) or np.any(w > 1.0 + BOUND_SLACK):
        problems.append(f"{path}: w_fidelity leaves [0, 1]")
    if reference is not None:
        ref = _numeric(reference)
        if ref.shape != data.shape or not np.allclose(t, ref[:, 0], rtol=1e-12, atol=0.0):
            problems.append(f"{path}: time grid differs from {reference}")
        elif np.max(np.abs(data[:, 1:] - ref[:, 1:])) > REFERENCE_ATOL:
            dev = float(np.max(np.abs(data[:, 1:] - ref[:, 1:])))
            problems.append(f"{path}: deviates from {reference} by {dev:.3g}")
    return problems


def check_exact(out: str, expect: dict) -> list[str]:
    return check_trajectory(os.path.join(out, "trajectory.csv"), expect["n_atoms"],
                            expect.get("reference"))


CHECKS = {
    "cloud": check_cloud,
    "fit": check_fit,
    "scaling": check_scaling,
    "exact": check_exact,
}
