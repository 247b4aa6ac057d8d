"""Acceptance suite: one test per headline capability, one PASS/FAIL line each.

Every test prints a single summary line straight to the terminal (bypassing
capture) before asserting, so a plain ``pytest tests/test_acceptance.py``
run shows the scorecard even when everything is green. The expensive
scaling sweeps run once in a session fixture and feed three tests.
"""

import time as walltime

import numpy as np
import pytest

from conftest import C6_AU, N_ATOMS_REF, SIGMA_REF, STRONG_DRIVE_HZ, WEAK_DRIVE_HZ

from blockadesim.analysis import fit_saturation, saturation_model, scaling_experiment
from blockadesim.cli import main
from blockadesim.cloud import partition_superatoms
from blockadesim.constants import HBAR, TWO_PI
from blockadesim.core import PhysicalParams, blockade_radius_simple
from blockadesim.exact import (
    AtomPositions,
    HamiltonianSpec,
    build_hamiltonian,
    evolve,
    full_basis,
    ground_state,
    restricted_basis,
    rydberg_number,
    w_state_fidelity,
)
from blockadesim.superatom import (
    ExcitationCurve,
    crossover_time,
    noninteracting_reference,
    simulate_cloud,
    superatom_population,
)

OMEGA = TWO_PI * 1e6


def _report(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"{name}: {detail}"


def _trajectory(positions: AtomPositions, omega: float, c6: float, time_grid):
    basis = full_basis(len(positions))
    h = build_hamiltonian(HamiltonianSpec(positions, omega, c6), basis)
    trajectory = evolve(h, ground_state(basis), time_grid)
    return rydberg_number(trajectory), trajectory


def _polygon(m: int, circumradius: float) -> AtomPositions:
    if m == 2:
        coords = np.array([[-circumradius, 0.0, 0.0], [circumradius, 0.0, 0.0]])
    else:
        ang = TWO_PI * np.arange(m) / m
        coords = np.stack(
            [circumradius * np.cos(ang), circumradius * np.sin(ang), np.zeros(m)],
            axis=1,
        )
    return AtomPositions(coords)


@pytest.fixture(scope="session")
def sweeps(c6, strong_params):
    """Both scaling sweeps over the reference density/drive grids, timed."""
    densities = np.geomspace(2.8e18, 8.2e19, 4)
    omegas = TWO_PI * np.geomspace(WEAK_DRIVE_HZ, STRONG_DRIVE_HZ, 4)
    time_grid = np.concatenate([[0.0], np.geomspace(1e-9, 1e-4, 159)])
    sigma = (SIGMA_REF, SIGMA_REF, SIGMA_REF)
    start = walltime.perf_counter()
    results = {
        model: scaling_experiment(
            sigma, densities, omegas, strong_params, time_grid,
            model=model, n_min=0.0,
        )
        for model in ("collective", "simple")
    }
    results["elapsed_s"] = walltime.perf_counter() - start
    return results


def test_01_two_level_exactness(capsys, c6):
    positions = AtomPositions(np.zeros((1, 3)))
    grid = np.linspace(0.0, 5.0 * TWO_PI / OMEGA, 501)
    start = walltime.perf_counter()
    values, _ = _trajectory(positions, OMEGA, c6, grid)
    elapsed = walltime.perf_counter() - start
    dev = float(np.max(np.abs(values - np.sin(OMEGA * grid / 2.0) ** 2)))
    ok = dev <= 1e-6 and elapsed < 1.0
    _report(capsys, 1, "two-level exactness", ok,
            f"max dev {dev:.2e} over 5 periods, {elapsed:.2f} s")


def test_02_collective_rabi_sqrt_n(capsys, c6):
    # every pair separation <= this diameter, so V >= 1e3 * hbar * omega0
    diameter = (c6 / (1e3 * HBAR * OMEGA)) ** (1.0 / 6.0)
    start = walltime.perf_counter()
    worst_dev, worst_peak, worst_fid = 0.0, 0.0, 1.0
    for m in range(2, 9):
        t_pi = np.pi / (np.sqrt(m) * OMEGA)
        # index 200 of this grid is the collective pi time itself
        grid = np.linspace(0.0, 1.2 * t_pi, 241)
        values, trajectory = _trajectory(_polygon(m, diameter / 2.0), OMEGA, c6, grid)
        peak_idx = int(np.argmax(values))
        worst_dev = max(worst_dev, abs(grid[peak_idx] - t_pi) / t_pi)
        worst_peak = max(worst_peak, float(values.max()))
        worst_fid = min(worst_fid, w_state_fidelity(trajectory)[200])
    elapsed = walltime.perf_counter() - start
    ok = worst_dev <= 0.02 and worst_peak <= 1.02 and worst_fid >= 0.99 and elapsed < 30.0
    _report(capsys, 2, "collective sqrt(N) law", ok,
            f"M=2..8: peak-time dev {worst_dev:.4f}, peak {worst_peak:.4f}, "
            f"W fidelity {worst_fid:.4f}, {elapsed:.1f} s")


def test_03_noninteracting_factorization(capsys):
    positions = AtomPositions(np.array([[0.0, 0, 0], [1e-6, 0, 0], [0, 2e-6, 0]]))
    grid = np.linspace(0.0, 3.0 * TWO_PI / OMEGA, 301)
    values, _ = _trajectory(positions, OMEGA, 0.0, grid)
    dev = float(np.max(np.abs(values - 3.0 * np.sin(OMEGA * grid / 2.0) ** 2)))
    ok = dev <= 1e-6
    _report(capsys, 3, "non-interacting factorization", ok, f"max dev {dev:.2e}")


def test_04_restricted_basis_validity(capsys, c6):
    # pairs inside this radius are blockaded by at least 100 * hbar * omega0
    r100 = (c6 / (100.0 * HBAR * OMEGA)) ** (1.0 / 6.0)
    rng = np.random.default_rng(7)
    positions = AtomPositions(rng.standard_normal((10, 3)) * 0.45 * r100)
    grid = np.linspace(0.0, TWO_PI / (np.sqrt(10.0) * OMEGA), 161)
    full_values, _ = _trajectory(positions, OMEGA, c6, grid)
    basis = restricted_basis(positions, r100)
    h = build_hamiltonian(HamiltonianSpec(positions, OMEGA, c6), basis)
    restricted_values = rydberg_number(evolve(h, ground_state(basis), grid))
    rel_dev = float(np.max(np.abs(full_values - restricted_values)) / full_values.max())
    ok = rel_dev <= 0.01
    _report(capsys, 4, "restricted-basis validity", ok,
            f"M=10, {basis.n_states}/1024 states, rel dev {rel_dev:.2e}")


def test_05_superatom_vs_exact(capsys, c6):
    rb = blockade_radius_simple(PhysicalParams(OMEGA, c6))
    rng = np.random.default_rng(1)
    direction = rng.standard_normal((6, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = 0.25 * rb * rng.random(6) ** (1.0 / 3.0)
    positions = AtomPositions(direction * radius[:, None])
    grid = np.linspace(0.0, np.pi / (np.sqrt(6.0) * OMEGA), 121)
    exact_values, _ = _trajectory(positions, OMEGA, c6, grid)
    model_values = superatom_population(6.0, OMEGA, grid)
    dev = float(np.max(np.abs(exact_values - model_values)))
    ok = dev <= 0.05
    _report(capsys, 5, "superatom vs exact (N=6)", ok,
            f"max abs dev {dev:.2e} up to first maximum")


def test_06_crossover_and_quadratic_rise(capsys, strong_params, reference_cloud):
    ensemble = partition_superatoms(
        reference_cloud, strong_params, model="collective", n_min=0.0
    )
    n_ground = ensemble.total_atoms_covered
    grid = np.concatenate([[0.0], np.geomspace(1e-10, 5e-7, 300)])
    curve = simulate_cloud(ensemble, strong_params, grid)
    reference = noninteracting_reference(n_ground, strong_params, grid)
    t_cross = crossover_time(curve, reference, threshold=0.1)
    n_max = float(ensemble.n_per.max())
    t_quad = 0.1 / (np.sqrt(n_max) * strong_params.omega0)
    quad_grid = np.geomspace(t_quad / 1000.0, t_quad, 40)
    quad = simulate_cloud(ensemble, strong_params, quad_grid)
    ratio = quad.values / (n_ground * (strong_params.omega0 * quad_grid / 2.0) ** 2)
    ok = (
        t_cross is not None
        and t_cross < 50e-9
        and float(ratio.min()) >= 0.99
        and float(ratio.max()) <= 1.01
    )
    _report(capsys, 6, "sub-50ns crossover, quadratic rise", ok,
            f"crossover {t_cross:.2e} s, quadratic ratio "
            f"[{ratio.min():.4f}, {ratio.max():.4f}]")


def test_07_scaling_exponents(capsys, sweeps):
    coll = {k: v.value for k, v in sweeps["collective"].exponents.items()}
    simp = {k: v.value for k, v in sweeps["simple"].exponents.items()}
    elapsed = sweeps["elapsed_s"]
    ok = (
        abs(coll["a"] - 0.49) <= 0.2
        and abs(coll["b"] - 1.1) <= 0.2
        and abs(coll["c"] - 0.07) <= 0.2
        and abs(coll["d"] - 0.38) <= 0.2
        and abs(simp["c"]) <= 0.1
        and abs(simp["d"] - 0.5) <= 0.1
        and sweeps["collective"].n_excluded == 0
        and sweeps["simple"].n_excluded == 0
        and elapsed < 300.0
    )
    _report(capsys, 7, "scaling exponents", ok,
            f"collective a={coll['a']:.3f} b={coll['b']:.3f} "
            f"c={coll['c']:.3f} d={coll['d']:.3f}; "
            f"simple c={simp['c']:.3f} d={simp['d']:.3f}; {elapsed:.0f} s")


# Closed forms of the superatom model itself: the collective model has
# n_per ~ n^0.8 omega^-0.4, the simple one a fixed cell per superatom. The
# tolerances are the measured grid-discretisation tolerances of the
# benchmark's EXPONENT_ORACLES (perfbench/checks.py): twice the largest
# deviation the cell grid produced over workload seeds 0-39. This oracle is
# much tighter than acceptance 07's window around the experiment.
EXPONENT_CLOSED_FORMS = {
    "collective": {"a": (0.6, 0.014), "b": (1.2, 0.031), "c": (0.2, 0.008), "d": (0.4, 0.018)},
    "simple": {"c": (0.0, 0.099), "d": (0.5, 0.14)},
}


@pytest.mark.parametrize("model", ["collective", "simple"])
def test_07_exponents_match_model_closed_forms(sweeps, model):
    exponents = sweeps[model].exponents
    for name, (closed_form, tol) in EXPONENT_CLOSED_FORMS[model].items():
        assert abs(exponents[name].value - closed_form) <= tol, (model, name)


def test_08_fit_robustness(capsys):
    truth_n_sat, truth_rate = 100.0, 5e7
    grid = np.linspace(0.0, 6e-5, 150)
    clean = saturation_model(grid, truth_n_sat, truth_rate)
    fit = fit_saturation(ExcitationCurve(grid, clean))
    clean_dev = max(
        abs(fit.n_sat / truth_n_sat - 1.0), abs(fit.rate / truth_rate - 1.0)
    )
    n_sat_values, rate_values, n_sat_hits, rate_hits = [], [], 0, 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        noisy = np.clip(clean * (1.0 + 0.05 * rng.standard_normal(clean.size)), 0.0, None)
        noisy_fit = fit_saturation(ExcitationCurve(grid, noisy))
        n_sat_values.append(noisy_fit.n_sat)
        rate_values.append(noisy_fit.rate)
        n_sat_hits += abs(noisy_fit.n_sat - truth_n_sat) <= 1.96 * noisy_fit.n_sat_err
        rate_hits += abs(noisy_fit.rate - truth_rate) <= 1.96 * noisy_fit.rate_err
    n_sat_bias = abs(np.mean(n_sat_values) / truth_n_sat - 1.0)
    rate_bias = abs(np.mean(rate_values) / truth_rate - 1.0)
    ok = (
        clean_dev <= 1e-6
        and n_sat_bias < 0.02
        and rate_bias < 0.02
        and n_sat_hits >= 90
        and rate_hits >= 90
    )
    _report(capsys, 8, "fit robustness", ok,
            f"noiseless {clean_dev:.1e}; bias {n_sat_bias:.4f}/{rate_bias:.4f}; "
            f"coverage {n_sat_hits}/100, {rate_hits}/100")


def test_09_mean_superatom_occupancy(capsys, sweeps):
    total_atoms = {
        p.n_peak: p.n_peak * (2.0 * np.pi) ** 1.5 * SIGMA_REF**3
        for p in sweeps["collective"].points
    }
    n_mean = [total_atoms[p.n_peak] / p.n_sat for p in sweeps["collective"].points]
    lo, hi = min(n_mean), max(n_mean)
    # target range [65, 2500]; the span must reach each end within x3
    ok = lo <= 65.0 * 3.0 and hi >= 2500.0 / 3.0
    _report(capsys, 9, "mean occupancy range", ok,
            f"N_mean spans [{lo:.0f}, {hi:.0f}]")


def test_10_manifest_determinism(capsys, tmp_path):
    base = (
        f"physical.c6_au = {C6_AU}\n"
        f"cloud.sigma_x_m = {SIGMA_REF}\ncloud.sigma_y_m = {SIGMA_REF}\n"
        f"cloud.sigma_z_m = {SIGMA_REF}\n"
        "partition.model = simple\npartition.n_min = 0.0\n"
        "partition.span_sigmas = 3.0\n"
    )
    configs = {
        "cloud": base + (
            f"physical.omega0_hz = {STRONG_DRIVE_HZ}\ncloud.n_atoms = {N_ATOMS_REF}\n"
            "time.stop_s = 2e-5\ntime.num = 60\n"
        ),
        "exact": base + (
            f"physical.omega0_hz = 1e6\ncloud.n_atoms = 1e6\n"
            "exact.n_atoms = 3\ntime.stop_s = 2e-6\ntime.num = 40\nrun.seed = 5\n"
        ),
        "scaling": base + (
            "sweep.densities_m3 = 2e19, 8e19\nsweep.omega0_hz = 1e5, 2e5\n"
            f"cloud.n_atoms = {N_ATOMS_REF}\n"
            "time.stop_s = 2e-5\ntime.start_s = 1e-8\ntime.num = 40\n"
            "time.spacing = log\n"
        ),
    }
    outputs = {
        "cloud": ("curve.csv", "ensemble.csv"),
        "exact": ("trajectory.csv",),
        "scaling": ("sweep.csv", "exponents.csv"),
    }
    identical = True
    for command, text in configs.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(text)
        first, second = tmp_path / f"{command}_a", tmp_path / f"{command}_b"
        assert main([command, "--config", str(cfg), "--out", str(first)]) == 0
        assert main([command, "--config", str(first / "manifest.txt"),
                     "--out", str(second)]) == 0
        for name in outputs[command]:
            identical &= (first / name).read_bytes() == (second / name).read_bytes()
    _report(capsys, 10, "manifest determinism", identical,
            "cloud/exact/scaling reruns byte-identical" if identical
            else "rerun outputs differ")
