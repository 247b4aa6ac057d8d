"""Command-line entry point.

Four workflows:

* ``exact``: exact quantum trajectory of a few sampled or listed atoms
* ``cloud``: superatom partition of a Gaussian cloud plus its curve
* ``scaling``: (density, drive) sweep with saturation fits and exponents
* ``fit``: saturation fit of an existing curve CSV

Each run writes its CSVs plus a ``manifest.txt`` into the output
directory (--out, else $BLOCKADESIM_OUT, else the working directory).
The manifest records digests of every file and the fully resolved
configuration; feeding it back through --config reruns the workflow and,
for the deterministic paths, reproduces the CSVs byte for byte.

Exit codes: 0 success, 2 bad input or configuration, 3 a fit failed to
converge, 4 a step would exceed the memory limit (refused before it
allocates) or a basis has more than 63 atoms.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

from . import __version__
from .cloud import partition_superatoms, sample_positions
from .config import (
    RunConfig,
    config_items,
    load_config,
    parse_value,
    resolve_cloud,
    resolve_params,
    resolve_time_grid,
)
from .core import angular_from_hz, blockade_radius_simple
from .errors import BlockadeSimError, ConfigError, SizeCapError
from .exact import (
    AtomPositions,
    HamiltonianSpec,
    build_hamiltonian,
    evolve,
    full_basis,
    ground_state,
    plan_propagation,
    restricted_basis,
    rydberg_number,
    w_state_fidelity,
)
from .analysis import fit_saturation, scaling_experiment
from .runio import (
    format_float,
    read_curve_csv,
    sha256_file,
    write_curve_csv,
    write_ensemble_csv,
    write_exponents_csv,
    write_fit_csv,
    write_manifest,
    write_sweep_csv,
    write_trajectory_csv,
)
from .superatom import simulate_cloud

OUT_ENV_VAR = "BLOCKADESIM_OUT"

# settings that the config subcommands can override from the command line
_OVERRIDES = [f for f in fields(RunConfig) if f.metadata["flag"]]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockadesim",
        description="Simulate and analyze collective excitation of blockaded atom clouds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("exact", "exact few-atom quantum trajectory"),
        ("cloud", "partition a cloud and simulate its curve"),
        ("scaling", "sweep density and drive, fit exponents"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="key = value run configuration")
        for setting in _OVERRIDES:
            choices = setting.metadata["choices"]
            p.add_argument(
                setting.metadata["flag"],
                dest=setting.name,
                metavar="{" + ",".join(choices) + "}" if choices else None,
                help=f"override {setting.metadata['key']}",
            )
    fit = sub.add_parser("fit", help="fit the saturation law to a curve CSV")
    fit.add_argument("curve", help="CSV with header t_s,n_rydberg")
    for p in sub.choices.values():
        p.add_argument(
            "--out",
            default=None,
            help=f"output directory (default ${OUT_ENV_VAR} or the working directory)",
        )
    return parser


def _output_dir(args: argparse.Namespace) -> str:
    out = args.out or os.environ.get(OUT_ENV_VAR) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _load_config_with_overrides(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config)
    for setting in _OVERRIDES:
        text = getattr(args, setting.name)
        if text is not None:
            setattr(cfg, setting.name, parse_value(setting, text))
    return cfg


def _finish_manifest(out, command, cfg, inputs, written) -> None:
    outputs = [
        (name, filename, sha256_file(os.path.join(out, filename)))
        for name, filename in written
    ]
    items = config_items(cfg) if cfg is not None else []
    write_manifest(
        os.path.join(out, "manifest.txt"),
        command=command,
        version=__version__,
        config_items=items,
        inputs=inputs,
        outputs=outputs,
    )


def _cmd_exact(args: argparse.Namespace) -> int:
    cfg = _load_config_with_overrides(args)
    out = _output_dir(args)
    params = resolve_params(cfg)
    if (cfg.exact_n_atoms is None) == (cfg.positions_path is None):
        raise ConfigError("give exactly one of exact.n_atoms or exact.positions_path")
    inputs = []
    if cfg.positions_path is not None:
        positions = AtomPositions.from_text(cfg.positions_path)
        inputs.append(("positions", cfg.positions_path, sha256_file(cfg.positions_path)))
    else:
        cloud = resolve_cloud(cfg)
        positions = sample_positions(cloud, cfg.exact_n_atoms, cfg.seed)
    if cfg.basis == "full":
        basis = full_basis(len(positions))
    else:
        radius = cfg.restriction_radius_m
        if radius is None:
            radius = blockade_radius_simple(params)
        basis = restricted_basis(positions, radius)
    spec = HamiltonianSpec(
        positions, params.omega0, params.c6, angular_from_hz(cfg.detuning_hz)
    )
    hamiltonian = build_hamiltonian(spec, basis)
    grid = resolve_time_grid(cfg)
    trajectory = evolve(hamiltonian, ground_state(basis), grid)
    write_trajectory_csv(
        os.path.join(out, "trajectory.csv"),
        grid, rydberg_number(trajectory), w_state_fidelity(trajectory),
    )
    _finish_manifest(out, "exact", cfg, inputs, [("trajectory", "trajectory.csv")])
    plan = plan_propagation(hamiltonian, grid)
    print(
        f"exact: {len(positions)} atoms, {basis.n_states} basis states "
        f"({basis.kind}), {grid.size} times, {plan.route} propagator "
        f"({int(plan.substeps.sum())} Taylor substeps) -> {out}/trajectory.csv"
    )
    return 0


def _cmd_cloud(args: argparse.Namespace) -> int:
    cfg = _load_config_with_overrides(args)
    out = _output_dir(args)
    params = resolve_params(cfg)
    cloud = resolve_cloud(cfg)
    grid = resolve_time_grid(cfg)
    ensemble = partition_superatoms(
        cloud,
        params,
        model=cfg.model,
        n_min=cfg.n_min,
        span_sigmas=cfg.span_sigmas,
    )
    curve = simulate_cloud(ensemble, params, grid)
    write_ensemble_csv(os.path.join(out, "ensemble.csv"), ensemble)
    write_curve_csv(os.path.join(out, "curve.csv"), curve)
    _finish_manifest(
        out, "cloud", cfg, [],
        [("ensemble", "ensemble.csv"), ("curve", "curve.csv")],
    )
    print(
        f"cloud: {len(ensemble)} superatom entries covering "
        f"{format_float(ensemble.total_atoms_covered)} of "
        f"{format_float(cloud.n_atoms)} atoms ({cfg.model}) -> {out}/curve.csv"
    )
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    cfg = _load_config_with_overrides(args)
    out = _output_dir(args)
    if not cfg.sweep_densities_m3 or not cfg.sweep_omega0_hz:
        raise ConfigError("scaling needs sweep.densities_m3 and sweep.omega0_hz")
    sigma = (cfg.sigma_x_m, cfg.sigma_y_m, cfg.sigma_z_m)
    if any(s is None for s in sigma):
        raise ConfigError("scaling needs cloud.sigma_x_m, sigma_y_m and sigma_z_m")
    if cfg.omega0_hz is None and cfg.omega1_hz is None:
        cfg.omega0_hz = cfg.sweep_omega0_hz[0]
    params = resolve_params(cfg)
    grid = resolve_time_grid(cfg)
    omega_grid = [angular_from_hz(f) for f in cfg.sweep_omega0_hz]
    result = scaling_experiment(
        sigma,
        cfg.sweep_densities_m3,
        omega_grid,
        params,
        grid,
        model=cfg.model,
        n_min=cfg.n_min,
        span_sigmas=cfg.span_sigmas,
    )
    write_sweep_csv(os.path.join(out, "sweep.csv"), result.points)
    write_exponents_csv(os.path.join(out, "exponents.csv"), result.exponents)
    _finish_manifest(
        out, "scaling", cfg, [],
        [("sweep", "sweep.csv"), ("exponents", "exponents.csv")],
    )
    for name in ("a", "b", "c", "d"):
        e = result.exponents[name]
        if math.isnan(e.value):
            print(f"warning: exponent {name} not identifiable (single-valued grid axis)")
        else:
            print(f"{name} = {e.value:+.4f} +/- {e.std_error:.4f} (n={e.n_points})")
    if result.n_excluded:
        print(
            f"warning: {result.n_excluded} of {len(result.points)} fits did not "
            "converge and were excluded",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    out = _output_dir(args)
    curve = read_curve_csv(args.curve)
    fit = fit_saturation(curve)
    write_fit_csv(os.path.join(out, "fit.csv"), fit)
    _finish_manifest(
        out, "fit", None,
        [("curve", args.curve, sha256_file(args.curve))],
        [("fit", "fit.csv")],
    )
    print(f"n_sat = {format_float(fit.n_sat)} +/- {format_float(fit.n_sat_err)}")
    print(f"R     = {format_float(fit.rate)} +/- {format_float(fit.rate_err)} 1/s")
    print(
        f"residual_rms = {format_float(fit.residual_rms)}, "
        f"converged = {fit.converged} after {fit.n_iterations} iterations"
    )
    if not fit.converged:
        print("warning: fit did not converge; values are the best iterate", file=sys.stderr)
        return 3
    return 0


_COMMANDS = {
    "exact": _cmd_exact,
    "cloud": _cmd_cloud,
    "scaling": _cmd_scaling,
    "fit": _cmd_fit,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except BlockadeSimError as exc:  # bad input or configuration
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
