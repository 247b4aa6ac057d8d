"""Command-line entry point.

Four workflows:

* ``exact``: exact quantum trajectory of the few atoms a positions file lists
* ``cloud``: superatom partition of a Gaussian cloud plus its curve
* ``scaling``: (density, drive) sweep with saturation fits and exponents
* ``fit``: saturation fit of an existing curve CSV

Each command only computes and returns a Run. Once it has returned,
_finish creates the output directory (--out, else the working directory)
and writes the CSVs plus a ``manifest.txt`` into it, so a run that exits
2 or 4 leaves no directory behind. The manifest records digests of every
file and the fully resolved configuration; feeding it back through
--config reruns the workflow and, for the deterministic paths, reproduces
the CSVs byte for byte. A manifest of another command, or one whose input
file has changed digest, exits 2.

Exit codes: 0 success, 2 bad input or configuration or an output that
cannot be written, 3 a fit did not converge (the curve resolves its rise
or its plateau, not both), 4 a step would exceed the memory limit
(refused before it allocates) or a basis has more than 63 atoms.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

from . import __version__
from .cloud import partition_superatoms
from .config import (
    config_items,
    load_config,
    resolve_cloud,
    resolve_params,
    resolve_sigma,
    resolve_time_grid,
)
from .core import angular_from_hz, blockade_radius_simple
from .errors import BlockadeSimError, ConfigError, SizeCapError
from .exact import (
    AtomPositions,
    build_hamiltonian,
    evolve,
    full_basis,
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
    fit = sub.add_parser("fit", help="fit the saturation law to a curve CSV")
    fit.add_argument("curve", help="CSV with header t_s,n_rydberg")
    for p in sub.choices.values():
        p.add_argument("--out", default=".", help="output directory (default: working directory)")
    return parser


class Run(NamedTuple):
    """What one command computed; _finish writes and reports it."""

    config: list  # (dotted key, value) items for the manifest
    inputs: list  # (name, path, sha256), digested when read
    outputs: list  # (manifest name, file name, write(path))
    stdout: list[str]
    stderr: tuple[str, ...] = ()  # warnings: a fit did not converge, exit 3


def _output_dir(out: str) -> list[str]:
    """Make ``out`` and its missing parents; those this call made, deepest first."""
    made, path = [], os.path.abspath(out)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out}: {exc.strerror or exc}") from exc
    return made


def _finish(command: str, out: str, run: Run) -> int:
    """Create ``out`` once the command has computed, write and digest each
    output, write the manifest and print the summary; 3 if it warned.
    ConfigError naming the file that an OSError left unwritten, after
    removing the outputs already written and the directories this run made."""
    made = _output_dir(out)
    outputs, written = [], []
    try:
        for name, filename, write in run.outputs:
            path = os.path.join(out, filename)
            write(path)
            written.append(path)
            outputs.append((name, filename, sha256_file(path)))
        path = os.path.join(out, "manifest.txt")
        write_manifest(
            path, command=command, version=__version__,
            config_items=run.config, inputs=run.inputs, outputs=outputs,
        )
    except OSError as exc:
        for done in written:
            os.unlink(done)
        for directory in made:
            os.rmdir(directory)
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    for line in run.stdout:
        print(line)
    for line in run.stderr:
        print(line, file=sys.stderr)
    return 3 if run.stderr else 0


def _load_config(args: argparse.Namespace) -> tuple:
    """The --config settings and input digests; ConfigError for another command's manifest."""
    cfg, recorded, command = load_config(args.config)
    if command not in (None, args.command):
        raise ConfigError(f"{args.config}: a {command} manifest cannot configure {args.command}")
    return cfg, recorded


def _input(name: str, path: str, recorded: dict[str, str]) -> tuple[str, str, str]:
    """(name, path, sha256) of an input just read; ConfigError if the
    --config manifest records another digest for it."""
    digest = sha256_file(path)
    if recorded.get(name, digest) != digest:
        raise ConfigError(
            f"{path}: sha256 {digest} differs from {recorded[name]} recorded in the manifest"
        )
    return name, path, digest


def _cmd_exact(args: argparse.Namespace) -> Run:
    cfg, recorded = _load_config(args)
    params = resolve_params(cfg)
    grid = resolve_time_grid(cfg)
    if cfg.positions_path is None:
        raise ConfigError("exact needs exact.positions_path")
    # recorded absolute, so the manifest replays from any directory
    cfg.positions_path = os.path.abspath(cfg.positions_path)
    positions = AtomPositions.from_text(cfg.positions_path)
    inputs = [_input("positions", cfg.positions_path, recorded)]
    if cfg.basis == "full":
        basis = full_basis(len(positions))
    else:
        radius = cfg.restriction_radius_m
        if radius is None:
            radius = blockade_radius_simple(params)
        basis = restricted_basis(positions, radius)
    hamiltonian = build_hamiltonian(positions, basis, params.omega0, params.c6)
    trajectory = evolve(hamiltonian, time_grid=grid)
    n_rydberg, fidelity = rydberg_number(trajectory), w_state_fidelity(trajectory)
    plan = trajectory.plan
    terms = f" ({plan.terms} terms)" if plan.route == "chebyshev" else ""
    return Run(
        config_items(cfg),
        inputs,
        [("trajectory", "trajectory.csv",
          lambda path: write_trajectory_csv(path, grid, n_rydberg, fidelity))],
        [f"exact: {len(positions)} atoms, {basis.n_states} basis states "
         f"({basis.kind}), {hamiltonian.matrix.nnz} nonzeros, {grid.size} times, "
         f"{plan.route} propagator{terms} "
         f"-> {args.out}/trajectory.csv"],
    )


def _cmd_cloud(args: argparse.Namespace) -> Run:
    cfg, _ = _load_config(args)
    params = resolve_params(cfg)
    cloud = resolve_cloud(cfg, "cloud")
    grid = resolve_time_grid(cfg)
    ensemble = partition_superatoms(cloud, params, model=cfg.model, n_min=cfg.n_min)
    curve = simulate_cloud(ensemble, params, grid)
    return Run(
        config_items(cfg),
        [],
        [("ensemble", "ensemble.csv", lambda path: write_ensemble_csv(path, ensemble)),
         ("curve", "curve.csv", lambda path: write_curve_csv(path, curve))],
        [f"cloud: {len(ensemble)} superatom entries (one octant, mirrored), "
         f"{curve.metadata['n_distinct']} distinct sizes, covering "
         f"{format_float(ensemble.total_atoms_covered)} of "
         f"{format_float(cloud.n_atoms)} atoms ({cfg.model}), "
         f"{100.0 * ensemble.sub_atom_share:.1f} % of the superatom weight at n_per < 1 "
         f"-> {args.out}/curve.csv"],
    )


def _cmd_scaling(args: argparse.Namespace) -> Run:
    cfg, _ = _load_config(args)
    if not cfg.sweep_densities_m3 or not cfg.sweep_omega0_hz:
        raise ConfigError("scaling needs sweep.densities_m3 and sweep.omega0_hz")
    sigma = resolve_sigma(cfg, "scaling")
    if cfg.omega0_hz is None:
        cfg.omega0_hz = cfg.sweep_omega0_hz[0]
    params = resolve_params(cfg)
    grid = resolve_time_grid(cfg)
    omega_grid = [angular_from_hz(f) for f in cfg.sweep_omega0_hz]
    result = scaling_experiment(
        sigma, cfg.sweep_densities_m3, omega_grid, params, grid,
        model=cfg.model, n_min=cfg.n_min,
    )
    lines = []
    for e in result.exponents.values():
        if e.name in result.unidentified:
            lines.append(f"warning: exponent {e.name} not identifiable: "
                         f"{result.unidentified[e.name]}")
        else:
            lines.append(f"{e.name} = {e.value:+.4f} +/- {e.std_error:.4f} (n={e.n_points})")
    warnings = (
        f"warning: {result.n_excluded} of {len(result.points)} fits did not "
        "converge and were excluded",
    ) if result.n_excluded else ()
    return Run(
        config_items(cfg),
        [],
        [("sweep", "sweep.csv", lambda path: write_sweep_csv(path, result.points)),
         ("exponents", "exponents.csv",
          lambda path: write_exponents_csv(path, result.exponents))],
        lines,
        warnings,
    )


def _cmd_fit(args: argparse.Namespace) -> Run:
    curve = read_curve_csv(args.curve)
    inputs = [("curve", args.curve, sha256_file(args.curve))]
    fit = fit_saturation(curve)
    warnings = () if fit.converged else (
        "warning: fit did not converge; values are at the best rate found",
    )
    return Run(
        [],
        inputs,
        [("fit", "fit.csv", lambda path: write_fit_csv(path, fit))],
        [f"n_sat = {format_float(fit.n_sat)} +/- {format_float(fit.n_sat_err)}",
         f"R     = {format_float(fit.rate)} +/- {format_float(fit.rate_err)} 1/s",
         f"residual_rms = {format_float(fit.residual_rms)}, "
         f"converged = {fit.converged} after {fit.n_iterations} root steps"],
        warnings,
    )


_COMMANDS = {
    "exact": _cmd_exact,
    "cloud": _cmd_cloud,
    "scaling": _cmd_scaling,
    "fit": _cmd_fit,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _finish(args.command, args.out, _COMMANDS[args.command](args))
    except BlockadeSimError as exc:  # 4: the memory limit, 2: bad input or configuration
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, SizeCapError) else 2


if __name__ == "__main__":
    sys.exit(main())
