"""End-to-end CLI runs in temp directories: outputs, manifests, exit codes."""

import argparse
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

import blockadesim.analysis
import blockadesim.cli
import blockadesim.exact
from blockadesim import errors
from blockadesim.analysis import SaturationFit
from blockadesim.cli import main
from blockadesim.runio import read_curve_csv

CLOUD_CONFIG = """
physical.omega0_hz = 210e3
physical.c6_au = 1.7e19
cloud.n_atoms = 1.5e7
cloud.sigma_x_m = 2.26465752498e-5
cloud.sigma_y_m = 2.26465752498e-5
cloud.sigma_z_m = 2.26465752498e-5
partition.model = simple
partition.n_min = 0.0
time.stop_s = 2e-5
time.num = 80
"""

EXACT_CONFIG = """
physical.omega0_hz = 1e6
physical.c6_au = 1.7e19
cloud.n_atoms = 1e6
cloud.sigma_x_m = 1e-5
cloud.sigma_y_m = 1e-5
cloud.sigma_z_m = 1e-5
exact.n_atoms = 2
time.stop_s = 2e-6
time.num = 60
run.seed = 12
"""

SCALING_CONFIG = """
physical.c6_au = 1.7e19
cloud.sigma_x_m = 2.26465752498e-5
cloud.sigma_y_m = 2.26465752498e-5
cloud.sigma_z_m = 2.26465752498e-5
partition.model = simple
partition.n_min = 0.0
partition.span_sigmas = 3.0
time.stop_s = 2e-5
time.start_s = 1e-8
time.num = 50
time.spacing = log
sweep.densities_m3 = 2e19, 8e19
sweep.omega0_hz = 1e5, 2e5
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cloud_writes_curve_ensemble_and_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path, CLOUD_CONFIG)
    out = tmp_path / "run1"
    assert main(["cloud", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "curve.csv").exists()
    assert (out / "ensemble.csv").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "manifest.command = cloud" in manifest
    assert "config.partition.model = simple" in manifest
    assert "manifest.output.curve.sha256 = " in manifest
    assert "superatom entries" in capsys.readouterr().out


def test_cloud_manifest_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, CLOUD_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["cloud", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["cloud", "--config", str(out1 / "manifest.txt"), "--out", str(out2)]) == 0
    for name in ("curve.csv", "ensemble.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cloud_model_override_changes_partition(tmp_path):
    cfg = write_config(tmp_path, CLOUD_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["cloud", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["cloud", "--config", cfg, "--out", str(out2), "--model", "collective"]) == 0
    assert (out1 / "ensemble.csv").read_bytes() != (out2 / "ensemble.csv").read_bytes()
    assert "config.partition.model = collective" in (out2 / "manifest.txt").read_text()


def test_cloud_empty_ensemble_is_input_error(tmp_path, capsys):
    cfg = write_config(tmp_path, CLOUD_CONFIG.replace("partition.n_min = 0.0", "partition.n_min = 1e9"))
    assert main(["cloud", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, value", [("span_sigmas", "nan"), ("span_sigmas", "inf"), ("n_min", "nan")]
)
def test_cloud_rejects_non_finite_partition_input(tmp_path, capsys, name, value):
    key = f"partition.{name}"
    rows = [row for row in CLOUD_CONFIG.splitlines() if not row.startswith(key + " ")]
    cfg = write_config(tmp_path, "\n".join(rows + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "o"
    assert main(["cloud", "--config", cfg, "--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not (out / "ensemble.csv").exists()


def test_cell_cap_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, CLOUD_CONFIG + "partition.span_sigmas = 1e6\n")
    assert main(["cloud", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("span", ["1e306", "1e308"])
def test_overflowing_span_exits_4_with_a_short_message(tmp_path, capsys, span):
    cfg = write_config(tmp_path, CLOUD_CONFIG + f"partition.span_sigmas = {span}\n")
    out = tmp_path / "o"
    assert main(["cloud", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "bytes" in err and len(err) < 200
    assert not (out / "ensemble.csv").exists()


@pytest.mark.parametrize(
    "command, key", [("exact", "exact.max_atoms_full"), ("cloud", "partition.cell_cap")]
)
def test_retired_size_keys_are_unknown(tmp_path, capsys, command, key):
    config = {"exact": EXACT_CONFIG, "cloud": CLOUD_CONFIG}[command]
    cfg = write_config(tmp_path, config + f"{key} = 14\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"unknown configuration key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, outputs",
    [("cloud", ("ensemble.csv", "curve.csv")), ("exact", ("trajectory.csv",))],
)
def test_replays_manifest_recording_retired_size_keys(tmp_path, command, outputs):
    # manifests of earlier versions carry the three size caps
    cfg = write_config(tmp_path, {"exact": EXACT_CONFIG, "cloud": CLOUD_CONFIG}[command])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", cfg, "--out", str(out1)]) == 0
    manifest = out1 / "manifest.txt"
    manifest.write_text(
        manifest.read_text()
        + "config.partition.cell_cap = 10000000\n"
        + "config.exact.max_atoms_full = 14\n"
        + "config.exact.max_atoms_restricted = 24\n"
    )
    assert main([command, "--config", str(manifest), "--out", str(out2)]) == 0
    for name in outputs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_unknown_key_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, CLOUD_CONFIG + "partition.shape = cubic\n")
    assert main(["cloud", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "partition.shape" in capsys.readouterr().err


def test_out_env_var_used_when_flag_absent(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, CLOUD_CONFIG)
    target = tmp_path / "from_env"
    monkeypatch.setenv("BLOCKADESIM_OUT", str(target))
    assert main(["cloud", "--config", cfg]) == 0
    assert (target / "curve.csv").exists()


def test_single_time_point_gives_single_zero_row(tmp_path):
    cfg = write_config(tmp_path, CLOUD_CONFIG.replace("time.num = 80", "time.num = 1"))
    out = tmp_path / "o"
    assert main(["cloud", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines == ["t_s,n_rydberg", "0.0,0.0"]


def test_exact_two_sampled_atoms(tmp_path):
    cfg = write_config(tmp_path, EXACT_CONFIG)
    out = tmp_path / "o"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "trajectory.csv").read_text().splitlines()
    assert text[0] == "t_s,n_rydberg,w_fidelity"
    assert len(text) == 61
    # sampled 10 um apart on average: essentially non-interacting, so the
    # trajectory peaks near 2
    values = np.array([[float(c) for c in line.split(",")] for line in text[1:]])
    assert 1.5 < values[:, 1].max() <= 2.0 + 1e-9


def test_exact_seed_override_changes_geometry(tmp_path):
    cfg = write_config(tmp_path, EXACT_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["exact", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["exact", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
    assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()
    assert "config.run.seed = 99" in (out2 / "manifest.txt").read_text()


def test_exact_rerun_from_manifest_identical(tmp_path):
    cfg = write_config(tmp_path, EXACT_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["exact", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["exact", "--config", str(out1 / "manifest.txt"), "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_exact_summary_names_propagator_only_on_stdout(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, EXACT_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["exact", "--config", cfg, "--out", str(out1)]) == 0
    assert "dense propagator (" in capsys.readouterr().out
    monkeypatch.setattr(blockadesim.exact, "DENSE_DIM_CUTOFF", 0)
    assert main(["exact", "--config", cfg, "--out", str(out2)]) == 0
    summary = capsys.readouterr().out
    assert "taylor propagator (" in summary and " Taylor substeps)" in summary
    for out in (out1, out2):
        for name in ("trajectory.csv", "manifest.txt"):
            text = (out / name).read_text().lower()
            assert "propagator" not in text and "taylor" not in text and "dense" not in text


def test_exact_positions_file_and_digest(tmp_path):
    positions = tmp_path / "atoms.txt"
    positions.write_text("0 0 0\n2e-7 0 0\n")
    cfg = write_config(
        tmp_path,
        EXACT_CONFIG.replace("exact.n_atoms = 2", f"exact.positions_path = {positions}"),
    )
    out = tmp_path / "o"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "manifest.input.positions.sha256 = " in manifest
    # 0.2 um apart at 1 MHz: deep blockade, so the peak stays near 1
    curve = read_curve_csv(str(out / "trajectory.csv"))
    assert curve.values.max() <= 1.02


def test_exact_rejects_both_atom_sources(tmp_path, capsys):
    positions = tmp_path / "atoms.txt"
    positions.write_text("0 0 0\n2e-7 0 0\n")
    cfg = write_config(tmp_path, EXACT_CONFIG + f"exact.positions_path = {positions}\n")
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "exactly one of exact.n_atoms or exact.positions_path" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    [
        "physical.omega0_hz = inf",
        "physical.detuning_hz = nan",
        "physical.detuning_hz = inf",
        "physical.c6_jm6 = inf",
        "physical.gamma_per_s = inf",
        "physical.kappa = inf",
    ],
)
def test_exact_rejects_non_finite_physical_input(tmp_path, capsys, line):
    base = EXACT_CONFIG.replace("physical.c6_au = 1.7e19", "physical.c6_jm6 = 1.6e-60")
    key = line.split(" = ")[0]
    rows = [row for row in base.splitlines() if not row.startswith(key + " ")]
    cfg = write_config(tmp_path, "\n".join(rows + [line]) + "\n")
    out = tmp_path / "o"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_exact_rejects_nan_restriction_radius(tmp_path, capsys):
    cfg = write_config(
        tmp_path, EXACT_CONFIG + "exact.basis = restricted\nexact.restriction_radius_m = nan\n"
    )
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "restriction radius" in capsys.readouterr().err


def test_exact_malformed_positions_exit_code(tmp_path, capsys):
    positions = tmp_path / "atoms.txt"
    positions.write_text("0 0 0\n1e-6 what 0\n")
    cfg = write_config(
        tmp_path,
        EXACT_CONFIG.replace("exact.n_atoms = 2", f"exact.positions_path = {positions}"),
    )
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "line 2" in capsys.readouterr().err


def test_exact_atom_cap_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path, EXACT_CONFIG.replace("exact.n_atoms = 2", "exact.n_atoms = 20")
    )
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "cap" in capsys.readouterr().err


def test_exact_64_atoms_exit_code(tmp_path, capsys):
    # 64 fully blockaded atoms need only 65 states, but not an int64 bitmask
    positions = tmp_path / "atoms.txt"
    positions.write_text("".join(f"{k * 1e-8} 0 0\n" for k in range(64)))
    cfg = write_config(
        tmp_path,
        EXACT_CONFIG.replace("exact.n_atoms = 2", f"exact.positions_path = {positions}")
        + "exact.basis = restricted\nexact.restriction_radius_m = 1.0\n",
    )
    out = tmp_path / "o"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 4
    assert "63" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_fit_round_trips_cloud_output(tmp_path, capsys):
    cfg = write_config(tmp_path, CLOUD_CONFIG)
    out = tmp_path / "o"
    assert main(["cloud", "--config", cfg, "--out", str(out)]) == 0
    fit_out = tmp_path / "f"
    assert main(["fit", str(out / "curve.csv"), "--out", str(fit_out)]) == 0
    printed = capsys.readouterr().out
    assert "n_sat = " in printed
    fit_line = (fit_out / "fit.csv").read_text().splitlines()[1]
    n_sat = float(fit_line.split(",")[0])
    assert n_sat > 0
    assert "true" in fit_line


def test_fit_empty_file_exit_code(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["fit", str(empty), "--out", str(tmp_path / "o")]) == 2
    assert "empty" in capsys.readouterr().err


def test_fit_header_only_exit_code(tmp_path, capsys):
    header = tmp_path / "header.csv"
    header.write_text("t_s,n_rydberg\n")
    assert main(["fit", str(header), "--out", str(tmp_path / "o")]) == 2
    assert "no data" in capsys.readouterr().err


def test_fit_wrong_header_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,excitations\n0.0,0.0\n")
    assert main(["fit", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_fit_rejects_infinite_time(tmp_path, capsys):
    curve = tmp_path / "c.csv"
    curve.write_text("t_s,n_rydberg\n0.0,0.0\n1e-6,0.5\n2e-6,0.8\n3e-6,0.9\ninf,1.0\n")
    out = tmp_path / "o"
    assert main(["fit", str(curve), "--out", str(out)]) == 2
    assert "time grid must be finite" in capsys.readouterr().err
    assert not (out / "fit.csv").exists()


def test_fit_nonconverged_exit_code(tmp_path, monkeypatch, capsys):
    curve = tmp_path / "c.csv"
    t = np.linspace(0, 1e-5, 20)
    lines = ["t_s,n_rydberg"] + [f"{float(x)!r},{float(1e4 * x / 1e-5)!r}" for x in t]
    curve.write_text("\n".join(lines) + "\n")

    def stubborn(curve, **kwargs):
        return SaturationFit(1.0, 1.0, 0.1, 0.1, 0.0, False, 200)

    monkeypatch.setattr(blockadesim.cli, "fit_saturation", stubborn)
    assert main(["fit", str(curve), "--out", str(tmp_path / "o")]) == 3
    assert "converge" in capsys.readouterr().err


def test_scaling_small_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, SCALING_CONFIG)
    out = tmp_path / "o"
    assert main(["scaling", "--config", cfg, "--out", str(out)]) == 0
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "n_peak_m3,omega0_radps,n_sat,n_sat_err,R_per_s,R_err,converged"
    assert len(sweep) == 5
    assert all(line.endswith("true") for line in sweep[1:])
    exponents = (out / "exponents.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in exponents] == ["name", "a", "b", "c", "d"]
    assert "a = " in capsys.readouterr().out


def test_scaling_rerun_from_manifest_identical(tmp_path):
    cfg = write_config(tmp_path, SCALING_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["scaling", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["scaling", "--config", str(out1 / "manifest.txt"), "--out", str(out2)]) == 0
    for name in ("sweep.csv", "exponents.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_scaling_replays_manifest_recording_retired_threads_key(tmp_path):
    # manifests of earlier versions carry config.run.threads
    cfg = write_config(tmp_path, SCALING_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["scaling", "--config", cfg, "--out", str(out1)]) == 0
    manifest = out1 / "manifest.txt"
    manifest.write_text(manifest.read_text() + "config.run.threads = 4\n")
    assert main(["scaling", "--config", str(manifest), "--out", str(out2)]) == 0
    for name in ("sweep.csv", "exponents.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_scaling_threads_flag_is_gone(tmp_path):
    cfg = write_config(tmp_path, SCALING_CONFIG)
    with pytest.raises(SystemExit) as excinfo:
        main(["scaling", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "2"])
    assert excinfo.value.code == 2


def test_run_threads_config_key_is_unknown(tmp_path, capsys):
    cfg = write_config(tmp_path, SCALING_CONFIG + "run.threads = 2\n")
    assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown configuration key 'run.threads'" in capsys.readouterr().err


def test_scaling_degenerate_density_grid_warns(tmp_path, capsys):
    cfg = write_config(
        tmp_path, SCALING_CONFIG.replace("sweep.densities_m3 = 2e19, 8e19", "sweep.densities_m3 = 8e19")
    )
    out = tmp_path / "o"
    assert main(["scaling", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "not identifiable" in printed
    rows = (out / "exponents.csv").read_text().splitlines()
    assert rows[1].startswith("a,nan,")
    assert rows[3].startswith("c,nan,")


def test_scaling_nonconverged_points_exit_code(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, SCALING_CONFIG)

    def stubborn(curve, **kwargs):
        return SaturationFit(1.0, 1.0, 0.1, 0.1, 0.0, False, 200)

    monkeypatch.setattr(blockadesim.analysis, "fit_saturation", stubborn)
    assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "did not" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cloud", "exact", "scaling"])
def test_config_subcommands_accept_override_flags(command):
    args = blockadesim.cli._build_parser().parse_args(
        [command, "--config", "run.cfg", "--seed", "1", "--model", "simple"]
    )
    assert (args.seed, args.model) == ("1", "simple")


def test_readme_names_exactly_the_parser_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parser = blockadesim.cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    defined = {
        option
        for p in [parser, *sub.choices.values()]
        for action in p._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert documented == defined


def test_fit_refuses_override_flags(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["fit", str(tmp_path / "curve.csv"), "--seed", "1"])
    assert excinfo.value.code == 2


def test_bad_override_value_exits_like_bad_config_value(tmp_path, capsys):
    cfg = write_config(tmp_path, CLOUD_CONFIG)
    assert main(["cloud", "--config", cfg, "--out", str(tmp_path / "o"), "--model", "bogus"]) == 2
    assert "bad value for partition.model" in capsys.readouterr().err


def test_missing_config_file_exit_code(tmp_path, capsys):
    assert main(["cloud", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.ConfigError, 2),
        (errors.InputFileError, 2),
        (errors.InvalidParameterError, 2),
        (errors.GeometryError, 2),
        (errors.DegenerateDataError, 2),
        (errors.BasisMismatchError, 2),
        (errors.SizeCapError, 4),
    ],
)
def test_package_errors_map_to_exit_codes(monkeypatch, capsys, error, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setitem(blockadesim.cli._COMMANDS, "fit", fail)
    assert main(["fit", "curve.csv"]) == code
    assert "error: boom" in capsys.readouterr().err
