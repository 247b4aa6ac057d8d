"""End-to-end CLI runs in temp directories: outputs, manifests, exit codes."""

import argparse
import errno
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import blockadesim.analysis
import blockadesim.cli
import blockadesim.core
from blockadesim import errors
from blockadesim.analysis import SaturationFit
from blockadesim.cli import main
from blockadesim.cloud import partition_superatoms
from blockadesim.config import (
    RunConfig, load_config, parse_config_text, resolve_cloud, resolve_params,
)
from blockadesim.constants import HBAR
from blockadesim.core import convert_c6_atomic_units
from blockadesim.runio import read_curve_csv

from conftest import gaussian_atoms, package_errors, traced_peak

CLOUD_CONFIG = """
physical.omega0_hz = 210e3
physical.c6_au = 1.7e19
cloud.n_atoms = 1.5e7
cloud.sigma_x_m = 2.26465752498e-5
cloud.sigma_y_m = 2.26465752498e-5
cloud.sigma_z_m = 2.26465752498e-5
partition.model = simple
time.stop_s = 2e-5
time.num = 80
"""

# relative to the directory each test runs in, which holds ATOMS
EXACT_CONFIG = """
physical.omega0_hz = 1e6
physical.c6_au = 1.7e19
exact.positions_path = atoms.txt
time.stop_s = 2e-6
time.num = 60
"""

# two atoms drawn at seed 12 from a 10 um cloud, and the same draw from a
# 1 nm cloud
ATOMS = {
    "atoms.txt": gaussian_atoms(12, 2, 1e-5),
    "nanometre_atoms.txt": gaussian_atoms(12, 2, 1e-9),
}

SCALING_CONFIG = """
physical.c6_au = 1.7e19
cloud.sigma_x_m = 2.26465752498e-5
cloud.sigma_y_m = 2.26465752498e-5
cloud.sigma_z_m = 2.26465752498e-5
partition.model = simple
time.stop_s = 2e-5
time.start_s = 1e-8
time.num = 50
time.spacing = log
sweep.densities_m3 = 2e19, 8e19
sweep.omega0_hz = 1e5, 2e5
"""


@pytest.fixture(autouse=True)
def atoms_in_working_directory(tmp_path_factory, monkeypatch):
    """Run each test in a fresh directory that holds the ATOMS files."""
    cwd = tmp_path_factory.mktemp("cwd")
    for name, text in ATOMS.items():
        (cwd / name).write_text(text)
    monkeypatch.chdir(cwd)


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def exact_config(positions):
    """EXACT_CONFIG with its atoms read from ``positions``."""
    return EXACT_CONFIG.replace("exact.positions_path = atoms.txt",
                                f"exact.positions_path = {positions}")


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
    # 16,568 of the simple model's 27,000 cells hold fewer than one atom;
    # their mirror images pool, and so do cells whose octant indices permute
    # each other: C(17, 3) = 680 index multisets of the 15-cell octant axes
    summary = capsys.readouterr().out
    assert "3375 superatom entries (one octant, mirrored), 680 distinct sizes" in summary
    assert "61.4 % of the superatom weight at n_per < 1" in summary
    cloud_cfg = load_config(cfg, "cloud")[0]
    ensemble = partition_superatoms(
        resolve_cloud(cloud_cfg), resolve_params(cloud_cfg), model="simple"
    )
    assert np.unique(ensemble.n_per).size == 680


def test_cloud_manifest_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, CLOUD_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["cloud", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["cloud", "--config", str(out1 / "manifest.txt"), "--out", str(out2)]) == 0
    for name in ("curve.csv", "ensemble.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cloud_model_override_changes_partition(tmp_path):
    cfg = write_config(tmp_path, CLOUD_CONFIG)
    collective = write_config(tmp_path, CLOUD_CONFIG.replace(
        "partition.model = simple", "partition.model = collective"), "collective.cfg")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["cloud", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["cloud", "--config", collective, "--out", str(out2)]) == 0
    assert (out1 / "ensemble.csv").read_bytes() != (out2 / "ensemble.csv").read_bytes()
    assert "config.partition.model = collective" in (out2 / "manifest.txt").read_text()


def test_cloud_empty_ensemble_is_input_error(tmp_path, capsys):
    # the smallest subnormal atom number underflows to 0 in every cell
    cfg = write_config(tmp_path, CLOUD_CONFIG.replace("cloud.n_atoms = 1.5e7",
                                                      "cloud.n_atoms = 5e-324"))
    out = tmp_path / "o"
    assert main(["cloud", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ensemble is empty (every cell's atom number underflows to 0?)" in err
    assert not out.exists()


def wide_cloud_config(sigma_x_m):
    """CLOUD_CONFIG with its x radius, and so its grid's x extent, set to ``sigma_x_m``."""
    return CLOUD_CONFIG.replace("cloud.sigma_x_m = 2.26465752498e-5",
                                f"cloud.sigma_x_m = {sigma_x_m}")


def test_cell_cap_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, wide_cloud_config("1.0"))
    out = tmp_path / "o"
    assert main(["cloud", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "1.46e+08 partition cells (one octant) needs about 1.29e+10 bytes" in err
    assert "over the memory cap" in err
    assert not out.exists()


# the grid's octant count overflows the bytes at sigma_x = 1e300 m, and
# its cells per axis overflow at 1e306 m
@pytest.mark.parametrize(
    "sigma_x, named", [("1e300", "inf bytes"), ("1e306", "inf partition cells")],
    ids=["1e300", "1e306"],
)
def test_overflowing_span_exits_4_with_a_short_message(tmp_path, capsys, sigma_x, named):
    cfg = write_config(tmp_path, wide_cloud_config(sigma_x))
    out = tmp_path / "o"
    assert main(["cloud", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert named in err and len(err) < 200
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key",
    [("exact", "exact.max_atoms_full"), ("cloud", "partition.cell_cap"),
     ("cloud", "physical.kappa"), ("cloud", "physical.gamma_per_s"),
     ("exact", "physical.detuning_hz"), ("exact", "exact.n_atoms"), ("exact", "run.seed"),
     ("cloud", "partition.span_sigmas")],
)
def test_retired_size_keys_are_unknown(tmp_path, capsys, command, key):
    config = {"exact": EXACT_CONFIG, "cloud": CLOUD_CONFIG}[command]
    cfg = write_config(tmp_path, config + f"{key} = 14\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"unknown configuration key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, outputs",
    [("cloud", ("ensemble.csv", "curve.csv")), ("exact", ("trajectory.csv",)),
     ("scaling", ("sweep.csv", "exponents.csv"))],
)
def test_replays_manifest_recording_retired_size_keys(tmp_path, command, outputs):
    # manifests of earlier versions carry the three size caps, kappa = 1,
    # zero dephasing and detuning, and the grid's half-extent of 5 sigmas
    config = {"exact": EXACT_CONFIG, "cloud": CLOUD_CONFIG, "scaling": SCALING_CONFIG}[command]
    cfg = write_config(tmp_path, config)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", cfg, "--out", str(out1)]) == 0
    manifest = out1 / "manifest.txt"
    manifest.write_text(
        manifest.read_text()
        + "config.partition.cell_cap = 10000000\n"
        + "config.exact.max_atoms_full = 14\n"
        + "config.exact.max_atoms_restricted = 24\n"
        + "config.physical.kappa = 1.0\n"
        + "config.physical.gamma_per_s = 0.0\n"
        + "config.physical.detuning_hz = 0.0\n"
        + "config.partition.span_sigmas = 5.0\n"
    )
    assert main([command, "--config", str(manifest), "--out", str(out2)]) == 0
    for name in outputs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("command", ["cloud", "exact", "scaling"])
def test_replay_refuses_a_retired_value_it_cannot_reproduce(tmp_path, capsys, command):
    # only kappa = 1, zero dephasing and detuning and a 5-sigma grid replay:
    # the radii no longer take a prefactor, the drive is resonant and
    # undamped, and the grid always spans cloud.SPAN_SIGMAS
    config = {"cloud": CLOUD_CONFIG, "exact": EXACT_CONFIG, "scaling": SCALING_CONFIG}[command]
    cfg = write_config(tmp_path, config)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", cfg, "--out", str(out1)]) == 0
    manifest = out1 / "manifest.txt"
    recorded = manifest.read_text()
    for line in (
        "physical.kappa = 1.3", "physical.gamma_per_s = 1e6", "physical.detuning_hz = 5e6",
        "partition.span_sigmas = 3.0",
    ):
        manifest.write_text(recorded + f"config.{line}\n")
        capsys.readouterr()
        assert main([command, "--config", str(manifest), "--out", str(out2)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{line} cannot be reproduced" in err[0]
        assert not out2.exists()


@pytest.mark.parametrize(
    "command, kept, deleted",
    [("cloud", "physical.omega0_hz",
      "physical.omega1_hz = 9.7e6\nconfig.physical.omega2_hz = 2.1e7\n"
      "config.physical.delta_hz = 4.78e8"),
     ("cloud", "physical.c6_au", "physical.c6_jm6 = 1.6274841951863897e-60"),
     ("cloud", "cloud.n_atoms", "cloud.peak_density_m3 = 8.2e19"),
     ("exact", "exact.positions_path", "exact.n_atoms = 2")],
    ids=["omega1_hz", "c6_jm6", "peak_density_m3", "exact_n_atoms"],
)
def test_replay_refuses_a_manifest_of_a_deleted_key(tmp_path, capsys, command, kept, deleted):
    # earlier versions also took the drive as two-photon legs, C6 in J m^6,
    # the cloud as a peak density and exact's atoms as a sample of the cloud,
    # and recorded these in place of the kept key
    manifest = manifest_of(tmp_path, command)
    out2 = tmp_path / "b"
    recorded, count = re.subn(
        rf"^config\.{re.escape(kept)} = .*$", f"config.{deleted}", manifest.read_text(),
        flags=re.M,
    )
    assert count == 1
    manifest.write_text(recorded)
    capsys.readouterr()
    assert main([command, "--config", str(manifest), "--out", str(out2)]) == 2
    err = capsys.readouterr().err.splitlines()
    key = deleted.partition(" =")[0]
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"unknown configuration key {key!r}" in err[0]
    assert not out2.exists()


@pytest.mark.parametrize("seed", ["0", "7"])
@pytest.mark.parametrize("command", ["cloud", "exact", "scaling"])
def test_replays_manifest_recording_a_seed(tmp_path, command, seed):
    # every manifest of earlier versions records config.run.seed, which set
    # the atoms of exact.n_atoms alone
    manifest = manifest_of(tmp_path, command)
    recorded = manifest.read_text()
    manifest.write_text(recorded + f"config.run.seed = {seed}\n")
    out = tmp_path / "replay"
    assert main([command, "--config", str(manifest), "--out", str(out)]) == 0
    assert (out / "manifest.txt").read_text() == recorded
    for csv in manifest.parent.glob("*.csv"):
        assert (out / csv.name).read_bytes() == csv.read_bytes()


def test_exact_manifest_replays_from_another_directory(tmp_path, monkeypatch):
    # a run from a/ reads exact.positions_path = atoms.txt there; its
    # manifest records the file's absolute path, so a/o1/manifest.txt
    # replays from the sibling b/
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "atoms.txt").write_text(ATOMS["atoms.txt"])
    (a / "run.cfg").write_text(EXACT_CONFIG)
    monkeypatch.chdir(a)
    assert main(["exact", "--config", "run.cfg", "--out", "o1"]) == 0
    atoms = os.path.join(os.getcwd(), "atoms.txt")
    monkeypatch.chdir(b)
    assert main(["exact", "--config", "../a/o1/manifest.txt", "--out", "o2"]) == 0
    assert (b / "o2" / "trajectory.csv").read_bytes() == (
        (a / "o1" / "trajectory.csv").read_bytes()
    )
    manifest = (a / "o1" / "manifest.txt").read_text()
    assert f"manifest.input.positions = {atoms}\n" in manifest
    assert f"config.exact.positions_path = {atoms}\n" in manifest


def test_unknown_key_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, CLOUD_CONFIG + "partition.shape = cubic\n")
    assert main(["cloud", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "partition.shape" in capsys.readouterr().err


def test_out_env_var_is_ignored_when_flag_absent(tmp_path, monkeypatch):
    # the output directory has one source besides --out, the working
    # directory; the environment is not read
    cfg = write_config(tmp_path, CLOUD_CONFIG)
    target = tmp_path / "from_env"
    monkeypatch.setenv("BLOCKADESIM_OUT", str(target))
    assert main(["cloud", "--config", cfg]) == 0
    assert Path("curve.csv").exists() and Path("manifest.txt").exists()
    assert not target.exists()


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
    # drawn 10 um apart on average: essentially non-interacting, so the
    # trajectory peaks near 2
    values = np.array([[float(c) for c in line.split(",")] for line in text[1:]])
    assert 1.5 < values[:, 1].max() <= 2.0 + 1e-9


def test_exact_rerun_from_manifest_identical(tmp_path):
    cfg = write_config(tmp_path, EXACT_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["exact", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["exact", "--config", str(out1 / "manifest.txt"), "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_exact_summary_names_propagator_only_on_stdout(tmp_path, capsys, force_chebyshev):
    cfg = write_config(tmp_path, EXACT_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["exact", "--config", cfg, "--out", str(out1)]) == 0
    # two atoms: 4 states, each coupled to 2 others, plus the diagonal
    sizes = ", 4 basis states (full), 12 nonzeros, 60 times, "
    # and the trajectory's largest |norm - 1|, within the norm check's 1e-6
    drift = r", largest \|norm - 1\| (\S+) -> "
    found = re.search(re.escape(sizes) + "dense propagator" + drift, capsys.readouterr().out)
    assert found and 0.0 <= float(found[1]) <= 1e-6
    with force_chebyshev():
        assert main(["exact", "--config", cfg, "--out", str(out2)]) == 0
    summary = capsys.readouterr().out
    found = re.search(re.escape(sizes) + r"chebyshev propagator \([1-9][0-9]* terms\)" + drift,
                      summary)
    assert found and 0.0 <= float(found[1]) <= 1e-6
    for out in (out1, out2):
        for name in ("trajectory.csv", "manifest.txt"):
            text = (out / name).read_text().lower()
            for word in ("propagator", "chebyshev", "dense", "terms", "nonzeros", "norm"):
                assert word not in text


def test_exact_positions_file_and_digest(tmp_path):
    positions = tmp_path / "atoms.txt"
    positions.write_text("0 0 0\n2e-7 0 0\n")
    cfg = write_config(tmp_path, exact_config(positions))
    out = tmp_path / "o"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "manifest.input.positions.sha256 = " in manifest
    # 0.2 um apart at 1 MHz: deep blockade, so the peak stays near 1
    curve = read_curve_csv(str(out / "trajectory.csv"))
    assert curve.values.max() <= 1.02


def test_replay_refuses_an_input_whose_digest_changed(tmp_path, capsys):
    positions = tmp_path / "atoms.txt"
    positions.write_text("0 0 0\n2e-7 0 0\n")
    cfg = write_config(tmp_path, exact_config(positions))
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["exact", "--config", cfg, "--out", str(out1)]) == 0
    manifest = out1 / "manifest.txt"
    # unchanged, the input replays byte for byte
    assert main(["exact", "--config", str(manifest), "--out", str(out2)]) == 0
    for name in ("trajectory.csv", "manifest.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    recorded = re.search(r"manifest\.input\.positions\.sha256 = (\w+)", manifest.read_text())[1]
    positions.write_text("0 0 0\n3e-7 0 0\n")
    capsys.readouterr()
    assert main(["exact", "--config", str(manifest), "--out", str(out3)]) == 2
    err = capsys.readouterr().err.splitlines()
    digest = blockadesim.cli.sha256_file(str(positions))
    assert len(err) == 1 and err[0].startswith(f"error: {positions}: ")
    assert recorded in err[0] and digest in err[0] and recorded != digest
    assert not out3.exists()


def manifest_of(tmp_path, command):
    """manifest.txt of a run of ``command`` on this file's test configs."""
    if command == "fit":
        argv = ["fit", str(manifest_of(tmp_path, "cloud").parent / "curve.csv")]
    else:
        config = {"cloud": CLOUD_CONFIG, "exact": EXACT_CONFIG, "scaling": SCALING_CONFIG}
        argv = [command, "--config", write_config(tmp_path, config[command], f"{command}.cfg")]
    out = tmp_path / f"{command}-run"
    assert main([*argv, "--out", str(out)]) in (0, 3)
    return out / "manifest.txt"


@pytest.mark.parametrize(
    "recorded, command",
    [("fit", "cloud"), ("scaling", "cloud"), ("cloud", "exact"), ("exact", "scaling")],
)
def test_replay_refuses_a_manifest_of_another_command(tmp_path, capsys, recorded, command):
    # a fit manifest given to cloud used to fail later, for lack of a drive
    manifest = manifest_of(tmp_path, recorded)
    out = tmp_path / "replay"
    capsys.readouterr()
    assert main([command, "--config", str(manifest), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {manifest}: a {recorded} manifest cannot configure {command}"
    ]
    assert not out.exists()


def test_exact_without_a_positions_file_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, EXACT_CONFIG.replace("exact.positions_path = atoms.txt", ""))
    out = tmp_path / "o"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: exact needs exact.positions_path"]
    assert not out.exists()


def _refused(command, line, named):
    # exact cases take the bare line as id, so their ids stay stable
    return pytest.param(command, line, named, id=line if command == "exact" else f"{command}: {line}")


MICRON_COLLECTIVE = (
    "cloud.sigma_x_m = 1e-6; cloud.sigma_y_m = 1e-6; cloud.sigma_z_m = 1e-6; "
    "partition.model = collective"
)


@pytest.mark.parametrize(
    "command, line, named",
    [
        _refused("exact", "physical.omega0_hz = inf", "finite"),
        _refused("exact", "physical.c6_au = inf", "finite"),
        _refused("exact", "physical.omega0_hz = 1e-300", "c6 / (hbar omega0)"),
        # atoms nanometres apart: c6 = 9.57e228 J m^6 / r**6 overflows
        _refused("exact", "physical.c6_au = 1e308; exact.positions_path = nanometre_atoms.txt",
                 "pair shifts of c6 = 9.57e+228"),
        _refused("cloud", "physical.omega0_hz = 1e-300", "c6 / (hbar omega0)"),
        _refused("cloud", "physical.omega0_hz = 1e300", "c6 / (hbar omega0)"),
        _refused("cloud", "physical.omega0_hz = 5e-324", "c6 / (hbar omega0)"),
        _refused("cloud", "cloud.n_atoms = 1e300", "n_atoms = 1e+300"),
        _refused("cloud", "cloud.sigma_x_m = 1e-300", "sigma = (1e-300,"),
        _refused("cloud", "cloud.sigma_x_m = 5e-324", "sigma = (5e-324,"),
        _refused("scaling", "cloud.sigma_x_m = 5e-324", "sigma = (5e-324,"),
        _refused("scaling", "sweep.omega0_hz = 1e-300", "c6 / (hbar omega0)"),
        _refused("scaling", "sweep.omega0_hz = 1e300", "c6 / (hbar omega0)"),
        _refused("scaling", "sweep.omega0_hz = 5e-324", "c6 / (hbar omega0)"),
        _refused("scaling", "sweep.densities_m3 = nan", "density grid"),
        _refused("scaling", "sweep.densities_m3 = inf", "density grid"),
        _refused("cloud", "time.stop_s = 1e300", "t is too long"),
        _refused("exact", "time.stop_s = 1e300", "the time grid ends at 1e+300 s"),
        _refused("exact", "time.stop_s = 1e12", "the time grid ends at 1e+12 s"),
        _refused("cloud", f"cloud.n_atoms = 1.575e291; {MICRON_COLLECTIVE}",
                 "local density 1e+308 m^-3 overflows"),
        _refused("cloud", f"cloud.n_atoms = 1e291; {MICRON_COLLECTIVE}",
                 "local density 6.35e+307 m^-3 overflows"),
        _refused("cloud", "physical.omega0_hz = 1; physical.c6_au = 1e279; "
                 "cloud.n_atoms = 1.83e287; partition.model = collective",
                 "local density 1e+300 m^-3 overflows"),
        _refused("scaling", "time.stop_s = 1e300", "span too many decades to fit"),
    ],
)
def test_exact_rejects_non_finite_physical_input(tmp_path, capsys, command, line, named):
    """Inputs that are not finite or that put a model scale out of
    float64's range exit 2 with one error line naming them and leave no
    --out.

    ``line`` holds ``key = value`` assignments joined by "; ", each replacing
    its key's row of the command's config.
    """
    base = {"cloud": CLOUD_CONFIG, "exact": EXACT_CONFIG, "scaling": SCALING_CONFIG}[command]
    assignments = [a.partition("=") for a in line.split("; ")]
    keys = {key.strip() for key, _, _ in assignments}
    rows = [row for row in base.splitlines() if row.partition("=")[0].strip() not in keys]
    rows += [f"{key.strip()} = {value.strip()}" for key, _, value in assignments]
    cfg = write_config(tmp_path, "\n".join(rows) + "\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    # the config's path holds this test's name, which holds "finite"
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0].replace(cfg, "")
    assert not out.exists()


def test_exact_rejects_nan_restriction_radius(tmp_path, capsys):
    cfg = write_config(
        tmp_path, EXACT_CONFIG + "exact.basis = restricted\nexact.restriction_radius_m = nan\n"
    )
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "restriction radius" in capsys.readouterr().err


def test_exact_malformed_positions_exit_code(tmp_path, capsys):
    positions = tmp_path / "atoms.txt"
    positions.write_text("0 0 0\n1e-6 what 0\n")
    cfg = write_config(tmp_path, exact_config(positions))
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "line 2" in capsys.readouterr().err


def test_exact_positions_too_far_apart_exit_2_naming_the_file(tmp_path, capsys):
    positions = tmp_path / "atoms.txt"
    positions.write_text("0 0 0\n1e300 0 0\n")
    cfg = write_config(tmp_path, exact_config(positions))
    out = tmp_path / "o"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 2
    assert f"error: {positions}: positions spread over 1e+300" in capsys.readouterr().err
    assert not out.exists()


def test_exact_atom_cap_exit_code(tmp_path, capsys):
    positions = tmp_path / "atoms.txt"
    positions.write_text(gaussian_atoms(12, 20, 1e-5))
    cfg = write_config(tmp_path, exact_config(positions))
    out = tmp_path / "o"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 4
    assert "cap" in capsys.readouterr().err
    assert not out.exists()


def test_exact_full_basis_too_large_to_evolve_is_refused_unenumerated(
    tmp_path, capsys, monkeypatch
):
    def enumerate_basis(n_atoms):
        raise AssertionError(f"the full basis of {n_atoms} atoms was enumerated")

    monkeypatch.setattr(blockadesim.cli, "full_basis", enumerate_basis)
    positions = tmp_path / "atoms.txt"
    positions.write_text(gaussian_atoms(12, 20, 1e-5))
    cfg = write_config(tmp_path, exact_config(positions))
    out = tmp_path / "o"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 4
    assert "60 times of 1.05e+06 states over 20 atoms" in capsys.readouterr().err
    assert not out.exists()


def test_exact_atom_cap_is_checked_before_the_positions_file_is_read_whole(
    tmp_path, capsys, monkeypatch
):
    # parsed whole, these million atoms took a traced peak of about 275 MB
    # before the basis refused them
    limit = 64 * 2**20
    monkeypatch.setattr(blockadesim.core, "MEMORY_LIMIT_BYTES", limit)
    positions = tmp_path / "atoms.txt"
    with open(positions, "w") as fh:
        fh.writelines(f"{k}e-9 0 0\n" for k in range(10**6))
    cfg = write_config(tmp_path, exact_config(positions))
    out = tmp_path / "o"
    codes = []
    run = lambda: codes.append(main(["exact", "--config", cfg, "--out", str(out)]))  # noqa: E731
    assert traced_peak(run) < limit
    assert codes == [4]
    assert f"{positions}, line 64: atom 64 exceeds the int64 bitmask cap of 63" in (
        capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize("command, text", [("cloud", CLOUD_CONFIG), ("exact", EXACT_CONFIG)])
def test_huge_time_grid_exits_4_before_allocating(tmp_path, capsys, command, text):
    cfg = write_config(tmp_path, re.sub(r"time.num = \d+", "time.num = 1e12", text))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    assert "time grid of 1e+12 points" in capsys.readouterr().err
    assert not out.exists()


def test_exact_stiff_polygon_too_large_for_dense_exits_4(tmp_path, capsys):
    # 13 atoms at 1e3 hbar omega0 pair shifts: 8192 states that dense
    # eigh cannot hold and the Chebyshev expansion would need 3.7e7 terms
    m, omega = 13, 2 * math.pi * 1e6
    diameter = (convert_c6_atomic_units(1.7e19) / (1e3 * HBAR * omega)) ** (1.0 / 6.0)
    angles = 2 * math.pi * np.arange(m) / m
    positions = tmp_path / "atoms.txt"
    positions.write_text("".join(
        f"{diameter / 2 * math.cos(a)!r} {diameter / 2 * math.sin(a)!r} 0\n" for a in angles
    ))
    t_stop = 1.2 * math.pi / (math.sqrt(m) * omega)
    cfg = write_config(
        tmp_path,
        exact_config(positions)
        .replace("time.stop_s = 2e-6", f"time.stop_s = {t_stop!r}")
        .replace("time.num = 60", "time.num = 241"),
    )
    out = tmp_path / "o"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 4
    assert "241 times of 8192 states" in capsys.readouterr().err
    assert not out.exists()


def test_exact_64_atoms_exit_code(tmp_path, capsys):
    # 64 fully blockaded atoms need only 65 states, but not an int64 bitmask
    positions = tmp_path / "atoms.txt"
    positions.write_text("".join(f"{k * 1e-8} 0 0\n" for k in range(64)))
    cfg = write_config(
        tmp_path,
        exact_config(positions)
        + "exact.basis = restricted\nexact.restriction_radius_m = 1.0\n",
    )
    out = tmp_path / "o"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 4
    assert "63" in capsys.readouterr().err
    assert not out.exists()


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


def test_fit_refuses_an_over_limit_curve_before_reading_it(tmp_path, monkeypatch, capsys):
    # about 20 MB of repr rows: the file's size allows more rows than this
    # limit holds, so it is refused unread
    limit = 64 * 2**20
    curve = tmp_path / "curve.csv"
    t = np.linspace(0.0, 1e-5, 450_000)
    with open(curve, "w") as fh:
        fh.write("t_s,n_rydberg\n")
        fh.writelines(f"{x!r},{y!r}\n" for x, y in zip(t.tolist(), np.sqrt(t).tolist()))
    size = curve.stat().st_size
    assert 19e6 < size < 21e6
    monkeypatch.setattr(blockadesim.core, "MEMORY_LIMIT_BYTES", limit)
    out = tmp_path / "o"
    codes = []
    assert traced_peak(lambda: codes.append(main(["fit", str(curve), "--out", str(out)]))) < limit
    assert codes == [4]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: a curve file of {size} bytes needs about ")
    assert not out.exists()


@pytest.mark.parametrize("rows", ["repr", "integer"])
def test_fit_estimate_bounds_the_traced_peak_of_the_whole_call(tmp_path, monkeypatch, rows):
    # a limit just below the traced peak of the whole fit command, read plus
    # fit, must refuse the file; integer times are the shortest rows a fit
    # accepts, and twice their peak admits: the estimate of 16 B per file
    # byte came to about 1.5 times the traced peak of these 10,000 rows
    n = 10_000
    if rows == "repr":
        t = np.linspace(0.0, 1e-5, n)
        body = "".join(f"{x!r},{y!r}\n" for x, y in zip(t.tolist(), np.sqrt(t).tolist()))
    else:
        body = "".join(f"{i},1\n" for i in range(n))
    curve = tmp_path / "curve.csv"
    curve.write_text("t_s,n_rydberg\n" + body)
    codes = []
    peak = traced_peak(lambda: codes.append(main(["fit", str(curve), "--out", "f1"])))
    assert codes == [0 if rows == "repr" else 3]
    monkeypatch.setattr(blockadesim.core, "MEMORY_LIMIT_BYTES", peak - 1)
    assert main(["fit", str(curve), "--out", "f2"]) == 4
    assert not Path("f2").exists()
    if rows == "integer":
        monkeypatch.setattr(blockadesim.core, "MEMORY_LIMIT_BYTES", 2 * peak)
        assert main(["fit", str(curve), "--out", "f3"]) == 3


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_fit_refuses_a_curve_whose_error_bars_overflow(tmp_path, capsys, scale):
    # t_k = k / scale s, y_k = 2 scale (1 - exp(-k/3)): the fit on t / t_max
    # and y / max(y) is in range, but R = 2 scale**2 / 3 per s overflows,
    # and so does its error bar
    k = np.arange(9.0)
    curve = tmp_path / "c.csv"
    curve.write_text("t_s,n_rydberg\n" + "".join(
        f"{x!r},{y!r}\n"
        for x, y in zip((k / scale).tolist(), (2 * scale * -np.expm1(-k / 3)).tolist())
    ))
    out = tmp_path / "o"
    assert main(["fit", str(curve), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: a fit of times to ")
    assert err[0].endswith(" overflows float64")
    assert not out.exists()


def test_fit_refuses_a_curve_whose_error_bar_alone_overflows(tmp_path, capsys):
    # t_k = k s, y_k = k (1 +- 0.3) scaled to a maximum of 1e308: n_sat =
    # 1.62 and R stay in range once scaled back, n_sat_err = 2.38 does not
    k = np.arange(9.0)
    y = k * (1 + 0.3 * np.array([0, 1, -1, 1, -1, 1, -1, 1, -1]))
    curve = tmp_path / "c.csv"
    curve.write_text("t_s,n_rydberg\n" + "".join(
        f"{x!r},{v!r}\n" for x, v in zip(k.tolist(), (y / y.max() * 1e308).tolist())
    ))
    out = tmp_path / "o"
    assert main(["fit", str(curve), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: a fit of times to 8.0 s and values to 1e+308 overflows float64"]
    assert not out.exists()


def test_fit_refuses_a_curve_whose_error_bar_underflows(tmp_path, capsys):
    # t_k = k 1e150 s, y_k = 2e-150 (1 - exp(-k/3)): R = 6.7e-301 per s is
    # normal, but its error bar scales back to a subnormal 1.7e-315, which
    # came with converged = true and exit 0
    k = np.arange(9.0)
    curve = tmp_path / "c.csv"
    curve.write_text("t_s,n_rydberg\n" + "".join(
        f"{x!r},{y!r}\n"
        for x, y in zip((k * 1e150).tolist(), (2e-150 * -np.expm1(-k / 3)).tolist())
    ))
    out = tmp_path / "o"
    assert main(["fit", str(curve), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: a fit of times to 8e+150 s and values to "
                   "1.861033097554397e-150 underflows float64"]
    assert not out.exists()


def test_fit_whose_scan_overflows_warns_nothing(tmp_path, capsys):
    # values near 1e155: far from the best rate the residual sum overflows,
    # which warned (an error under -W error); the fit itself is in range
    k = np.arange(9.0)
    curve = tmp_path / "c.csv"
    curve.write_text("t_s,n_rydberg\n" + "".join(
        f"{x!r},{y!r}\n" for x, y in zip(k.tolist(), (2e155 * -np.expm1(-k / 3)).tolist())
    ))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", str(curve), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    header, row = (out / "fit.csv").read_text().splitlines()
    fit = dict(zip(header.split(","), map(float, row.split(",")[:5])))
    assert fit["n_sat"] == pytest.approx(2e155, rel=1e-12)
    assert fit["R_per_s"] == pytest.approx(2e155 / 3, rel=1e-12)
    assert all(math.isfinite(value) for value in fit.values())


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
    out = tmp_path / "o"
    assert main(["fit", str(curve), "--out", str(out)]) == 3
    assert "converge" in capsys.readouterr().err
    assert (out / "fit.csv").exists() and (out / "manifest.txt").exists()


def test_fit_of_a_straight_line_exits_3_and_still_writes_fit_csv(tmp_path, capsys):
    curve = tmp_path / "c.csv"
    t = np.linspace(0, 1e-5, 50)
    lines = ["t_s,n_rydberg"] + [f"{float(x)!r},{float(3e9 * x)!r}" for x in t]
    curve.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert main(["fit", str(curve), "--out", str(out)]) == 3
    assert "warning: fit did not converge" in capsys.readouterr().err
    header, row = (out / "fit.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["converged"] == "false"
    assert "manifest.output.fit.sha256 = " in (out / "manifest.txt").read_text()


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


def test_scaling_with_no_converged_fit_warns_of_that(tmp_path, capsys):
    # 1e10 and 1e12 m^-3 do not saturate by 1e-4 s: every fit is excluded,
    # and the exponents are lost for want of converged points, although
    # both grid axes have two values
    text = SCALING_CONFIG
    for old, new in (
        ("partition.model = simple", "partition.model = collective"),
        ("sweep.densities_m3 = 2e19, 8e19", "sweep.densities_m3 = 1e10, 1e12"),
        ("time.stop_s = 2e-5", "time.stop_s = 1e-4"),
        ("time.start_s = 1e-8", "time.start_s = 1e-9"),
    ):
        text = text.replace(old, new)
    cfg = write_config(tmp_path, text)
    out = tmp_path / "o"
    assert main(["scaling", "--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"warning: exponent {name} not identifiable: fewer than two distinct grid "
        "values among the 0 converged fits"
        for name in "abcd"
    ]
    assert "4 of 4 fits did not converge" in captured.err
    assert "single-valued" not in captured.out


def test_scaling_with_two_converged_fits_for_three_unknowns_warns_of_that(
    tmp_path, monkeypatch, capsys
):
    # only the 2 x 2 grid's anti-diagonal converged: both axes keep two
    # values, but two points cannot fix an intercept and two exponents
    cfg = write_config(tmp_path, SCALING_CONFIG)
    calls = []

    def anti_diagonal(curve, **kwargs):
        calls.append(len(calls))  # densities outer, drives inner
        return SaturationFit(1.0 + len(calls), 0.1, 2.0 + len(calls), 0.1, 0.0,
                             len(calls) in (2, 3), 10)

    monkeypatch.setattr(blockadesim.analysis, "fit_saturation", anti_diagonal)
    assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"warning: exponent {name} not identifiable: fewer converged fits (2) than unknowns (3)"
        for name in "abcd"
    ]
    assert "2 of 4 fits did not converge" in captured.err


def test_scaling_nonconverged_points_exit_code(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, SCALING_CONFIG)

    def stubborn(curve, **kwargs):
        return SaturationFit(1.0, 1.0, 0.1, 0.1, 0.0, False, 200)

    monkeypatch.setattr(blockadesim.analysis, "fit_saturation", stubborn)
    out = tmp_path / "o"
    assert main(["scaling", "--config", cfg, "--out", str(out)]) == 3
    assert "did not" in capsys.readouterr().err
    for name in ("sweep.csv", "exponents.csv", "manifest.txt"):
        assert (out / name).exists()


def test_scaling_refused_at_its_densest_point_leaves_no_directory(tmp_path, capsys):
    # the collective cell shrinks with density: 3,375 octant cells at
    # 2e19 m^-3, more than the memory limit admits at 1e38 m^-3, the last
    # grid point
    cfg = write_config(tmp_path, SCALING_CONFIG.replace(
        "partition.model = simple", "partition.model = collective"
    ).replace("sweep.densities_m3 = 2e19, 8e19", "sweep.densities_m3 = 2e19, 1e38"))
    out = tmp_path / "o"
    assert main(["scaling", "--config", cfg, "--out", str(out)]) == 4
    assert "partition cells" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config", [("cloud", CLOUD_CONFIG), ("scaling", SCALING_CONFIG)]
)
def test_missing_sigma_exits_2_naming_the_command(tmp_path, capsys, command, config):
    text = "\n".join(row for row in config.splitlines() if not row.startswith("cloud.sigma_y_m"))
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {command} needs cloud.sigma_y_m"]
    assert not out.exists()


CONFIGS = {"cloud": CLOUD_CONFIG, "exact": EXACT_CONFIG, "scaling": SCALING_CONFIG}


def unread_value(setting):
    """A value of ``setting`` that would break or change a run that read it."""
    key, kind = setting.metadata["key"], setting.metadata["kind"]
    by_key = {"exact.positions_path": "missing.xyz", "exact.basis": "restricted",
              "partition.model": "simple"}
    return by_key.get(key) or {"float": "nan", "floats": "nan"}[kind]


def reads(config, command, setting):
    """Whether ``command`` reads ``setting`` under the values ``config`` sets."""
    return (command in setting.metadata["read_by"]
            and setting.metadata["read_if"](parse_config_text(config)))


@pytest.mark.parametrize("command", ["cloud", "exact", "scaling"])
def test_keys_a_command_does_not_read_change_nothing(tmp_path, command):
    # every key the command does not read, by its declaration or under the
    # value of another key (time.start_s on linear spacing,
    # exact.restriction_radius_m on the full basis), set to a value that
    # would break it if it were read: same exit, same CSVs, same manifest
    unread = [f for f in fields(RunConfig) if not reads(CONFIGS[command], command, f)]
    assert unread
    conditional = {f.metadata["key"] for f in unread if command in f.metadata["read_by"]}
    assert conditional == {"cloud": {"time.start_s"}, "scaling": set(),
                           "exact": {"time.start_s", "exact.restriction_radius_m"}}[command]
    rows = CONFIGS[command].splitlines()
    broken = rows + [f"{f.metadata['key']} = {unread_value(f)}" for f in unread]
    outs = []
    for name, lines in (("as-is", rows), ("broken", broken)):
        out = tmp_path / name
        cfg = write_config(tmp_path, "\n".join(lines) + "\n", f"{name}.cfg")
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert "manifest.txt" in names and names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    recorded = re.findall(r"^config\.(\S+) =", (outs[0] / "manifest.txt").read_text(), re.M)
    read = [f.metadata["key"] for f in fields(RunConfig) if f not in unread]
    assert recorded and set(recorded) <= set(read)


@pytest.mark.parametrize("command, key", [
    (command, f.metadata["key"]) for f in fields(RunConfig) if f.metadata["needed"]
    for command in f.metadata["read_by"]
])
def test_a_needed_key_left_unset_exits_2_naming_it(tmp_path, capsys, command, key):
    text = "\n".join(row for row in CONFIGS[command].splitlines()
                     if row.partition(" =")[0] != key)
    assert text != CONFIGS[command].strip("\n")
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {command} needs {key}"]
    assert not out.exists()


# lines that manifests of earlier versions record although their command
# does not read them: the defaults of other commands' keys, keys set for
# other commands, and the drive that scaling filled in from its sweep
NOT_READ_BUT_RECORDED = {
    "scaling": ("physical.omega0_hz = 100000.0", "cloud.n_atoms = 15000000.0",
                "exact.basis = full"),
    "exact": ("cloud.sigma_x_m = 2.26465752498e-05", "cloud.sigma_y_m = 2.26465752498e-05",
              "cloud.sigma_z_m = 2.26465752498e-05", "partition.model = collective",
              "partition.n_min = 1.0"),
}


@pytest.mark.parametrize("command", ["scaling", "exact"])
def test_replays_manifest_recording_keys_its_command_does_not_read(tmp_path, command):
    manifest = manifest_of(tmp_path, command)
    recorded = manifest.read_text()
    lines = recorded.splitlines()
    config = [line for line in lines if line.startswith("config.")]
    config += [f"config.{line}" for line in NOT_READ_BUT_RECORDED[command]]
    # in the order of RunConfig, as those versions wrote them, with the
    # retired partition.n_min after partition.model
    order = [f.metadata["key"] for f in fields(RunConfig)]
    order.insert(order.index("partition.model") + 1, "partition.n_min")
    config.sort(key=lambda line: order.index(line[len("config."):].partition(" =")[0]))
    manifest.write_text("\n".join(
        [line for line in lines if not line.startswith("config.")] + config) + "\n")
    out = tmp_path / "replay"
    assert main([command, "--config", str(manifest), "--out", str(out)]) == 0
    assert (out / "manifest.txt").read_text() == recorded
    for csv in manifest.parent.glob("*.csv"):
        assert (out / csv.name).read_bytes() == csv.read_bytes()


# partition.n_min, retired, dropped cells of smaller superatoms; at 0.0,
# the value that every benchmark config still sets, it dropped none
@pytest.mark.parametrize("command, value", [("cloud", "0.0"), ("scaling", "0.0"),
                                            ("exact", "1.0")])
def test_retired_n_min_line_that_replays_changes_nothing(tmp_path, command, value):
    # exact never read the key, so any value of it replays there
    outs = []
    for name, text in (("without", CONFIGS[command]),
                       ("with", CONFIGS[command] + f"partition.n_min = {value}\n")):
        out = tmp_path / name
        cfg = write_config(tmp_path, text, f"{name}.cfg")
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert "manifest.txt" in names and names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("value", ["1.0", "nan"])
@pytest.mark.parametrize("command", ["cloud", "scaling"])
def test_retired_n_min_line_that_cannot_replay_exits_2(tmp_path, capsys, command, value):
    cfg = write_config(tmp_path, CONFIGS[command] + f"partition.n_min = {value}\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"partition.n_min = {value} cannot be reproduced" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["cloud", "scaling"])
def test_replays_a_manifest_recording_n_min_only_at_0(tmp_path, capsys, command):
    # earlier manifests record the partition's n_min: 0.0 replays, and the
    # old default 1.0, which dropped the cells of superatoms under one atom,
    # cannot be reproduced
    manifest = manifest_of(tmp_path, command)
    recorded = manifest.read_text()
    manifest.write_text(recorded + "config.partition.n_min = 0.0\n")
    out = tmp_path / "replay"
    assert main([command, "--config", str(manifest), "--out", str(out)]) == 0
    assert (out / "manifest.txt").read_text() == recorded
    for csv in manifest.parent.glob("*.csv"):
        assert (out / csv.name).read_bytes() == csv.read_bytes()
    manifest.write_text(recorded + "config.partition.n_min = 1.0\n")
    refused = tmp_path / "refused"
    capsys.readouterr()
    assert main([command, "--config", str(manifest), "--out", str(refused)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "partition.n_min = 1.0 cannot be reproduced" in err[0]
    assert not refused.exists()


def test_exact_nanometre_pair_exits_2_and_leaves_no_directory(tmp_path, capsys):
    # a pair shift of 1.6e28 rad/s: float64 cannot resolve the 1 MHz drive
    positions = tmp_path / "atoms.txt"
    positions.write_text("0 0 0\n1e-9 0 0\n")
    cfg = write_config(tmp_path, exact_config(positions))
    out = tmp_path / "o"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 2
    assert "below float64 rounding of the spectral width" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [("--seed", "1"), ("--model", "simple")], ids=["seed", "model"])
@pytest.mark.parametrize("command", ["cloud", "exact", "scaling"])
def test_config_subcommands_refuse_override_flags(command, flag):
    # each setting has one source, its config line
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--config", "run.cfg", *flag])
    assert excinfo.value.code == 2


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


def test_missing_config_file_exit_code(tmp_path, capsys):
    assert main(["cloud", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "cloud", "exact"])
def test_non_utf8_input_file_exits_2_naming_it(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    if command == "fit":
        bad.write_bytes(b"t_s,n_rydberg\n0.0,\xff\n")
        argv = ["fit", str(bad)]
    elif command == "cloud":
        bad.write_bytes(CLOUD_CONFIG.encode() + b"# \xff\n")
        argv = ["cloud", "--config", str(bad)]
    else:
        bad.write_bytes(b"0 0 0\n2e-7 0 0 # \xff\n")
        argv = ["exact", "--config", write_config(tmp_path, exact_config(bad))]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: not UTF-8 text" in err
    assert not out.exists()


def test_out_naming_an_existing_file_exits_2(tmp_path, capsys):
    curve = tmp_path / "c.csv"
    curve.write_text("t_s,n_rydberg\n0.0,0.0\n1.0,0.6\n2.0,0.9\n3.0,1.0\n")
    afile = tmp_path / "afile"
    afile.write_text("kept")
    assert main(["fit", str(curve), "--out", str(afile)]) == 2
    assert f"output directory {afile}: " in capsys.readouterr().err
    assert afile.read_text() == "kept"


def test_output_that_cannot_be_written_exits_2_naming_it(tmp_path, capsys):
    # os.replace cannot rename the written temp file over a directory
    out = tmp_path / "o"
    (out / "trajectory.csv").mkdir(parents=True)
    cfg = write_config(tmp_path, EXACT_CONFIG)
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot write {out / 'trajectory.csv'}: Is a directory"]
    assert os.listdir(out) == ["trajectory.csv"]  # the temp file is removed


def test_output_that_cannot_be_written_removes_the_outputs_already_written(tmp_path, capsys):
    # ensemble.csv is written before curve.csv, which a directory blocks
    out = tmp_path / "o"
    (out / "curve.csv").mkdir(parents=True)
    cfg = write_config(tmp_path, CLOUD_CONFIG)
    assert main(["cloud", "--config", cfg, "--out", str(out)]) == 2
    assert f"error: cannot write {out / 'curve.csv'}: " in capsys.readouterr().err
    assert os.listdir(out) == ["curve.csv"]


def test_manifest_that_cannot_be_written_removes_the_out_it_made(tmp_path, capsys, monkeypatch):
    def full_disk(path, **_):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(blockadesim.cli, "write_manifest", full_disk)
    cfg = write_config(tmp_path, CLOUD_CONFIG)
    assert main(["cloud", "--config", cfg, "--out", str(tmp_path / "new" / "o")]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


def test_writer_bug_removes_the_outputs_and_out_it_made_and_propagates(tmp_path, monkeypatch):
    # ensemble.csv is written before curve.csv, whose writer fails with an
    # exception that is not the program's (so not an exit code but a crash)
    def buggy_writer(path, curve):
        raise ValueError("writer bug")

    monkeypatch.setattr(blockadesim.cli, "write_curve_csv", buggy_writer)
    cfg = write_config(tmp_path, CLOUD_CONFIG)
    with pytest.raises(ValueError, match="writer bug"):
        main(["cloud", "--config", cfg, "--out", str(tmp_path / "o" / "deep")])
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command", ["cloud", "exact"])
def test_non_finite_stop_time_exits_2_naming_the_key(tmp_path, capsys, command, value):
    config = {"cloud": CLOUD_CONFIG, "exact": EXACT_CONFIG}[command]
    text = re.sub(r"time\.stop_s = \S+", f"time.stop_s = {value}", config)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
    assert "time.stop_s must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "error, code",
    [(error, 4 if error is errors.SizeCapError else 2) for error in package_errors()],
)
def test_package_errors_map_to_exit_codes(monkeypatch, capsys, error, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setitem(blockadesim.cli._COMMANDS, "fit", fail)
    assert main(["fit", "curve.csv"]) == code
    assert "error: boom" in capsys.readouterr().err


# run in a fresh interpreter: no step before exact may load scipy, and exact
# must still run, loading it but not scipy.fft, whose import alone raises ru_maxrss
NO_SCIPY_SCRIPT = """
import sys

def assert_no_scipy(step):
    loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
    assert not loaded, f"{step} loaded {loaded[:3]}"

import blockadesim
assert_no_scipy("import blockadesim")
from blockadesim.cli import main
assert_no_scipy("import blockadesim.cli")
cloud, scaling, exact = sys.argv[1:]
for argv in (["cloud", "--config", cloud, "--out", "c"],
             ["scaling", "--config", scaling, "--out", "s"],
             ["fit", "c/curve.csv", "--out", "f"]):
    assert main(argv) == 0, argv
    assert_no_scipy(argv[0])
assert main(["exact", "--config", exact, "--out", "e"]) == 0
assert "scipy.linalg" in sys.modules
assert not any(name.startswith("scipy.fft") for name in sys.modules)
"""


def test_cloud_scaling_and_fit_never_load_scipy(tmp_path):
    configs = [write_config(tmp_path, text, f"{name}.cfg") for name, text in (
        ("cloud", CLOUD_CONFIG), ("scaling", SCALING_CONFIG), ("exact", EXACT_CONFIG)
    )]
    src = os.path.dirname(os.path.dirname(blockadesim.cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, *configs],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (Path("e") / "trajectory.csv").exists()


# the values at float64's edges that every float and every int key takes
EXTREME_VALUES = {
    "float": ("nan", "inf", "-inf", "-1", "0", "1e-300", "1e300", "5e-324", "-0.0"),
    "int": ("-1", "0", "1e18"),
}


def test_extreme_config_values_exit_cleanly(tmp_path, capsys):
    """Each float and int key of RunConfig, at each extreme value, on each
    config command: the run exits 0, 2, 3 or 4, raises nothing (tier-1
    turns a numpy RuntimeWarning into an error) and leaves no --out when it
    exits 2 or 4."""
    failures = []
    runs = 0
    for command, config in (
        ("cloud", CLOUD_CONFIG), ("exact", EXACT_CONFIG), ("scaling", SCALING_CONFIG)
    ):
        for setting in fields(RunConfig):
            key = setting.metadata["key"]
            rows = [row for row in config.splitlines() if row.partition("=")[0].strip() != key]
            for value in EXTREME_VALUES.get(setting.metadata["kind"], ()):
                runs += 1
                cfg = write_config(tmp_path, "\n".join([*rows, f"{key} = {value}"]) + "\n")
                out = tmp_path / "o"
                try:
                    code = main([command, "--config", cfg, "--out", str(out)])
                except Exception as exc:
                    failures.append(f"{command} {key} = {value}: {exc!r}")
                    continue
                finally:
                    capsys.readouterr()
                if code not in (0, 2, 3, 4) or (code in (2, 4) and out.exists()):
                    failures.append(f"{command} {key} = {value}: exit {code}")
                shutil.rmtree(out, ignore_errors=True)
    assert runs == 252
    assert not failures, "\n".join(failures)
