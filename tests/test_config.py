"""Config parsing, resolution helpers, manifest round trips."""

import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from blockadesim.config import (
    RunConfig,
    config_items,
    load_config,
    parse_config_text,
    resolve_params,
    resolve_time_grid,
)
from blockadesim.errors import ConfigError


def test_parse_minimal_config():
    cfg = parse_config_text(
        """
        # drive and interaction
        physical.omega0_hz = 210e3
        physical.c6_au = 1.7e19
        partition.model = simple
        """
    )
    assert cfg.omega0_hz == 210e3
    assert cfg.c6_au == 1.7e19
    assert cfg.model == "simple"


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="physical.omega_hz"):
        parse_config_text("physical.omega_hz = 1.0")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("time.num = 1\ntime.num = 2\n")


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just some words")


def test_bad_float_cites_key():
    with pytest.raises(ConfigError, match="bad value for physical.c6_au"):
        parse_config_text("physical.c6_au = big")


def test_bad_choice_rejected():
    with pytest.raises(ConfigError, match="partition.model"):
        parse_config_text("partition.model = exactish")


def test_integer_keys_accept_integral_literals():
    cfg = parse_config_text("time.num = 2e2")
    assert cfg.time_num == 200
    assert ("time.num", "200") in config_items(cfg, "cloud")
    with pytest.raises(ConfigError, match="time.num"):
        parse_config_text("time.num = 1.5")


def test_list_values_parse():
    cfg = parse_config_text("sweep.densities_m3 = 1e19, 3e19,9e19")
    assert cfg.sweep_densities_m3 == (1e19, 3e19, 9e19)


def test_manifest_lines_are_config_compatible():
    cfg = parse_config_text(
        """
        manifest.tool = blockadesim
        manifest.output.curve = curve.csv
        manifest.output.curve.sha256 = 0000
        config.time.num = 9
        config.partition.n_min = 0.0
        """
    )
    # the retired partition.n_min replays at 0.0 and sets nothing
    assert cfg == replace(RunConfig(), time_num=9)


def test_config_items_round_trip():
    cfg = RunConfig(
        omega0_hz=210e3,
        c6_au=1.7e19,
        cloud_n_atoms=1.5e7,
        sigma_x_m=2e-5,
        sigma_y_m=2e-5,
        sigma_z_m=2e-5,
        time_stop_s=2e-5,
        time_num=100,
        sweep_densities_m3=(1e19, 2e19),
        positions_path="atoms.txt",
    )
    # each command records the keys it reads, and only those
    for command in ("cloud", "exact", "scaling"):
        text = "\n".join(f"{k} = {v}" for k, v in config_items(cfg, command))
        read = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)
                if command in f.metadata["read_by"]}
        assert parse_config_text(text) == replace(RunConfig(), **read)


def test_resolve_params_direct_route():
    cfg = parse_config_text("physical.omega0_hz = 210e3\nphysical.c6_au = 1.7e19")
    params = resolve_params(cfg)
    assert params.omega0 == pytest.approx(2 * math.pi * 210e3, rel=1e-12)
    assert params.c6 == pytest.approx(1.6274841951863897e-60, rel=1e-12)


CLOUD = """\
physical.omega0_hz = 210e3
physical.c6_au = 1.7e19
cloud.n_atoms = 1e7
cloud.sigma_x_m = 2e-5
cloud.sigma_y_m = 2e-5
cloud.sigma_z_m = 2e-5
time.stop_s = 1e-5
"""


def load_without(tmp_path, keys, command="cloud"):
    """load_config of CLOUD with the rows of ``keys`` left out."""
    path = tmp_path / "run.cfg"
    path.write_text("".join(row for row in CLOUD.splitlines(keepends=True)
                            if row.partition(" =")[0] not in keys))
    return load_config(str(path), command)


def test_resolve_params_requires_exactly_one_c6(tmp_path):
    with pytest.raises(ConfigError, match="^cloud needs physical.c6_au$"):
        load_without(tmp_path, {"physical.c6_au"})
    with pytest.raises(ConfigError, match="^cloud needs physical.omega0_hz$"):
        load_without(tmp_path, {"physical.omega0_hz"})


def test_resolve_cloud_requires_one_size_route(tmp_path):
    with pytest.raises(ConfigError, match="^cloud needs cloud.n_atoms$"):
        load_without(tmp_path, {"cloud.n_atoms"})
    with pytest.raises(ConfigError, match="^cloud needs cloud.sigma_x_m, cloud.sigma_z_m$"):
        load_without(tmp_path, {"cloud.sigma_x_m", "cloud.sigma_z_m"})


def test_resolve_time_grid_linear():
    cfg = parse_config_text("time.stop_s = 1e-5\ntime.num = 5")
    assert np.allclose(resolve_time_grid(cfg), np.linspace(0, 1e-5, 5))


def test_resolve_time_grid_single_point_is_zero():
    cfg = parse_config_text("time.stop_s = 1e-5\ntime.num = 1")
    assert np.array_equal(resolve_time_grid(cfg), [0.0])


def test_resolve_time_grid_log():
    cfg = parse_config_text(
        "time.stop_s = 1e-4\ntime.start_s = 1e-9\ntime.num = 4\ntime.spacing = log"
    )
    grid = resolve_time_grid(cfg)
    assert grid[0] == 0.0
    assert np.allclose(grid[1:], np.geomspace(1e-9, 1e-4, 3))


def test_log_time_grid_needs_three_points_to_reach_the_stop_time():
    # 0 and time.start_s take two points; with none left, geomspace of one
    # point would return time.start_s and drop time.stop_s
    log = "time.stop_s = 1e-4\ntime.start_s = 1e-9\ntime.spacing = log\n"
    for num in (1, 2):
        with pytest.raises(ConfigError, match="log spacing needs time.num >= 3"):
            resolve_time_grid(parse_config_text(log + f"time.num = {num}"))
    assert resolve_time_grid(parse_config_text(log + "time.num = 3")).tolist() == [0.0, 1e-9, 1e-4]


def test_resolve_time_grid_validation(tmp_path):
    with pytest.raises(ConfigError, match="^exact needs time.stop_s, exact.positions_path$"):
        load_without(tmp_path, {"time.stop_s"}, "exact")
    with pytest.raises(ConfigError, match="time.stop_s must be positive"):
        resolve_time_grid(parse_config_text("time.stop_s = 0"))
    with pytest.raises(ConfigError, match="start_s"):
        resolve_time_grid(parse_config_text("time.stop_s = 1e-5\ntime.spacing = log"))
    with pytest.raises(ConfigError, match="num"):
        resolve_time_grid(parse_config_text("time.stop_s = 1e-5\ntime.num = 0"))


def test_readme_documents_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    keys = {f.metadata["key"] for f in fields(RunConfig)}
    missing = [key for key in keys if f"`{key}`" not in readme]
    assert missing == []
    # and the key table names no key that RunConfig lacks, such as a deleted one
    table = readme.split("### Configuration keys", 1)[1].split("\n#", 1)[0]
    documented = set(re.findall(r"`([a-z0-9_]+\.[a-z0-9_]+)`", table))
    assert documented == keys
