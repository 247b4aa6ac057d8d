"""Config parsing, resolution helpers, manifest round trips."""

import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from blockadesim.config import (
    RunConfig,
    config_items,
    parse_config_text,
    resolve_cloud,
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
    assert cfg.n_min == 1.0  # untouched default


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="physical.omega_hz"):
        parse_config_text("physical.omega_hz = 1.0")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("run.seed = 1\nrun.seed = 2\n")


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just some words")


def test_bad_float_cites_key():
    with pytest.raises(ConfigError, match="physical.kappa"):
        parse_config_text("physical.kappa = big")


def test_bad_choice_rejected():
    with pytest.raises(ConfigError, match="partition.model"):
        parse_config_text("partition.model = exactish")


def test_integer_keys_accept_integral_literals():
    cfg = parse_config_text("time.num = 2e2")
    assert cfg.time_num == 200
    assert ("time.num", "200") in config_items(cfg)
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
        config.run.seed = 9
        config.partition.n_min = 0.0
        """
    )
    assert cfg.seed == 9
    assert cfg.n_min == 0.0


def test_config_items_round_trip():
    cfg = RunConfig(
        omega0_hz=210e3,
        c6_au=1.7e19,
        cloud_n_atoms=1.5e7,
        sigma_x_m=2e-5,
        sigma_y_m=2e-5,
        sigma_z_m=2e-5,
        n_min=0.0,
        time_stop_s=2e-5,
        time_num=100,
        sweep_densities_m3=(1e19, 2e19),
        seed=5,
    )
    text = "\n".join(f"{k} = {v}" for k, v in config_items(cfg))
    assert parse_config_text(text) == cfg


def test_resolve_params_direct_route():
    cfg = parse_config_text("physical.omega0_hz = 210e3\nphysical.c6_au = 1.7e19")
    params = resolve_params(cfg)
    assert params.omega0 == pytest.approx(2 * math.pi * 210e3, rel=1e-12)
    assert params.c6 == pytest.approx(1.6274841951863897e-60, rel=1e-12)


def test_resolve_params_two_photon_route():
    cfg = parse_config_text(
        """
        physical.omega1_hz = 9.7e6
        physical.omega2_hz = 21e6
        physical.delta_hz = 478e6
        physical.c6_jm6 = 1.6274841951863897e-60
        """
    )
    params = resolve_params(cfg)
    assert params.omega0 == pytest.approx(2 * math.pi * 213075.31380753138, rel=1e-12)


def test_resolve_params_rejects_conflicting_drive():
    cfg = parse_config_text(
        "physical.omega0_hz = 210e3\nphysical.omega1_hz = 9.7e6\nphysical.c6_au = 1.7e19"
    )
    with pytest.raises(ConfigError, match="not both"):
        resolve_params(cfg)


def test_resolve_params_requires_complete_two_photon_trio():
    cfg = parse_config_text("physical.omega1_hz = 9.7e6\nphysical.c6_au = 1.7e19")
    with pytest.raises(ConfigError, match="two-photon"):
        resolve_params(cfg)


def test_resolve_params_requires_exactly_one_c6():
    with pytest.raises(ConfigError, match="c6"):
        resolve_params(parse_config_text("physical.omega0_hz = 210e3"))
    with pytest.raises(ConfigError, match="c6"):
        resolve_params(
            parse_config_text(
                "physical.omega0_hz = 210e3\nphysical.c6_au = 1.7e19\nphysical.c6_jm6 = 1e-60"
            )
        )


def test_resolve_cloud_requires_one_size_route():
    base = "cloud.sigma_x_m = 2e-5\ncloud.sigma_y_m = 2e-5\ncloud.sigma_z_m = 2e-5\n"
    with pytest.raises(ConfigError, match="exactly one"):
        resolve_cloud(parse_config_text(base))
    cloud = resolve_cloud(parse_config_text(base + "cloud.peak_density_m3 = 8.2e19"))
    assert cloud.n_atoms > 0
    with pytest.raises(ConfigError, match="sigma"):
        resolve_cloud(parse_config_text("cloud.n_atoms = 1e7"))


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


def test_resolve_time_grid_validation():
    with pytest.raises(ConfigError, match="stop_s"):
        resolve_time_grid(parse_config_text("time.num = 5"))
    with pytest.raises(ConfigError, match="start_s"):
        resolve_time_grid(parse_config_text("time.stop_s = 1e-5\ntime.spacing = log"))
    with pytest.raises(ConfigError, match="num"):
        resolve_time_grid(parse_config_text("time.stop_s = 1e-5\ntime.num = 0"))


def test_readme_documents_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = [
        f.metadata["key"] for f in fields(RunConfig) if f"`{f.metadata['key']}`" not in readme
    ]
    assert missing == []
