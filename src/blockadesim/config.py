"""Run configuration: flat ``key = value`` files.

One assignment per line, ``#`` starts a full-line comment, keys are
dotted lowercase. Unknown keys are rejected by name so typos fail fast.
Manifests written by the CLI parse as configs too: ``manifest.*`` keys
and the ``config.*`` lines of retired settings are ignored, and a leading
``config.`` prefix is stripped.
No key sets a size limit: each large step estimates its bytes and is
refused before allocating past ``core.MEMORY_LIMIT_BYTES`` (exit code 4).
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields

import numpy as np

from .cloud import MODELS, CloudSpec
from .core import PhysicalParams, TwoPhotonDrive, convert_c6_atomic_units, two_photon_rabi
from .errors import ConfigError

__all__ = ["RunConfig", "load_config", "parse_config_text", "parse_value", "config_items"]


def _key(
    key: str, kind: str, default=None, choices: tuple[str, ...] = (), flag: str | None = None
):
    """Declare one setting: its dotted key, value kind ("float", "int",
    "str" or "floats"), default, allowed values and optional CLI flag."""
    return field(
        default=default,
        metadata={"key": key, "kind": kind, "choices": choices, "flag": flag},
    )


@dataclass
class RunConfig:
    """All recognized keys with their defaults; None means unset."""

    omega0_hz: float | None = _key("physical.omega0_hz", "float")
    omega1_hz: float | None = _key("physical.omega1_hz", "float")
    omega2_hz: float | None = _key("physical.omega2_hz", "float")
    delta_hz: float | None = _key("physical.delta_hz", "float")
    c6_au: float | None = _key("physical.c6_au", "float")
    c6_jm6: float | None = _key("physical.c6_jm6", "float")
    gamma_per_s: float = _key("physical.gamma_per_s", "float", 0.0)
    kappa: float = _key("physical.kappa", "float", 1.0)
    detuning_hz: float = _key("physical.detuning_hz", "float", 0.0)
    cloud_n_atoms: float | None = _key("cloud.n_atoms", "float")
    peak_density_m3: float | None = _key("cloud.peak_density_m3", "float")
    sigma_x_m: float | None = _key("cloud.sigma_x_m", "float")
    sigma_y_m: float | None = _key("cloud.sigma_y_m", "float")
    sigma_z_m: float | None = _key("cloud.sigma_z_m", "float")
    model: str = _key("partition.model", "str", "collective", choices=MODELS, flag="--model")
    n_min: float = _key("partition.n_min", "float", 1.0)
    span_sigmas: float = _key("partition.span_sigmas", "float", 5.0)
    time_stop_s: float | None = _key("time.stop_s", "float")
    time_start_s: float | None = _key("time.start_s", "float")
    time_num: int = _key("time.num", "int", 200)
    time_spacing: str = _key("time.spacing", "str", "linear", choices=("linear", "log"))
    exact_n_atoms: int | None = _key("exact.n_atoms", "int")
    positions_path: str | None = _key("exact.positions_path", "str")
    basis: str = _key("exact.basis", "str", "full", choices=("full", "restricted"))
    restriction_radius_m: float | None = _key("exact.restriction_radius_m", "float")
    sweep_densities_m3: tuple[float, ...] | None = _key("sweep.densities_m3", "floats")
    sweep_omega0_hz: tuple[float, ...] | None = _key("sweep.omega0_hz", "floats")
    seed: int = _key("run.seed", "int", 0, flag="--seed")


_KEYS: dict[str, Field] = {f.metadata["key"]: f for f in fields(RunConfig)}

# manifest lines of settings that never changed a result; replays skip them
_RETIRED = {"config.run.threads", "config.exact.max_atoms_full",
            "config.exact.max_atoms_restricted", "config.partition.cell_cap"}


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        number = float(text)  # integral literals such as 1e7
        if not number.is_integer():
            raise ValueError(f"{text!r} is not an integer") from None
        return int(number)


def parse_value(setting: Field, text: str):
    """Parse one value of a RunConfig field; errors name its dotted key."""
    key, kind = setting.metadata["key"], setting.metadata["kind"]
    try:
        if kind == "float":
            return float(text)
        if kind == "int":
            return _parse_int(text)
        if kind == "floats":
            parts = [p.strip() for p in text.split(",") if p.strip()]
            if not parts:
                raise ValueError("empty list")
            return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc
    choices = setting.metadata["choices"]
    if choices and text not in choices:
        raise ConfigError(f"bad value for {key}: expected one of {choices}, got {text!r}")
    return text


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    seen: dict[str, int] = {}
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}, line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key.startswith("manifest.") or key in _RETIRED:
            continue
        if key.startswith("config."):
            key = key[len("config.") :]
        if key not in _KEYS:
            raise ConfigError(f"{source}, line {lineno}: unknown configuration key {key!r}")
        if key in seen:
            raise ConfigError(
                f"{source}, line {lineno}: duplicate key {key!r} (first on line {seen[key]})"
            )
        seen[key] = lineno
        setting = _KEYS[key]
        setattr(cfg, setting.name, parse_value(setting, value))
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    return parse_config_text(text, source=path)


def config_items(cfg: RunConfig) -> list[tuple[str, str]]:
    """Dump the resolved configuration as (dotted key, string) pairs.

    Unset optional keys are omitted; everything else round-trips through
    parse_config_text bit-exactly (floats via repr).
    """
    items = []
    for key, setting in _KEYS.items():
        kind = setting.metadata["kind"]
        value = getattr(cfg, setting.name)
        if value is None:
            continue
        if kind == "float":
            text = repr(float(value))
        elif kind == "int":
            text = str(int(value))
        elif kind == "floats":
            text = ",".join(repr(float(v)) for v in value)
        else:
            text = str(value)
        items.append((key, text))
    return items


def resolve_params(cfg: RunConfig) -> PhysicalParams:
    """Build PhysicalParams from a config, enforcing one route per quantity."""
    direct = cfg.omega0_hz is not None
    two_photon = any(
        v is not None for v in (cfg.omega1_hz, cfg.omega2_hz, cfg.delta_hz)
    )
    if direct and two_photon:
        raise ConfigError(
            "give either physical.omega0_hz or the two-photon trio, not both"
        )
    if direct:
        omega0_hz = cfg.omega0_hz
    elif two_photon:
        if None in (cfg.omega1_hz, cfg.omega2_hz, cfg.delta_hz):
            raise ConfigError(
                "two-photon drive needs physical.omega1_hz, omega2_hz and delta_hz"
            )
        drive = TwoPhotonDrive.from_hz(cfg.omega1_hz, cfg.omega2_hz, cfg.delta_hz)
        omega0_hz = abs(two_photon_rabi(drive)) / (2.0 * np.pi)
    else:
        raise ConfigError("no drive strength configured (physical.omega0_hz)")

    if (cfg.c6_au is None) == (cfg.c6_jm6 is None):
        raise ConfigError("give exactly one of physical.c6_au or physical.c6_jm6")
    c6 = convert_c6_atomic_units(cfg.c6_au) if cfg.c6_au is not None else cfg.c6_jm6
    return PhysicalParams.from_hz(omega0_hz, c6, cfg.gamma_per_s, cfg.kappa)


def resolve_cloud(cfg: RunConfig) -> CloudSpec:
    sigma = (cfg.sigma_x_m, cfg.sigma_y_m, cfg.sigma_z_m)
    if any(s is None for s in sigma):
        raise ConfigError("cloud needs cloud.sigma_x_m, sigma_y_m and sigma_z_m")
    if (cfg.cloud_n_atoms is None) == (cfg.peak_density_m3 is None):
        raise ConfigError("give exactly one of cloud.n_atoms or cloud.peak_density_m3")
    if cfg.cloud_n_atoms is not None:
        return CloudSpec(cfg.cloud_n_atoms, sigma)
    return CloudSpec.from_peak_density(cfg.peak_density_m3, sigma)


def resolve_time_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.time_stop_s is None or cfg.time_stop_s <= 0.0:
        raise ConfigError("time.stop_s must be set and positive")
    if cfg.time_num < 1:
        raise ConfigError("time.num must be at least 1")
    if cfg.time_spacing == "linear":
        return np.linspace(0.0, cfg.time_stop_s, cfg.time_num)
    start = cfg.time_start_s
    if start is None or not (0.0 < start < cfg.time_stop_s):
        raise ConfigError("log spacing needs 0 < time.start_s < time.stop_s")
    if cfg.time_num < 2:
        raise ConfigError("log spacing needs time.num >= 2")
    return np.concatenate(
        [[0.0], np.geomspace(start, cfg.time_stop_s, cfg.time_num - 1)]
    )
