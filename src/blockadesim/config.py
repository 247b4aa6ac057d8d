"""Run configuration: flat ``key = value`` files.

One assignment per line, ``#`` starts a full-line comment, keys are
dotted lowercase. Unknown keys are rejected by name so typos fail fast.
Manifests written by the CLI parse as configs too: ``manifest.*`` keys
set nothing (load_config returns the command and input digests they
record), a ``config.*`` line of a retired setting is skipped if its value
replays and refused if not, and a leading ``config.`` prefix is stripped.
No key sets a size limit: each large step estimates its bytes and is
refused before allocating past ``core.MEMORY_LIMIT_BYTES`` (exit code 4).
"""

from __future__ import annotations

import math
import re
from dataclasses import Field, dataclass, field, fields

import numpy as np

from .cloud import MODELS, SPAN_SIGMAS, CloudSpec
from .core import PhysicalParams, convert_c6_atomic_units, require_memory
from .errors import ConfigError, read_lines

__all__ = ["RunConfig", "load_config", "parse_config_text", "config_items"]


def _key(key: str, kind: str, default=None, choices: tuple[str, ...] = ()):
    """Declare one setting: its dotted key, value kind ("float", "int",
    "str" or "floats"), default and allowed values."""
    return field(default=default, metadata={"key": key, "kind": kind, "choices": choices})


@dataclass
class RunConfig:
    """All recognized keys with their defaults; None means unset."""

    omega0_hz: float | None = _key("physical.omega0_hz", "float")
    c6_au: float | None = _key("physical.c6_au", "float")
    cloud_n_atoms: float | None = _key("cloud.n_atoms", "float")
    sigma_x_m: float | None = _key("cloud.sigma_x_m", "float")
    sigma_y_m: float | None = _key("cloud.sigma_y_m", "float")
    sigma_z_m: float | None = _key("cloud.sigma_z_m", "float")
    model: str = _key("partition.model", "str", "collective", choices=MODELS)
    n_min: float = _key("partition.n_min", "float", 1.0)
    time_stop_s: float | None = _key("time.stop_s", "float")
    time_start_s: float | None = _key("time.start_s", "float")
    time_num: int = _key("time.num", "int", 200)
    time_spacing: str = _key("time.spacing", "str", "linear", choices=("linear", "log"))
    positions_path: str | None = _key("exact.positions_path", "str")
    basis: str = _key("exact.basis", "str", "full", choices=("full", "restricted"))
    restriction_radius_m: float | None = _key("exact.restriction_radius_m", "float")
    sweep_densities_m3: tuple[float, ...] | None = _key("sweep.densities_m3", "floats")
    sweep_omega0_hz: tuple[float, ...] | None = _key("sweep.omega0_hz", "floats")


_KEYS: dict[str, Field] = {f.metadata["key"]: f for f in fields(RunConfig)}
# the manifest line of an input's digest, as runio.write_manifest writes it
_INPUT_DIGEST = re.compile(r"manifest\.input\.(\w+)\.sha256")

# manifest lines of retired settings, each with the one value that the
# program still computes with, or None if no value changed a result
# (run.seed changed one only with exact.n_atoms, an unknown key now);
# replays skip such a line and refuse a value they cannot reproduce
_RETIRED = {"config.run.threads": None, "config.exact.max_atoms_full": None,
            "config.exact.max_atoms_restricted": None, "config.partition.cell_cap": None,
            "config.physical.kappa": 1.0, "config.physical.gamma_per_s": 0.0,
            "config.physical.detuning_hz": 0.0, "config.run.seed": None,
            "config.partition.span_sigmas": SPAN_SIGMAS}


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        number = float(text)  # integral literals such as 1e7
        if not number.is_integer():
            raise ValueError(f"{text!r} is not an integer") from None
        return int(number)


def _parse_floats(text: str) -> tuple[float, ...]:
    values = tuple(float(p) for p in text.split(",") if p.strip())
    if not values:
        raise ValueError("empty list")
    return values


# value kind: (parse the config text, print it back bit-exactly)
_KINDS = {
    "float": (float, lambda value: repr(float(value))),
    "int": (_parse_int, lambda value: str(int(value))),
    "floats": (_parse_floats, lambda values: ",".join(repr(float(v)) for v in values)),
    "str": (str, str),
}


def _parse_value(setting: Field, text: str):
    """Parse one value of a RunConfig field; errors name its dotted key."""
    key, kind = setting.metadata["key"], setting.metadata["kind"]
    try:
        value = _KINDS[kind][0](text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc
    choices = setting.metadata["choices"]
    if choices and value not in choices:
        raise ConfigError(f"bad value for {key}: expected one of {choices}, got {text!r}")
    return value


def _replays(key: str, text: str) -> bool:
    """Whether a manifest's line of the retired ``key`` can be reproduced."""
    value = _RETIRED[key]
    try:
        return value is None or float(text) == value
    except ValueError:
        return False


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
        if key.startswith("manifest."):
            continue
        if key in _RETIRED:
            if not _replays(key, value):
                raise ConfigError(
                    f"{source}, line {lineno}: {key[len('config.'):]} = {value} cannot be"
                    f" reproduced; the setting is retired and replays only at {_RETIRED[key]!r}"
                )
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
        setattr(cfg, setting.name, _parse_value(setting, value))
    return cfg


def load_config(path: str) -> tuple[RunConfig, dict[str, str], str | None]:
    """The configuration in ``path`` and what it records as a manifest: the
    sha256 digest of each input, by input name, and the command that wrote
    it ({} and None for a plain config file)."""
    lines = list(read_lines(path, ConfigError))
    cfg = parse_config_text("\n".join(lines), source=path)
    entries = (line.partition("=") for line in lines)
    recorded = {key.strip(): value.strip() for key, _, value in entries}
    digests = {m[1]: v for k, v in recorded.items() if (m := _INPUT_DIGEST.fullmatch(k))}
    return cfg, digests, recorded.get("manifest.command")


def config_items(cfg: RunConfig) -> list[tuple[str, str]]:
    """Dump the resolved configuration as (dotted key, string) pairs.

    Unset optional keys are omitted; everything else round-trips through
    parse_config_text bit-exactly (floats via repr).
    """
    items = []
    for key, setting in _KEYS.items():
        value = getattr(cfg, setting.name)
        if value is not None:
            items.append((key, _KINDS[setting.metadata["kind"]][1](value)))
    return items


def resolve_params(cfg: RunConfig) -> PhysicalParams:
    """Build PhysicalParams from physical.omega0_hz and physical.c6_au."""
    if cfg.omega0_hz is None:
        raise ConfigError("no drive strength configured (physical.omega0_hz)")
    if cfg.c6_au is None:
        raise ConfigError("no van der Waals coefficient configured (physical.c6_au)")
    return PhysicalParams.from_hz(cfg.omega0_hz, convert_c6_atomic_units(cfg.c6_au))


def resolve_sigma(cfg: RunConfig, command: str) -> tuple[float, float, float]:
    """The cloud's three rms radii, which ``command`` needs all set."""
    sigma = (cfg.sigma_x_m, cfg.sigma_y_m, cfg.sigma_z_m)
    if any(s is None for s in sigma):
        raise ConfigError(f"{command} needs cloud.sigma_x_m, sigma_y_m and sigma_z_m")
    return sigma


def resolve_cloud(cfg: RunConfig, command: str) -> CloudSpec:
    """The Gaussian cloud that ``command`` partitions."""
    sigma = resolve_sigma(cfg, command)
    if cfg.cloud_n_atoms is None:
        raise ConfigError(f"{command} needs cloud.n_atoms")
    return CloudSpec(cfg.cloud_n_atoms, sigma)


def resolve_time_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.time_stop_s is None or not 0.0 < cfg.time_stop_s < math.inf:
        raise ConfigError("time.stop_s must be set, positive and finite")
    if cfg.time_num < 1:
        raise ConfigError("time.num must be at least 1")
    require_memory(8.0 * cfg.time_num, f"a time grid of {cfg.time_num:.3g} points")
    if cfg.time_spacing == "linear":
        return np.linspace(0.0, cfg.time_stop_s, cfg.time_num)
    start = cfg.time_start_s
    if start is None or not (0.0 < start < cfg.time_stop_s):
        raise ConfigError("log spacing needs 0 < time.start_s < time.stop_s")
    if cfg.time_num < 3:  # geomspace of one point would drop time.stop_s
        raise ConfigError("log spacing needs time.num >= 3: 0, time.start_s and time.stop_s")
    return np.concatenate(
        [[0.0], np.geomspace(start, cfg.time_stop_s, cfg.time_num - 1)]
    )
