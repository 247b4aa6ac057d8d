"""Run configuration: flat ``key = value`` files.

One assignment per line, ``#`` starts a full-line comment, keys are
dotted lowercase. Unknown keys are rejected by name so typos fail fast.
Each key declares the commands that read it, and a key read only under
another key's value declares that value: load_config refuses a config
that leaves a key its command needs unset, and config_items records only
the keys the command reads (the others are parsed, not read).
Manifests written by the CLI parse as configs too: ``manifest.*`` keys
set nothing (load_config checks the command and returns the input digests
they record), a ``config.*`` line of a retired setting is refused unless
it replays or the command never read it, and a ``config.`` prefix is stripped.
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


_ALL = ("cloud", "exact", "scaling")  # the commands that read a config file
_CLOUDS = ("cloud", "scaling")  # those that partition a Gaussian cloud


def _key(key: str, kind: str, read_by: tuple[str, ...], default=None, choices=(), read_if=None):
    """Declare one setting: its dotted key, value kind ("float", "int",
    "str" or "floats"), the commands that read it, default and allowed
    values. With ``read_if``, they read it only where read_if(cfg) holds
    and need it nowhere; they need each other key they read that has no default."""
    return field(default=default, metadata={
        "key": key, "kind": kind, "read_by": read_by, "choices": choices,
        "read_if": read_if or (lambda cfg: True), "needed": default is None and read_if is None})


@dataclass
class RunConfig:
    """All recognized keys with their defaults; None means unset."""

    omega0_hz: float | None = _key("physical.omega0_hz", "float", ("cloud", "exact"))
    c6_au: float | None = _key("physical.c6_au", "float", _ALL)
    cloud_n_atoms: float | None = _key("cloud.n_atoms", "float", ("cloud",))
    sigma_x_m: float | None = _key("cloud.sigma_x_m", "float", _CLOUDS)
    sigma_y_m: float | None = _key("cloud.sigma_y_m", "float", _CLOUDS)
    sigma_z_m: float | None = _key("cloud.sigma_z_m", "float", _CLOUDS)
    model: str = _key("partition.model", "str", _CLOUDS, "collective", choices=MODELS)
    time_stop_s: float | None = _key("time.stop_s", "float", _ALL)
    # resolve_time_grid checks it for log spacing
    time_start_s: float | None = _key(
        "time.start_s", "float", _ALL, read_if=lambda cfg: cfg.time_spacing == "log"
    )
    time_num: int = _key("time.num", "int", _ALL, 200)
    time_spacing: str = _key("time.spacing", "str", _ALL, "linear", choices=("linear", "log"))
    positions_path: str | None = _key("exact.positions_path", "str", ("exact",))
    basis: str = _key("exact.basis", "str", ("exact",), "full", choices=("full", "restricted"))
    # unset, exact excludes pairs within the simple blockade radius
    restriction_radius_m: float | None = _key(
        "exact.restriction_radius_m", "float", ("exact",),
        read_if=lambda cfg: cfg.basis == "restricted",
    )
    sweep_densities_m3: tuple[float, ...] | None = _key(
        "sweep.densities_m3", "floats", ("scaling",)
    )
    sweep_omega0_hz: tuple[float, ...] | None = _key("sweep.omega0_hz", "floats", ("scaling",))


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
            "config.partition.span_sigmas": SPAN_SIGMAS, "config.partition.n_min": 0.0,
            "partition.n_min": 0.0}
# partition.n_min, which dropped smaller superatoms, may be a plain line too;
# exact manifests record its old default 1.0, refused only by cloud commands
_READ_BY = {"config.partition.n_min": _CLOUDS, "partition.n_min": _CLOUDS}


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


def _replays(key: str, text: str, command: str | None) -> bool:
    """Whether ``command`` (every command if None) reproduces a line of the
    retired ``key``: it never read the key, or the value is the one kept."""
    value = _RETIRED[key]
    if command is not None and command not in _READ_BY.get(key, _ALL):
        return True
    try:
        return value is None or float(text) == value
    except ValueError:
        return False


def parse_config_text(text: str, source: str = "<config>",
                      command: str | None = None) -> RunConfig:
    """The RunConfig that ``text`` sets for ``command`` (None: for any)."""
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
            if not _replays(key, value, command):
                raise ConfigError(
                    f"{source}, line {lineno}: {key.removeprefix('config.')} = {value} cannot be"
                    f" reproduced; the setting is retired and replays only at {_RETIRED[key]!r}"
                )
            continue
        key = key.removeprefix("config.")
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


def _read_settings(cfg: RunConfig, command: str) -> list[tuple[str, Field, object]]:
    """(dotted key, field, value) of each setting that ``command`` reads
    under the values of ``cfg``."""
    return [(key, setting, getattr(cfg, setting.name)) for key, setting in _KEYS.items()
            if command in setting.metadata["read_by"] and setting.metadata["read_if"](cfg)]


def load_config(path: str, command: str) -> tuple[RunConfig, dict[str, str]]:
    """The configuration in ``path`` for ``command`` and, if it is a
    manifest, the sha256 digest of each input it records, by input name
    ({} for a plain config file). ConfigError for a manifest of another
    command, or naming every key that ``command`` needs and is not set."""
    lines = list(read_lines(path, ConfigError))
    cfg = parse_config_text("\n".join(lines), source=path, command=command)
    entries = (line.partition("=") for line in lines)
    recorded = {key.strip(): value.strip() for key, _, value in entries}
    wrote = recorded.get("manifest.command", command)
    if wrote != command:
        raise ConfigError(f"{path}: a {wrote} manifest cannot configure {command}")
    missing = [key for key, setting, value in _read_settings(cfg, command)
               if value is None and setting.metadata["needed"]]
    if missing:
        raise ConfigError(f"{command} needs {', '.join(missing)}")
    digests = {m[1]: v for k, v in recorded.items() if (m := _INPUT_DIGEST.fullmatch(k))}
    return cfg, digests


def config_items(cfg: RunConfig, command: str) -> list[tuple[str, str]]:
    """The keys that ``command`` reads and that are set, as (dotted key,
    string) pairs that round-trip through parse_config_text bit-exactly
    (floats via repr)."""
    return [(key, _KINDS[setting.metadata["kind"]][1](value))
            for key, setting, value in _read_settings(cfg, command) if value is not None]


def resolve_params(cfg: RunConfig) -> PhysicalParams:
    """Build PhysicalParams from physical.omega0_hz and physical.c6_au."""
    return PhysicalParams.from_hz(cfg.omega0_hz, convert_c6_atomic_units(cfg.c6_au))


def resolve_cloud(cfg: RunConfig) -> CloudSpec:
    """The Gaussian cloud that ``cloud`` partitions."""
    return CloudSpec(cfg.cloud_n_atoms, (cfg.sigma_x_m, cfg.sigma_y_m, cfg.sigma_z_m))


def resolve_time_grid(cfg: RunConfig) -> np.ndarray:
    if not 0.0 < cfg.time_stop_s < math.inf:
        raise ConfigError("time.stop_s must be positive and finite")
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
