"""CSV and manifest output with bit-stable formatting.

Floats are serialized with repr(), which round-trips exactly, so a rerun
of a deterministic workflow produces byte-identical files. All writes stream
through a temp file plus os.replace, so readers never see partial output.
"""

from __future__ import annotations

import hashlib
import itertools
import os

import numpy as np

from .analysis import ExponentEstimate, SaturationFit, SweepPoint
from .cloud import SuperatomEnsemble
from .errors import InputFileError
from .superatom import ExcitationCurve

CURVE_HEADER = "t_s,n_rydberg"
TRAJECTORY_HEADER = "t_s,n_rydberg,w_fidelity"
ENSEMBLE_HEADER = "x_m,y_m,z_m,n_per,weight"
SWEEP_HEADER = "n_peak_m3,omega0_radps,n_sat,n_sat_err,R_per_s,R_err,converged"
EXPONENTS_HEADER = "name,value,std_error,n_points"
FIT_HEADER = "n_sat,n_sat_err,R_per_s,R_err,residual_rms,converged,n_iterations"

_ROW_BLOCK = 8192  # ensemble rows per block in write_ensemble_csv


def format_float(x: float) -> str:
    return repr(float(x))


def _format_bool(flag: bool) -> str:
    return "true" if flag else "false"


def atomic_write_text(path: str, chunks) -> None:
    """Stream the str chunks into a new temp file of random name beside ``path``
    (so concurrent writers never share one), then rename it over ``path``."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_rows(path: str, header: str, rows) -> None:
    lines = itertools.chain([[header]], rows)
    atomic_write_text(path, (",".join(row) + "\n" for row in lines))


def write_trajectory_csv(path: str, times, n_rydberg, w_fidelity) -> None:
    rows = (
        (format_float(t), format_float(n), format_float(w))
        for t, n, w in zip(times, n_rydberg, w_fidelity)
    )
    _write_rows(path, TRAJECTORY_HEADER, rows)


def write_curve_csv(path: str, curve: ExcitationCurve) -> None:
    rows = (
        (format_float(t), format_float(v))
        for t, v in zip(curve.times, curve.values)
    )
    _write_rows(path, CURVE_HEADER, rows)


def read_curve_csv(path: str) -> ExcitationCurve:
    """Read a curve CSV; extra columns beyond t_s,n_rydberg are ignored.

    Malformed content raises InputFileError citing the line; curve-level
    problems (negative values, unordered times) surface through the
    ExcitationCurve validator.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InputFileError(f"{path}: {exc.strerror or exc}") from exc
    if not lines:
        raise InputFileError(f"{path}: file is empty")
    header = [c.strip() for c in lines[0].split(",")]
    if header[:2] != ["t_s", "n_rydberg"]:
        raise InputFileError(
            f"{path}, line 1: expected header starting 't_s,n_rydberg', got {lines[0]!r}"
        )
    times = []
    values = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) < 2:
            raise InputFileError(f"{path}, line {lineno}: expected at least 2 columns")
        try:
            times.append(float(cells[0]))
            values.append(float(cells[1]))
        except ValueError as exc:
            raise InputFileError(f"{path}, line {lineno}: {exc}") from exc
    if not times:
        raise InputFileError(f"{path}: no data rows")
    return ExcitationCurve(np.array(times), np.array(values), {"source": path})


def write_ensemble_csv(path: str, ensemble: SuperatomEnsemble) -> None:
    # Column-wise: .tolist() yields Python floats, whose repr is format_float's.
    # A block of rows at a time, streamed to the file, bounds peak memory.
    def rows():
        for lo in range(0, len(ensemble), _ROW_BLOCK):
            block = slice(lo, lo + _ROW_BLOCK)
            columns = (*ensemble.centers[block].T, ensemble.n_per[block], ensemble.weight[block])
            yield from zip(*(map(repr, col.tolist()) for col in columns))

    _write_rows(path, ENSEMBLE_HEADER, rows())


def write_sweep_csv(path: str, points: tuple[SweepPoint, ...]) -> None:
    rows = (
        (
            format_float(p.n_peak),
            format_float(p.omega0),
            format_float(p.n_sat),
            format_float(p.n_sat_err),
            format_float(p.rate),
            format_float(p.rate_err),
            _format_bool(p.converged),
        )
        for p in points
    )
    _write_rows(path, SWEEP_HEADER, rows)


def write_exponents_csv(path: str, exponents: dict[str, ExponentEstimate]) -> None:
    rows = (
        (e.name, format_float(e.value), format_float(e.std_error), str(e.n_points))
        for e in (exponents[name] for name in ("a", "b", "c", "d"))
    )
    _write_rows(path, EXPONENTS_HEADER, rows)


def write_fit_csv(path: str, fit: SaturationFit) -> None:
    row = (
        format_float(fit.n_sat),
        format_float(fit.n_sat_err),
        format_float(fit.rate),
        format_float(fit.rate_err),
        format_float(fit.residual_rms),
        _format_bool(fit.converged),
        str(fit.n_iterations),
    )
    _write_rows(path, FIT_HEADER, [row])


def write_manifest(
    path: str,
    command: str,
    version: str,
    config_items: list[tuple[str, str]],
    inputs: list[tuple[str, str, str]] = (),
    outputs: list[tuple[str, str, str]] = (),
) -> None:
    """Write the run manifest: tool metadata, inputs/outputs with sha256
    digests, and the fully resolved configuration.

    The manifest doubles as a config file: loaders skip ``manifest.*``
    keys and strip the ``config.`` prefix, so passing a manifest to
    ``--config`` reruns the workflow it records.
    """
    lines = [
        "manifest.tool = blockadesim",
        f"manifest.version = {version}",
        f"manifest.command = {command}",
    ]
    for name, location, digest in inputs:
        lines.append(f"manifest.input.{name} = {location}")
        lines.append(f"manifest.input.{name}.sha256 = {digest}")
    for name, filename, digest in outputs:
        lines.append(f"manifest.output.{name} = {filename}")
        lines.append(f"manifest.output.{name}.sha256 = {digest}")
    for key, value in config_items:
        lines.append(f"config.{key} = {value}")
    atomic_write_text(path, (line + "\n" for line in lines))
