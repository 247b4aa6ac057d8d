"""CSV and manifest output with bit-stable formatting.

Every CSV goes through write_table, which formats a cell by its column's
dtype: floats with repr(), which round-trips exactly, so reruns of a
deterministic workflow are byte-identical; bools as true/false; integers
and strings with str(). Rows stream in blocks through a temp file plus
os.replace, so readers never see partial output. A block formats each
distinct float once, which writes the same bytes as formatting each cell,
and is joined into one string that is written in one call.
"""

from __future__ import annotations

import hashlib
import os
from array import array
from dataclasses import fields

import numpy as np

from .analysis import ExponentEstimate, SaturationFit, SweepPoint
from .cloud import SuperatomEnsemble
from .core import require_memory
from .errors import InputFileError, read_lines
from .superatom import ExcitationCurve

CURVE_HEADER = "t_s,n_rydberg"
TRAJECTORY_HEADER = "t_s,n_rydberg,w_fidelity"
ENSEMBLE_HEADER = "x_m,y_m,z_m,n_per,weight"
SWEEP_HEADER = "n_peak_m3,omega0_radps,n_sat,n_sat_err,R_per_s,R_err,converged"
EXPONENTS_HEADER = "name,value,std_error,n_points"
FIT_HEADER = "n_sat,n_sat_err,R_per_s,R_err,residual_rms,converged,n_iterations"

# rows formatted, joined into one string and written at once by
# write_table; writing 200,000 all-distinct 5-column rows peaked at 5.6 MB
# (tracemalloc), against 3.6 MB when each row was written on its own
_ROW_BLOCK = 8192
# a curve row takes at least 4 bytes of its file ("0,0" and a line end);
# the whole fit command, this read plus fit_saturation, peaked at 56-57 B
# per row of 1e5 and 1e6 row curves (tracemalloc)
_BYTES_PER_CURVE_ROW = 64.0


def format_float(x: float) -> str:
    return repr(float(x))


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


def _cells(column: np.ndarray):
    """Format one column slice: true/false, str, or floats' repr (format_float's),
    computed once per distinct bit pattern: repr depends only on the bits."""
    if column.dtype.kind == "b":
        return ("true" if flag else "false" for flag in column.tolist())
    if column.dtype.kind != "f":
        return map(str, column.tolist())
    bits, rows = np.unique(column.astype(np.float64).view(np.int64), return_inverse=True)
    return np.array([*map(repr, bits.view(np.float64).tolist())], dtype=object)[rows]


def write_table(path: str, header: str, columns) -> None:
    """Write equal-length columns under ``header``, formatting _ROW_BLOCK
    rows at a time into one string, so one block of text is held at once.

    ValueError, before any file is made, if the columns' lengths differ."""
    columns = [np.asarray(column) for column in columns]
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"{path}: columns of unequal lengths {sorted(lengths)}")

    def blocks():
        yield header + "\n"
        for lo in range(0, len(columns[0]), _ROW_BLOCK):
            rows = zip(*(_cells(column[lo : lo + _ROW_BLOCK]) for column in columns))
            text = "\n".join(map(",".join, rows)) + "\n"
            del rows  # the block's cells, freed before its text is written
            yield text

    atomic_write_text(path, blocks())


def _field_columns(records, cls) -> list[list]:
    """One column per dataclass field of ``cls``, in field order."""
    return [[getattr(record, f.name) for record in records] for f in fields(cls)]


def write_trajectory_csv(path: str, times, n_rydberg, w_fidelity) -> None:
    write_table(path, TRAJECTORY_HEADER, [times, n_rydberg, w_fidelity])


def write_curve_csv(path: str, curve: ExcitationCurve) -> None:
    write_table(path, CURVE_HEADER, [curve.times, curve.values])


def read_curve_csv(path: str) -> ExcitationCurve:
    """Read a curve CSV; extra columns beyond t_s,n_rydberg are ignored.

    Refused with SizeCapError before parsing if the file's size allows
    more rows than the memory limit holds at what reading and then fitting
    a row peaks at, so every curve that is read can also be fitted.
    Malformed content raises InputFileError citing the line; curve-level
    problems (negative values, unordered times) surface through the
    ExcitationCurve validator.
    """
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        raise InputFileError(f"{path}: {exc.strerror or exc}") from exc
    require_memory(size / 4.0 * _BYTES_PER_CURVE_ROW, f"a curve file of {size} bytes")
    lines = read_lines(path, InputFileError)
    first = next(lines, None)
    if first is None:
        raise InputFileError(f"{path}: file is empty")
    header = [c.strip() for c in first.split(",")]
    if header[:2] != ["t_s", "n_rydberg"]:
        raise InputFileError(
            f"{path}, line 1: expected header starting 't_s,n_rydberg', got {first!r}"
        )
    times, values = array("d"), array("d")
    for lineno, raw in enumerate(lines, start=2):
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
    return ExcitationCurve(np.frombuffer(times), np.frombuffer(values), {"source": path})


def write_ensemble_csv(path: str, ensemble: SuperatomEnsemble) -> None:
    write_table(
        path, ENSEMBLE_HEADER, [*ensemble.centers().T, ensemble.n_per, ensemble.weight]
    )


def write_sweep_csv(path: str, points: tuple[SweepPoint, ...]) -> None:
    write_table(path, SWEEP_HEADER, _field_columns(points, SweepPoint))


def write_exponents_csv(path: str, exponents: dict[str, ExponentEstimate]) -> None:
    write_table(path, EXPONENTS_HEADER, _field_columns(exponents.values(), ExponentEstimate))


def write_fit_csv(path: str, fit: SaturationFit) -> None:
    write_table(path, FIT_HEADER, _field_columns([fit], SaturationFit))


def write_manifest(
    path: str,
    command: str,
    version: str,
    config_items: list[tuple[str, str]],
    inputs: list[tuple[str, str, str]] = (),
    outputs: list[tuple[str, str, str]] = (),
) -> None:
    """Write the run manifest: tool metadata, inputs/outputs with sha256
    digests, and the configuration keys that the command read.

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
