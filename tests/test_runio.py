"""Output files: atomic writes, cell formats and streamed CSV writes."""

import hashlib
import math
import os

import numpy as np
import pytest

import blockadesim.cloud
import blockadesim.runio
from blockadesim.cloud import partition_superatoms
from blockadesim.errors import BlockadeSimError
from blockadesim.runio import (
    _ROW_BLOCK,
    ENSEMBLE_HEADER,
    atomic_write_text,
    format_float,
    write_ensemble_csv,
    write_table,
    write_trajectory_csv,
)

from conftest import entry_ensemble, gathered_columns, traced_peak


def naive_table(header, columns) -> str:
    """The reference writer: every cell formatted on its own by its column's
    dtype, floats as repr(float(v)), with no blocks and no reuse."""

    def cells(column):
        column = np.asarray(column)
        if column.dtype.kind == "b":
            return ["true" if flag else "false" for flag in column.tolist()]
        if column.dtype.kind == "f":
            return [repr(float(v)) for v in column]
        return [str(v) for v in column.tolist()]

    return header + "\n" + "".join(",".join(row) + "\n" for row in zip(*map(cells, columns)))


def test_atomic_write_leaves_no_temp_file_and_spares_foreign_tmp(tmp_path):
    target = tmp_path / "curve.csv"
    foreign = tmp_path / "curve.csv.tmp"
    foreign.write_text("another writer's data")
    atomic_write_text(str(target), "a,b\n1,2\n")
    atomic_write_text(str(target), "a,b\n3,4\n")
    assert target.read_text() == "a,b\n3,4\n"
    assert foreign.read_text() == "another writer's data"
    assert sorted(os.listdir(tmp_path)) == ["curve.csv", "curve.csv.tmp"]


def test_atomic_write_failure_keeps_old_file_and_cleans_up(tmp_path):
    target = tmp_path / "curve.csv"
    atomic_write_text(str(target), "old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(str(target), "half \ud800 written\n")  # lone surrogate
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["curve.csv"]


def test_atomic_write_gives_plain_file_mode(tmp_path):
    plain = tmp_path / "plain.txt"
    with open(plain, "w") as fh:
        fh.write("x")
    atomic_write_text(str(tmp_path / "atomic.txt"), "x")
    assert os.stat(tmp_path / "atomic.txt").st_mode == os.stat(plain).st_mode


def test_ensemble_csv_rows_are_repr_of_each_entry(tmp_path, rng):
    n = 7
    centers = rng.normal(scale=1e-5, size=(n, 3))
    n_per = rng.uniform(1.0, 5e3, size=n)
    weight = rng.uniform(1e-3, 2.0, size=n)
    ensemble = entry_ensemble(n_per, weight, centers)
    path = tmp_path / "ensemble.csv"
    write_ensemble_csv(str(path), ensemble)
    expected = [ENSEMBLE_HEADER] + [
        ",".join(format_float(v) for v in (*centers[k], n_per[k], weight[k]))
        for k in range(n)
    ]
    assert path.read_text().splitlines() == expected
    assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1)[:, 3], n_per)


def test_ensemble_csv_streams_rows_to_the_file(tmp_path, rng):
    # the 200k rows take about 21 MB as text; only a block is held at once
    n = 200_000
    ensemble = entry_ensemble(
        rng.uniform(1.0, 5e3, size=n), rng.uniform(1e-3, 2.0, size=n),
        rng.normal(scale=1e-5, size=(n, 3)),
    )
    path = tmp_path / "ensemble.csv"
    assert traced_peak(lambda: write_ensemble_csv(str(path), ensemble)) < 8 * 2**20
    assert path.stat().st_size > 16 * 2**20


def test_ensemble_csv_of_grid_like_centres_streams_rows_to_the_file(tmp_path, rng):
    # as above, but each axis holds 60 coordinates, as the cell grid's do:
    # the text of repeated values is reused within a block, never cached
    n = 200_000
    ensemble = entry_ensemble(
        rng.uniform(1.0, 5e3, size=n), rng.uniform(1e-3, 2.0, size=n),
        rng.choice(rng.normal(scale=1e-5, size=60), size=(n, 3)),
    )
    path = tmp_path / "ensemble.csv"
    assert traced_peak(lambda: write_ensemble_csv(str(path), ensemble)) < 8 * 2**20
    assert path.stat().st_size > 16 * 2**20


@pytest.mark.parametrize("model", ["simple", "collective"])
@pytest.mark.parametrize("span", [5.0, 10.0])
def test_partition_ensemble_csv_streams_rows_to_the_file(
    tmp_path, reference_cloud, strong_params, monkeypatch, model, span
):
    # the columns are built inside the write: 3,375 to 216,000 rows, and at
    # 10 sigma the collective orbit table (37,820 orbits) exceeds a block
    monkeypatch.setattr(blockadesim.cloud, "SPAN_SIGMAS", span)
    ensemble = partition_superatoms(reference_cloud, strong_params, model=model)
    path = tmp_path / "ensemble.csv"
    assert traced_peak(lambda: write_ensemble_csv(str(path), ensemble)) < 8 * 2**20


def test_trajectory_csv_streams_rows_to_the_file(tmp_path, rng):
    n = 200_000
    times, n_rydberg, w_fidelity = rng.uniform(0.0, 1.0, size=(3, n))
    path = tmp_path / "trajectory.csv"
    peak = traced_peak(lambda: write_trajectory_csv(str(path), times, n_rydberg, w_fidelity))
    assert peak < 8 * 2**20
    assert path.stat().st_size > 8 * 2**20


def test_write_table_formats_each_column_by_its_dtype(tmp_path):
    path = tmp_path / "table.csv"
    write_table(str(path), "name,value,flag,count", [
        ["a", "b"], [0.1, float("nan")], [True, False], [7, 2**40],
    ])
    assert path.read_text() == "name,value,flag,count\na,0.1,true,7\nb,nan,false,1099511627776\n"


@pytest.mark.parametrize("n_rows", [0, 1, _ROW_BLOCK, _ROW_BLOCK + 1, 3 * _ROW_BLOCK + 5])
def test_write_table_writes_the_header_then_one_chunk_per_block(tmp_path, monkeypatch, n_rows):
    chunks = []
    write = blockadesim.runio.atomic_write_text

    def recording_write(path, text):
        chunks.extend(text)
        write(path, chunks)

    monkeypatch.setattr(blockadesim.runio, "atomic_write_text", recording_write)
    columns = [np.arange(n_rows), np.linspace(0.0, 1.0, n_rows)]
    path = tmp_path / "table.csv"
    write_table(str(path), "count,value", columns)
    assert len(chunks) == 1 + math.ceil(n_rows / _ROW_BLOCK)
    # zero rows leave the header line alone
    assert path.read_bytes() == naive_table("count,value", columns).encode()


def test_write_table_refuses_unequal_columns_before_making_a_file(tmp_path):
    # zip would cut every row to the shortest column; a caller passing
    # unequal columns is a bug in the program, not bad input (exit 1)
    with pytest.raises(ValueError, match=r"unequal lengths \[2, 3\]") as refused:
        write_table(str(tmp_path / "table.csv"), "a,b", [[1, 2, 3], [0.5, 0.25]])
    assert not isinstance(refused.value, BlockadeSimError)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(("header", "columns"), [("a,b,c", [[1.0, 2.0]]), ("a", [])])
def test_write_table_refuses_a_header_naming_other_columns_before_making_a_file(
    tmp_path, header, columns
):
    with pytest.raises(ValueError, match="names [13] columns, given [01]"):
        write_table(str(tmp_path / "table.csv"), header, columns)
    assert os.listdir(tmp_path) == []


_N = 3 * _ROW_BLOCK + 5
# -0.0 and 0.0, NaNs of either sign and another payload, infinities,
# subnormals down to 5e-324, the largest float and values repr prints in
# exponent form
_SPECIAL = np.concatenate([
    [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308],
    np.array([0x7FF8000000000001, 0xFFF0000000000123], dtype=np.uint64).view(np.float64),
    [np.finfo(np.float64).max, 1e16, 1e-5, 0.1, 1 / 3, -2.5],
])


def _table_cases():
    rng = np.random.default_rng(7)
    runs = np.repeat(rng.uniform(1.0, 5e3, size=7), -(-_N // 7))[:_N]
    assert runs[_ROW_BLOCK - 1] == runs[_ROW_BLOCK]  # a run straddles a block edge
    special = rng.choice(_SPECIAL, size=_N)
    special[:2] = -0.0, 0.0  # both zeros in one block
    return {
        "repeats": ("pool,runs,distinct", [
            rng.choice(rng.normal(scale=1e-5, size=60), size=_N), runs, rng.uniform(size=_N),
        ]),
        "special": ("special,same_in_every_row", [special, np.full(_N, -0.0)]),
        "float32": ("f32", [np.concatenate([
            np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-45, 0.1], dtype=np.float32),
            rng.choice(rng.normal(size=40).astype(np.float32), size=_N - 7),
        ])]),
        "mixed": ("flag,count,name,value", [
            rng.uniform(size=_N) < 0.5,
            rng.choice([0, -3, 7, 2**40], size=_N),
            rng.choice(["a", "b", "c"], size=_N),
            rng.choice(_SPECIAL, size=_N),
        ]),
    }


@pytest.mark.parametrize("case", ["repeats", "special", "float32", "mixed"])
def test_write_table_matches_a_per_cell_writer(tmp_path, case):
    header, columns = _table_cases()[case]
    path = tmp_path / "table.csv"
    write_table(str(path), header, columns)
    expected = naive_table(header, columns)
    assert path.read_text().splitlines() == expected.splitlines()
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("n_table", [7, _ROW_BLOCK, _ROW_BLOCK + 1, 3 * _ROW_BLOCK])
def test_coded_columns_write_the_bytes_of_their_gathered_columns(tmp_path, rng, n_table):
    # tables up to _ROW_BLOCK are formatted once, longer ones per block
    n_rows = 3 * _ROW_BLOCK + 5
    tables = [
        rng.choice(_SPECIAL, size=n_table),
        rng.integers(-(2**40), 2**40, size=n_table),
        rng.uniform(size=n_table) < 0.5,
    ]
    codes = [rng.integers(0, n_table, size=n_rows) for _ in tables]
    header = "float,count,flag"
    coded, plain = tmp_path / "coded.csv", tmp_path / "plain.csv"
    write_table(str(coded), header, [*zip(tables, codes)])
    write_table(str(plain), header, [table[code] for table, code in zip(tables, codes)])
    assert coded.read_bytes() == plain.read_bytes()
    assert coded.read_bytes() == naive_table(
        header, [table[code] for table, code in zip(tables, codes)]
    ).encode()


@pytest.mark.parametrize("model", ["simple", "collective"])
def test_reference_cloud_ensemble_csv_has_the_per_cell_writers_digest(
    tmp_path, reference_cloud, strong_params, monkeypatch, model
):
    # the cloud of tests/test_cli.py's CLOUD_CONFIG, at 210 kHz; the simple
    # model's 30 cells per axis at 5 sigma give one octant of 3,375 rows,
    # so it spans 10 sigma: 60 cells per axis, 27,000 rows
    if model == "simple":
        monkeypatch.setattr(blockadesim.cloud, "SPAN_SIGMAS", 10.0)
    ensemble = partition_superatoms(reference_cloud, strong_params, model=model)
    path = tmp_path / "ensemble.csv"
    write_ensemble_csv(str(path), ensemble)
    columns = gathered_columns(ensemble)
    assert np.array_equal(columns[3], ensemble.n_per)
    assert np.array_equal(columns[4], ensemble.weight)
    expected = naive_table(ENSEMBLE_HEADER, columns)
    assert len(ensemble) > 3 * _ROW_BLOCK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        hashlib.sha256(expected.encode()).hexdigest()
    )
