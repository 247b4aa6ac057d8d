"""Output files: atomic writes, cell formats and streamed CSV writes."""

import os

import numpy as np
import pytest

from blockadesim.cloud import SuperatomEnsemble
from blockadesim.runio import (
    ENSEMBLE_HEADER,
    atomic_write_text,
    format_float,
    write_ensemble_csv,
    write_table,
    write_trajectory_csv,
)

from conftest import traced_peak


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
    ensemble = SuperatomEnsemble(n_per, weight, centers)
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
    ensemble = SuperatomEnsemble(
        rng.uniform(1.0, 5e3, size=n), rng.uniform(1e-3, 2.0, size=n),
        rng.normal(scale=1e-5, size=(n, 3)),
    )
    path = tmp_path / "ensemble.csv"
    assert traced_peak(lambda: write_ensemble_csv(str(path), ensemble)) < 8 * 2**20
    assert path.stat().st_size > 16 * 2**20



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
