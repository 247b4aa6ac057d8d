"""Self-tests of the benchmark; run from the checkout's root with

    python3 -m pytest perfbench -q
"""

import os
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _snapshot(root: str) -> dict[str, bytes]:
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = workloads.generate(workload, 3, str(tmp_path / "a"))
    again = workloads.generate(workload, 3, str(tmp_path / "b"))
    other = workloads.generate(workload, 4, str(tmp_path / "c"))

    def text(root):
        return {k: v.replace(str(tmp_path / root).encode(), b"ROOT")
                for k, v in _snapshot(str(tmp_path / root)).items()}

    assert [c.name for c in first] == [c.name for c in again] == [c.name for c in other]
    assert text("a") == text("b")
    assert text("a") != text("c")


def test_restricted_geometry_hits_the_dimension_target(tmp_path):
    calls = workloads.generate("exact-krylov", 11, str(tmp_path))
    restricted = next(c for c in calls if "restricted" in c.name)
    coords = np.loadtxt(os.path.join(tmp_path, "inputs", f"{restricted.name}.xyz"))
    dim = workloads.count_independent_sets(coords.tolist(), workloads.RESTRICTED_RADIUS_M)
    assert abs(dim / workloads.RESTRICTED_DIM_TARGET - 1.0) <= workloads.RESTRICTED_DIM_TOLERANCE


def test_count_independent_sets_matches_the_program(tmp_path):
    from blockadesim.exact import AtomPositions, restricted_basis

    rng = np.random.default_rng(5)
    coords = rng.standard_normal((12, 3)) * 5e-6
    radius = workloads.RESTRICTED_RADIUS_M
    expected = restricted_basis(AtomPositions(coords), radius).n_states
    assert workloads.count_independent_sets(coords.tolist(), radius) == expected


def _cloud_output(tmp_path):
    import blockadesim.cli as cli

    config = tmp_path / "cloud.cfg"
    config.write_text(
        "physical.omega0_hz = 42e3\nphysical.c6_au = 1.7e19\ncloud.n_atoms = 1.5e7\n"
        "cloud.sigma_x_m = 22.6e-6\ncloud.sigma_y_m = 22.6e-6\ncloud.sigma_z_m = 22.6e-6\n"
        "partition.model = simple\npartition.n_min = 0.0\ntime.stop_s = 2e-5\ntime.num = 50\n"
    )
    out = tmp_path / "out"
    assert cli.main(["cloud", "--config", str(config), "--out", str(out)]) == 0
    return str(out)


def test_curve_check_accepts_the_program_and_rejects_a_scaled_curve(tmp_path):
    out = _cloud_output(tmp_path)
    assert checks.check_cloud(out, {"omega0_hz": 42e3}) == []

    curve = os.path.join(out, "curve.csv")
    data = np.loadtxt(curve, delimiter=",", skiprows=1)
    data[:, 1] *= 1.01
    np.savetxt(curve, data, delimiter=",", header="t_s,n_rydberg", comments="")
    assert checks.check_cloud(out, {"omega0_hz": 42e3}) != []


def test_trajectory_check_rejects_out_of_range_values(tmp_path):
    path = tmp_path / "trajectory.csv"
    path.write_text("t_s,n_rydberg,w_fidelity\n0.0,0.0,0.0\n1e-7,0.5,0.4\n")
    assert checks.check_trajectory(str(path), 2) == []
    path.write_text("t_s,n_rydberg,w_fidelity\n0.0,0.0,0.0\n1e-7,0.5,1.2\n")
    assert checks.check_trajectory(str(path), 2) != []
    path.write_text("t_s,n_rydberg,w_fidelity\n0.0,0.1,0.0\n1e-7,0.5,0.4\n")
    assert checks.check_trajectory(str(path), 2) != []


def _span(span_id, name, start, end, parent, pass_id=0):
    return tracing.Span(span_id, name, start, end, parent, pass_id)


def test_self_time_arithmetic_on_a_hand_built_tree():
    spans = [
        _span(0, "pass", 0.0, 10.0, None),
        _span(1, "call:cloud", 0.5, 9.0, 0),
        _span(2, "superatom.simulate", 1.0, 4.0, 1),
        _span(3, "runio.write", 4.5, 8.0, 1),
        _span(4, "runio.digest", 5.0, 6.0, 3),
        _span(5, "analysis.sweep", 0.0, 4.0, None, pass_id=1),
        _span(6, "analysis.fit", 1.0, 3.0, 5, pass_id=1),
        _span(7, "analysis.fit", 2.0, 3.5, 5, pass_id=1),  # overlaps its sibling
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 1.5, 1: 2.0, 2: 3.0, 3: 2.5, 4: 1.0, 5: 1.5, 6: 2.0, 7: 1.5})

    rows = tracing.pass_breakdown(spans)
    first = rows[0]
    assert first["wall"] == 10.0
    assert first["gap"] == pytest.approx(3.5)
    layers = sum(v for k, v in first.items() if k in tracing.LAYERS)
    assert layers + first["gap"] == pytest.approx(first["wall"])


def test_missing_layer_is_reported_absent(monkeypatch):
    import blockadesim.cli as cli

    monkeypatch.delattr(cli, "evolve")
    instrumentation = tracing.Instrumentation(tracing.Tracer())
    assert instrumentation.absent == ["exact.evolve"]
    original = cli.build_hamiltonian
    instrumentation.install()
    assert cli.build_hamiltonian is not original
    instrumentation.remove()
    assert cli.build_hamiltonian is original


def test_calibrator_scale_is_reference_over_mean():
    cal = calibrate.Calibrator()
    cal.samples = [0.2, 0.025, 0.075]
    assert cal.scale() == pytest.approx(calibrate.REFERENCE_KERNEL_S / 0.1)


def test_calibrator_keeps_its_share_of_the_time():
    cal = calibrate.Calibrator()
    cal.keep_share()  # starts the clock
    time.sleep(0.5)
    cal.keep_share()
    assert sum(cal.samples) >= calibrate.KERNEL_SHARE * 0.5
