"""Exact solver: basis enumeration, Hamiltonian structure, propagation."""

import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import blockadesim.core
import blockadesim.exact
from blockadesim.constants import HBAR
from blockadesim.errors import (
    BasisMismatchError,
    GeometryError,
    InputFileError,
    InvalidParameterError,
    SizeCapError,
)
from blockadesim.exact import (
    AtomPositions,
    HamiltonianSpec,
    QuantumState,
    build_hamiltonian,
    evolve,
    full_basis,
    ground_state,
    plan_propagation,
    restricted_basis,
    rydberg_number,
    w_state_fidelity,
)

from conftest import traced_peak

OMEGA = 2 * math.pi * 1e6  # generic 1 MHz drive for unit tests
C6 = 1.6274841951863897e-60


def cluster(rng, m, scale):
    return AtomPositions(rng.standard_normal((m, 3)) * scale)


def polygon(m, circumradius):
    """Regular m-gon in the xy plane; every pair closer than the diameter."""
    angles = 2 * np.pi * np.arange(m) / m
    coords = np.zeros((m, 3))
    coords[:, 0] = circumradius * np.cos(angles)
    coords[:, 1] = circumradius * np.sin(angles)
    return AtomPositions(coords)


def distance_for_interaction(v_over_omega, omega=OMEGA):
    """Separation at which the pair shift equals v_over_omega * hbar * omega."""
    return (C6 / (HBAR * v_over_omega * omega)) ** (1.0 / 6.0)


def brute_force_independent_sets(positions, radius):
    """Reference enumeration by scanning all 2**M masks."""
    m = len(positions)
    dist = positions.pairwise_distances()
    blocked = [
        (i, j) for i in range(m) for j in range(i + 1, m) if dist[i, j] < radius
    ]
    keep = []
    for mask in range(2**m):
        if all(not ((mask >> i) & 1 and (mask >> j) & 1) for i, j in blocked):
            keep.append(mask)
    return np.array(keep, dtype=np.int64)


# --- positions ---------------------------------------------------------------


def test_positions_shape_validation():
    with pytest.raises(GeometryError):
        AtomPositions(np.zeros((3, 2)))


def test_positions_reject_nonfinite():
    with pytest.raises(GeometryError):
        AtomPositions(np.array([[0.0, 0.0, np.inf]]))


def test_positions_reject_coincident_atoms():
    with pytest.raises(GeometryError, match="coincident"):
        AtomPositions(np.array([[0.0, 0.0, 0.0], [1e-6, 0, 0], [0.0, 0.0, 0.0]]))


def test_positions_file_round_trip(tmp_path):
    path = tmp_path / "atoms.txt"
    path.write_text(
        "# three atoms on a line\n"
        "0 0 0\n"
        "\n"
        "1e-6 0 0   # inline comment\n"
        "2e-6\t0\t0\n"
    )
    positions = AtomPositions.from_text(str(path))
    assert len(positions) == 3
    assert positions.coords[2, 0] == 2e-6


def test_positions_file_wrong_column_count(tmp_path):
    path = tmp_path / "atoms.txt"
    path.write_text("0 0 0\n1e-6 0\n")
    with pytest.raises(InputFileError, match="line 2"):
        AtomPositions.from_text(str(path))


def test_positions_file_bad_number(tmp_path):
    path = tmp_path / "atoms.txt"
    path.write_text("0 0 0\n1e-6 zero 0\n")
    with pytest.raises(InputFileError, match="line 2"):
        AtomPositions.from_text(str(path))


def test_positions_file_empty(tmp_path):
    path = tmp_path / "atoms.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(InputFileError, match="no atom"):
        AtomPositions.from_text(str(path))


def test_positions_file_missing(tmp_path):
    with pytest.raises(InputFileError):
        AtomPositions.from_text(str(tmp_path / "nope.txt"))


# --- basis enumeration ---------------------------------------------------------


def test_full_basis_is_ascending_range():
    basis = full_basis(4)
    assert basis.n_states == 16
    assert np.array_equal(basis.states, np.arange(16))
    assert basis.states[0] == 0  # vacuum first


def test_full_basis_cap():
    assert full_basis(15).n_states == 2**15
    with pytest.raises(SizeCapError, match="bytes"):
        full_basis(40)
    for n_atoms in (64, 5000):  # 2.0**5000 would overflow a float
        with pytest.raises(SizeCapError, match="63"):
            full_basis(n_atoms)


def test_restricted_fully_blockaded_cluster():
    positions = polygon(3, 1e-7)
    basis = restricted_basis(positions, 1e-5)
    assert np.array_equal(basis.states, [0, 1, 2, 4])


def test_restricted_chain_nearest_neighbor():
    # four atoms in a line, radius between first and second neighbor
    positions = AtomPositions(np.array([[k * 1e-6, 0, 0] for k in range(4)]))
    basis = restricted_basis(positions, 1.5e-6)
    expected = brute_force_independent_sets(positions, 1.5e-6)
    assert np.array_equal(basis.states, expected)
    assert basis.n_states == 8


def test_restricted_matches_brute_force_random(rng):
    positions = cluster(rng, 10, 1e-6)
    dist = positions.pairwise_distances()
    radius = float(np.median(dist[dist > 0]))
    basis = restricted_basis(positions, radius)
    assert np.array_equal(basis.states, brute_force_independent_sets(positions, radius))


def test_restricted_radius_below_minimum_distance_gives_full(rng):
    positions = cluster(rng, 6, 1e-6)
    dist = positions.pairwise_distances()
    d_min = dist[dist > 0].min()
    basis = restricted_basis(positions, 0.99 * d_min)
    assert basis.n_states == 64


def test_restricted_radius_above_all_distances_gives_single_excitation(rng):
    positions = cluster(rng, 7, 1e-6)
    basis = restricted_basis(positions, 1.0)
    assert basis.n_states == 8  # vacuum plus 7 singles


def test_restricted_cap(rng):
    # the cap counts states, not atoms: 25 fully blockaded atoms have 26
    assert restricted_basis(cluster(rng, 25, 1e-6), 1.0).n_states == 26
    with pytest.raises(SizeCapError, match="bytes"):
        restricted_basis(cluster(rng, 24, 1e-6), 0.0)
    with pytest.raises(SizeCapError, match="63"):
        restricted_basis(cluster(rng, 64, 1e-6), 1.0)


@pytest.mark.parametrize("seed", range(8))
def test_restricted_sweep_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    positions = cluster(rng, 6 + seed % 5, 1e-6)
    dist = positions.pairwise_distances()
    for q in (0.1, 0.3, 0.6, 0.9):
        radius = float(np.quantile(dist[dist > 0], q))
        basis = restricted_basis(positions, radius)
        assert np.array_equal(basis.states, brute_force_independent_sets(positions, radius))


LIMIT_64_MIB = 64 * 2**20


@pytest.mark.parametrize(
    "name",
    ["restricted-24-radius-0", "full-40", "full-14-evolve-1e6-times"],
)
def test_memory_cap_refuses_before_allocating(rng, monkeypatch, name):
    if name == "full-14-evolve-1e6-times":
        h = build_hamiltonian(
            HamiltonianSpec(cluster(rng, 14, 5e-6), OMEGA, C6), full_basis(14)
        )
        psi0, t = ground_state(h.basis), np.linspace(0.0, 1e-6, 10**6)
        call = lambda: evolve(h, psi0, t)  # noqa: E731
    elif name == "full-40":
        call = lambda: full_basis(40)  # noqa: E731
    else:
        positions = cluster(rng, 24, 1e-6)
        call = lambda: restricted_basis(positions, 0.0)  # noqa: E731
    monkeypatch.setattr(blockadesim.core, "MEMORY_LIMIT_BYTES", LIMIT_64_MIB)

    def refused():
        with pytest.raises(SizeCapError, match="memory cap"):
            call()

    assert traced_peak(refused) < LIMIT_64_MIB


@pytest.mark.parametrize("kind", ["full", "restricted", "dense"])
def test_memory_estimates_bound_the_traced_peaks(rng, monkeypatch, kind):
    # a limit just below the traced peak must refuse, four times it admit
    positions = cluster(rng, 12, 5e-6)
    if kind == "full":
        make_basis = lambda: full_basis(12)  # noqa: E731
    elif kind == "restricted":
        radius = float(np.quantile(positions.pairwise_distances(), 0.3))
        make_basis = lambda: restricted_basis(positions, radius)  # noqa: E731
    else:  # strongly blockaded, so evolve() diagonalises
        positions = polygon(8, distance_for_interaction(1e3) / 2)
        make_basis = lambda: full_basis(8)  # noqa: E731
    spec = HamiltonianSpec(positions, OMEGA, C6)
    build_peak = traced_peak(lambda: build_hamiltonian(spec, make_basis()))
    h = build_hamiltonian(spec, make_basis())
    t = np.linspace(0.0, 5e-6, 50)
    assert (plan_propagation(h, t).route == "dense") == (kind == "dense")
    evolve_peak = traced_peak(lambda: evolve(h, ground_state(h.basis), t))
    for peak, call in (
        (build_peak, make_basis),
        (evolve_peak, lambda: evolve(h, ground_state(h.basis), t)),
    ):
        monkeypatch.setattr(blockadesim.core, "MEMORY_LIMIT_BYTES", peak - 1)
        with pytest.raises(SizeCapError):
            call()
        monkeypatch.setattr(blockadesim.core, "MEMORY_LIMIT_BYTES", 4 * peak)
        call()


def test_basis_equality(rng):
    positions = cluster(rng, 5, 1e-6)
    assert restricted_basis(positions, 1e-6) == restricted_basis(positions, 1e-6)
    assert full_basis(5) != restricted_basis(positions, 0.0)


# --- Hamiltonian matrix --------------------------------------------------------


def test_pair_hamiltonian_elements():
    d = 2e-6
    positions = AtomPositions(np.array([[0, 0, 0], [d, 0, 0]]))
    h = build_hamiltonian(HamiltonianSpec(positions, OMEGA, C6), full_basis(2))
    dense = h.matrix.toarray()
    # states 0b00, 0b01, 0b10, 0b11
    assert dense[3, 3] == pytest.approx(C6 / (HBAR * d**6), rel=1e-12)
    assert dense[0, 0] == 0.0
    for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        assert dense[a, b] == pytest.approx(OMEGA / 2, rel=1e-15)
        assert dense[b, a] == pytest.approx(OMEGA / 2, rel=1e-15)
    assert dense[0, 3] == 0.0  # no double flips


def test_detuning_counts_excitations():
    d = 2e-6
    delta = 2 * math.pi * 5e4
    positions = AtomPositions(np.array([[0, 0, 0], [d, 0, 0]]))
    h = build_hamiltonian(
        HamiltonianSpec(positions, OMEGA, C6, detuning=delta), full_basis(2)
    )
    dense = h.matrix.toarray()
    assert dense[1, 1] == pytest.approx(delta, rel=1e-12)
    assert dense[2, 2] == pytest.approx(delta, rel=1e-12)
    assert dense[3, 3] == pytest.approx(2 * delta + C6 / (HBAR * d**6), rel=1e-12)


def test_hamiltonian_is_hermitian(rng):
    positions = cluster(rng, 5, 2e-6)
    h = build_hamiltonian(HamiltonianSpec(positions, OMEGA, C6), full_basis(5))
    asym = (h.matrix - h.matrix.T).toarray()
    assert np.abs(asym).max() == 0.0
    phi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    psi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    lhs = np.vdot(phi, h.matrix @ psi)
    rhs = np.conj(np.vdot(psi, h.matrix @ phi))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_restricted_couplings_stay_in_basis(rng):
    positions = cluster(rng, 6, 5e-7)
    dist = positions.pairwise_distances()
    radius = float(np.median(dist[dist > 0]))
    basis = restricted_basis(positions, radius)
    h = build_hamiltonian(HamiltonianSpec(positions, OMEGA, C6), basis)
    # row sums of the flip part: each state couples only to basis members
    coo = h.matrix.tocoo()
    offdiag = coo.row != coo.col
    assert np.all(np.isin(basis.states[coo.col[offdiag]], basis.states))
    assert np.all(coo.data[offdiag] == OMEGA / 2)


def loop_hamiltonian(spec, basis):
    """Oracle: per-state loops, flips looked up in a dict of basis states."""
    m, states, dim = basis.n_atoms, basis.states, basis.n_states
    dist = spec.positions.pairwise_distances()
    diag = []
    for s in states.tolist():
        value = spec.detuning * bin(s).count("1")
        for i in range(m - 1):
            for j in range(i + 1, m):
                if (s >> i) & (s >> j) & 1:
                    value += spec.c6 / (HBAR * dist[i, j] ** 6)
        diag.append(value)
    index = {s: k for k, s in enumerate(states.tolist())}
    rows, cols = [], []
    for k, s in enumerate(states.tolist()):
        for i in range(m):
            kk = index.get(s ^ (1 << i))
            if s ^ (1 << i) > s and kk is not None:
                rows.append(k)
                cols.append(kk)
    data = np.full(len(rows), spec.omega0 / 2.0)
    return scipy.sparse.coo_matrix(
        (
            np.concatenate([data, data, diag]),
            (np.concatenate([rows, cols, np.arange(dim)]),
             np.concatenate([cols, rows, np.arange(dim)])),
        ),
        shape=(dim, dim),
    ).tocsr()


@pytest.mark.parametrize("kind", ["full", "restricted"])
def test_vectorised_hamiltonian_equals_loop_oracle(rng, kind):
    positions = cluster(rng, 9, 2e-6)
    if kind == "full":
        basis = full_basis(9)
    else:
        dist = positions.pairwise_distances()
        basis = restricted_basis(positions, float(np.median(dist[dist > 0])))
        assert 10 < basis.n_states < 2**9
    spec = HamiltonianSpec(positions, OMEGA, C6, detuning=-0.3 * OMEGA)
    new, old = build_hamiltonian(spec, basis).matrix, loop_hamiltonian(spec, basis)
    assert np.array_equal(new.indptr, old.indptr)
    assert np.array_equal(new.indices, old.indices)
    assert np.array_equal(new.data, old.data)
    # the pair sum as the occupancy einsum wrote it, rounded differently
    occ = ((basis.states[:, None] >> np.arange(9)) & 1).astype(float)
    dist = positions.pairwise_distances()
    np.fill_diagonal(dist, np.inf)
    vmat = C6 / (HBAR * dist**6)
    einsum = spec.detuning * occ.sum(axis=1) + 0.5 * np.einsum("si,ij,sj->s", occ, vmat, occ)
    # m*m summed terms, each rounding once
    assert np.abs(new.diagonal() - einsum).max() <= 81 * np.finfo(float).eps * np.abs(einsum).max()
    assert np.array_equal(basis.popcounts, occ.sum(axis=1))


def test_geometry_basis_mismatch(rng):
    positions = cluster(rng, 4, 1e-6)
    with pytest.raises(BasisMismatchError):
        build_hamiltonian(HamiltonianSpec(positions, OMEGA, C6), full_basis(5))


# --- propagation ---------------------------------------------------------------


def test_single_atom_rabi_oscillation():
    positions = AtomPositions(np.zeros((1, 3)))
    h = build_hamiltonian(HamiltonianSpec(positions, OMEGA, 0.0), full_basis(1))
    t = np.linspace(0.0, 5 * 2 * np.pi / OMEGA, 600)
    n_r = rydberg_number(evolve(h, ground_state(h.basis), t))
    assert np.abs(n_r - np.sin(OMEGA * t / 2) ** 2).max() < 1e-12


def test_noninteracting_atoms_factorize(rng):
    positions = cluster(rng, 3, 1e-6)
    h = build_hamiltonian(HamiltonianSpec(positions, OMEGA, 0.0), full_basis(3))
    t = np.linspace(0.0, 2 * 2 * np.pi / OMEGA, 300)
    n_r = rydberg_number(evolve(h, ground_state(h.basis), t))
    assert np.abs(n_r - 3 * np.sin(OMEGA * t / 2) ** 2).max() < 1e-12


def test_two_blockaded_atoms_oscillate_at_sqrt2(rng):
    d = distance_for_interaction(1e4)
    positions = AtomPositions(np.array([[0, 0, 0], [d, 0, 0]]))
    h = build_hamiltonian(HamiltonianSpec(positions, OMEGA, C6), full_basis(2))
    t = np.linspace(0.0, 2 * np.pi / (math.sqrt(2) * OMEGA), 400)[1:]
    n_r = rydberg_number(evolve(h, ground_state(h.basis), t))
    ideal = np.sin(math.sqrt(2) * OMEGA * t / 2) ** 2
    assert np.abs(n_r - ideal).max() < 0.01
    assert n_r.max() <= 1.02


def evolve_by(route, monkeypatch, h, psi0, t):
    """evolve() on the named route; fails if the other route ran.

    A zero cutoff forces Taylor stepping. Dense cannot be forced (the cost
    rule has no knob), so dense callers pass inputs the rule sends to dense
    and the eigh spy proves it did.
    """
    eigh, calls = scipy.linalg.eigh, []

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(scipy.linalg, "eigh", counted)
        if route == "taylor":
            patch.setattr(blockadesim.exact, "DENSE_DIM_CUTOFF", 0)
        trajectory = evolve(h, psi0, t)
    assert len(calls) == (1 if route == "dense" else 0)
    return trajectory


def max_amplitude_gap(a, b):
    return np.abs(a.amplitudes - b.amplitudes).max()


def test_sparse_and_dense_routes_agree(rng, monkeypatch):
    positions = cluster(rng, 6, 1.5e-6)
    h = build_hamiltonian(HamiltonianSpec(positions, OMEGA, C6), full_basis(6))
    t = np.linspace(0.0, 2 * np.pi / OMEGA, 40)
    psi0 = ground_state(h.basis)
    dense = evolve_by("dense", monkeypatch, h, psi0, t)
    taylor = evolve_by("taylor", monkeypatch, h, psi0, t)  # cutoff read at call time
    assert max_amplitude_gap(dense, taylor) < 1e-8


def test_grid_refinement_leaves_values_unchanged(rng, monkeypatch):
    positions = cluster(rng, 4, 1.5e-6)
    h = build_hamiltonian(HamiltonianSpec(positions, OMEGA, C6), full_basis(4))
    coarse = np.linspace(0.0, 2 * np.pi / OMEGA, 33)
    fine = np.linspace(0.0, 2 * np.pi / OMEGA, 65)  # midpoints inserted
    psi0 = ground_state(h.basis)
    for route in ("dense", "taylor"):
        on_coarse = rydberg_number(evolve_by(route, monkeypatch, h, psi0, coarse))
        on_fine = rydberg_number(evolve_by(route, monkeypatch, h, psi0, fine))
        assert np.abs(on_coarse - on_fine[::2]).max() < 1e-8


def test_norm_conserved_along_trajectory(rng, monkeypatch):
    positions = cluster(rng, 5, 1.5e-6)
    h = build_hamiltonian(HamiltonianSpec(positions, OMEGA, C6), full_basis(5))
    t = np.linspace(0.0, 2 * np.pi / OMEGA, 200)
    for route in ("dense", "taylor"):
        trajectory = evolve_by(route, monkeypatch, h, ground_state(h.basis), t)
        drift = np.abs(trajectory.norm() - 1.0).max()
        assert drift < 1e-9


def test_taylor_splits_one_long_step_into_substeps(rng, monkeypatch):
    positions = cluster(rng, 5, 1.5e-6)
    h = build_hamiltonian(HamiltonianSpec(positions, OMEGA, C6), full_basis(5))
    t = np.array([2 * np.pi / OMEGA])  # a single interval from t = 0
    assert plan_propagation(h, t).substeps[0] > 10
    psi0 = ground_state(h.basis)
    gap = max_amplitude_gap(
        evolve_by("dense", monkeypatch, h, psi0, t),
        evolve_by("taylor", monkeypatch, h, psi0, t),
    )
    assert gap < 1e-8


def test_taylor_matches_dense_on_log_grid(rng, monkeypatch):
    # the grid that time.spacing = log builds: 0, then geometric times
    positions = cluster(rng, 5, 1.5e-6)
    h = build_hamiltonian(HamiltonianSpec(positions, OMEGA, C6), full_basis(5))
    t = np.concatenate([[0.0], np.geomspace(1e-10, 2 * np.pi / OMEGA, 59)])
    steps = plan_propagation(h, t).substeps
    assert steps[0] == 0 and steps[1] == 1 and steps[-1] > steps[-2] > 1
    psi0 = ground_state(h.basis)
    gap = max_amplitude_gap(
        evolve_by("dense", monkeypatch, h, psi0, t),
        evolve_by("taylor", monkeypatch, h, psi0, t),
    )
    assert gap < 1e-8


def test_taylor_matches_dense_with_detuning(rng, monkeypatch):
    # a detuning of 30 omega0 moves the mean diagonal the Taylor route removes
    positions = cluster(rng, 5, 3e-6)
    spec = HamiltonianSpec(positions, OMEGA, C6, detuning=30 * OMEGA)
    h = build_hamiltonian(spec, full_basis(5))
    t = np.linspace(0.0, 2 * np.pi / OMEGA, 50)
    plan = plan_propagation(h, t)
    assert plan.shift == pytest.approx(h.matrix.diagonal().mean())
    assert plan.shift > 2.5 * 30 * OMEGA  # half the atoms excited on average
    psi0 = ground_state(h.basis)
    gap = max_amplitude_gap(
        evolve_by("dense", monkeypatch, h, psi0, t),
        evolve_by("taylor", monkeypatch, h, psi0, t),
    )
    assert gap < 1e-8


def test_strongly_blockaded_polygon_takes_dense_route_quickly(monkeypatch):
    # acceptance 02's largest case: diagonal entries up to 2.6e6 hbar omega0
    # would need 2.7e5 Taylor substeps, so the cost rule must pick dense
    diameter = (C6 / (1e3 * HBAR * OMEGA)) ** (1.0 / 6.0)
    h = build_hamiltonian(
        HamiltonianSpec(polygon(8, diameter / 2), OMEGA, C6), full_basis(8)
    )
    t_pi = np.pi / (math.sqrt(8) * OMEGA)
    t = np.linspace(0.0, 1.2 * t_pi, 241)
    plan = plan_propagation(h, t)
    assert plan.route == "dense" and plan.substeps.sum() > 1e5
    start = time.perf_counter()
    trajectory = evolve_by("dense", monkeypatch, h, ground_state(h.basis), t)
    assert time.perf_counter() - start < 1.0
    assert w_state_fidelity(trajectory)[200] > 0.99


def test_benchmark_sizes_pick_the_expected_route(rng):
    # dense only while dim**3 undercuts the Taylor products
    t = np.linspace(0.0, 5e-6, 200)
    omega = 2 * np.pi * 210e3
    for m, route in ((8, "dense"), (9, "taylor"), (10, "taylor")):
        positions = cluster(rng, m, 5e-6)
        h = build_hamiltonian(HamiltonianSpec(positions, omega, C6), full_basis(m))
        assert plan_propagation(h, t).route == route


def test_restricted_matches_full_when_strongly_blockaded(rng):
    # mixed geometry: some pairs inside the restriction radius, some out
    radius = distance_for_interaction(100.0)
    positions = cluster(rng, 6, radius)
    h_full = build_hamiltonian(HamiltonianSpec(positions, OMEGA, C6), full_basis(6))
    h_rest = build_hamiltonian(
        HamiltonianSpec(positions, OMEGA, C6), restricted_basis(positions, radius)
    )
    assert h_rest.dim < h_full.dim
    t = np.linspace(0.0, 2 * np.pi / OMEGA, 120)
    n_full = rydberg_number(evolve(h_full, ground_state(h_full.basis), t))
    n_rest = rydberg_number(evolve(h_rest, ground_state(h_rest.basis), t))
    assert np.abs(n_full - n_rest).max() < 0.01 * n_full.max()


def test_blockade_only_suppresses(rng):
    # interacting expectation never exceeds the independent-atom value on
    # the rising half period
    for _ in range(5):
        m = int(rng.integers(2, 9))
        positions = cluster(rng, m, 4.76e-6 * float(rng.uniform(0.3, 2.0)))
        h = build_hamiltonian(
            HamiltonianSpec(positions, OMEGA, C6), full_basis(m)
        )
        t = np.linspace(0.0, np.pi / OMEGA, 150)[1:]
        n_r = rydberg_number(evolve(h, ground_state(h.basis), t))
        assert np.all(n_r <= m * np.sin(OMEGA * t / 2) ** 2 + 1e-9)


def test_evolve_validates_grid(rng):
    positions = cluster(rng, 2, 1e-6)
    h = build_hamiltonian(HamiltonianSpec(positions, OMEGA, C6), full_basis(2))
    psi0 = ground_state(h.basis)
    with pytest.raises(InvalidParameterError):
        evolve(h, psi0, np.array([0.0, 2.0, 1.0]))
    with pytest.raises(InvalidParameterError):
        evolve(h, psi0, np.array([-1.0, 0.0]))
    with pytest.raises(InvalidParameterError):
        evolve(h, psi0, np.array([]))
    for grid in ([0.0, np.inf], [np.nan]):
        with pytest.raises(InvalidParameterError, match="time grid must be finite"):
            evolve(h, psi0, grid)


def test_evolve_returns_one_trajectory_state(rng):
    positions = cluster(rng, 5, 1.5e-6)
    h = build_hamiltonian(HamiltonianSpec(positions, OMEGA, C6), full_basis(5))
    t = np.linspace(0.0, 2 * np.pi / OMEGA, 40)
    trajectory = evolve(h, ground_state(h.basis), t)
    assert isinstance(trajectory, QuantumState)
    assert trajectory.amplitudes.shape == (t.size, 32)
    assert trajectory.basis == h.basis
    # per-row oracles: the single-state formulas, one row at a time
    rows = trajectory.amplitudes
    n_rows = [float(np.abs(r) ** 2 @ h.basis.popcounts) for r in rows]
    w_rows = [float(abs(r[h.basis.singles].sum()) ** 2 / 5) for r in rows]
    for observable, oracle in (
        (trajectory.norm(), [float(np.linalg.norm(r)) for r in rows]),
        (rydberg_number(trajectory), n_rows),
        (w_state_fidelity(trajectory), w_rows),
    ):
        assert observable.shape == (t.size,)
        assert np.abs(observable - oracle).max() <= 64 * np.finfo(float).eps * max(oracle)


def test_evolve_rejects_a_trajectory_as_initial_state(rng):
    positions = cluster(rng, 2, 1e-6)
    h = build_hamiltonian(HamiltonianSpec(positions, OMEGA, C6), full_basis(2))
    trajectory = evolve(h, ground_state(h.basis), np.array([0.0, 1e-7]))
    with pytest.raises(InvalidParameterError, match="one state"):
        evolve(h, trajectory, np.array([0.0, 1e-7]))


def test_trajectory_observables_allocate_no_trajectory_sized_array(rng):
    basis = full_basis(12)
    shape = (50, basis.n_states)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    # abs(amps)**2 alone would allocate amps.nbytes / 2
    limit = amps.nbytes / 16
    for observe in (
        lambda: QuantumState(amps, basis),
        lambda: QuantumState(amps, basis).norm(),
        lambda: rydberg_number(QuantumState(amps, basis)),
        lambda: w_state_fidelity(QuantumState(amps, basis)),
    ):
        tracemalloc.start()
        try:
            observe()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


def test_evolve_rejects_basis_mismatch(rng):
    positions = cluster(rng, 3, 1e-6)
    h = build_hamiltonian(HamiltonianSpec(positions, OMEGA, C6), full_basis(3))
    other = ground_state(restricted_basis(positions, 1.0))
    with pytest.raises(BasisMismatchError):
        evolve(h, other, np.array([0.0, 1e-7]))


def test_quantum_state_requires_normalization():
    basis = full_basis(2)
    with pytest.raises(InvalidParameterError):
        QuantumState(np.array([0.5, 0.0, 0.0, 0.0]), basis)
    with pytest.raises(InvalidParameterError, match="nan"):
        QuantumState(np.array([np.nan, 0.0, 0.0, 0.0]), basis)


def test_quantum_state_trajectory_checks_every_row():
    basis = full_basis(2)
    rows = np.eye(4, dtype=complex)[:3]
    trajectory = QuantumState(rows, basis)
    assert np.array_equal(trajectory.norm(), np.ones(3))
    assert isinstance(QuantumState(rows[0], basis).norm(), float)
    for k, bad in ((1, 0.5), (2, np.nan)):
        broken = rows.copy()
        broken[k, k] = bad
        with pytest.raises(InvalidParameterError, match=f"{bad} in row {k}"):
            QuantumState(broken, basis)
    for shape in ((3, 8), (2, 3, 4), ()):
        with pytest.raises(BasisMismatchError):
            QuantumState(np.ones(shape, dtype=complex) / 2, basis)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(omega0=math.inf),
        dict(c6=math.inf),
        dict(c6=math.nan),
        dict(detuning=math.nan),
        dict(detuning=-math.inf),
    ],
)
def test_hamiltonian_spec_requires_finite_values(rng, kwargs):
    spec = dict(positions=cluster(rng, 2, 1e-6), omega0=OMEGA, c6=C6) | kwargs
    with pytest.raises(InvalidParameterError, match="finite"):
        HamiltonianSpec(**spec)


# --- observables ----------------------------------------------------------------


def test_rydberg_number_of_ground_state():
    n_r = rydberg_number(ground_state(full_basis(3)))
    assert isinstance(n_r, float) and n_r == 0.0


def test_rydberg_number_counts_excitations():
    basis = full_basis(2)
    amps = np.zeros(4, dtype=complex)
    amps[3] = 1.0  # both atoms excited
    assert rydberg_number(QuantumState(amps, basis)) == pytest.approx(2.0)


def test_w_state_has_unit_fidelity_and_single_excitation():
    basis = full_basis(4)
    amps = np.zeros(16, dtype=complex)
    amps[basis.singles] = 0.5  # 1/sqrt(4)
    w = QuantumState(amps, basis)
    assert w_state_fidelity(w) == pytest.approx(1.0, rel=1e-12)
    assert rydberg_number(w) == pytest.approx(1.0, rel=1e-12)


def test_w_fidelity_of_ground_state_is_zero():
    fidelity = w_state_fidelity(ground_state(full_basis(3)))
    assert isinstance(fidelity, float) and fidelity == 0.0


@pytest.mark.parametrize("m", [25, 40, 63])
def test_fully_blockaded_cluster_follows_the_collective_law(rng, m):
    # one excitation shared by all m atoms: n_ryd = sin^2(sqrt(m) omega0 t / 2)
    positions = cluster(rng, m, 1e-7)
    basis = restricted_basis(positions, 1.0)
    assert basis.n_states == m + 1
    h = build_hamiltonian(HamiltonianSpec(positions, OMEGA, C6), basis)
    t_half = np.pi / (math.sqrt(m) * OMEGA)  # half the collective period
    t = np.linspace(0.0, 4 * t_half, 201)
    trajectory = evolve(h, ground_state(basis), t)
    ideal = np.sin(math.sqrt(m) * OMEGA * t / 2) ** 2
    assert np.abs(rydberg_number(trajectory) - ideal).max() < 1e-12
    assert w_state_fidelity(trajectory)[50] > 1 - 1e-12


def test_blockaded_pi_pulse_lands_on_w_state(rng):
    m = 5
    radius = distance_for_interaction(1e3)
    positions = polygon(m, radius / 2)
    h = build_hamiltonian(HamiltonianSpec(positions, OMEGA, C6), full_basis(m))
    t_pi = np.pi / (math.sqrt(m) * OMEGA)
    trajectory = evolve(h, ground_state(h.basis), np.array([t_pi]))
    assert w_state_fidelity(trajectory)[0] > 0.99
