"""Exact solver: basis enumeration, Hamiltonian structure, propagation."""

import contextlib
import math
import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.special

import blockadesim.core
import blockadesim.exact
from blockadesim.constants import HBAR
from blockadesim.errors import InputFileError, InvalidParameterError, SizeCapError
from blockadesim.exact import (
    MAX_ATOMS,
    AtomPositions,
    Hamiltonian,
    QuantumState,
    build_hamiltonian,
    evolve,
    full_basis,
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
    with pytest.raises(InvalidParameterError, match="must have shape"):
        AtomPositions(np.zeros((3, 2)))


def test_positions_reject_nonfinite():
    with pytest.raises(InvalidParameterError, match="positions must be finite"):
        AtomPositions(np.array([[0.0, 0.0, np.inf]]))


def test_positions_reject_coincident_atoms():
    with pytest.raises(InvalidParameterError, match="coincident"):
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
    path = tmp_path / "nope.txt"
    with pytest.raises(InputFileError, match=f"^{re.escape(str(path))}: "):
        AtomPositions.from_text(str(path))


def test_positions_file_refuses_the_atom_past_the_cap_unread_beyond_it(tmp_path):
    path = tmp_path / "atoms.txt"
    atoms = [f"{k}e-6 0 0\n# comment\n\n" for k in range(MAX_ATOMS)]
    path.write_text("".join(atoms))
    assert len(AtomPositions.from_text(str(path))) == MAX_ATOMS
    # the malformed line after the first atom past the cap is never parsed
    path.write_text("".join(atoms) + "1 2 3\nnot an atom\n")
    with pytest.raises(SizeCapError, match=f"line {3 * MAX_ATOMS + 1}: atom {MAX_ATOMS + 1} "):
        AtomPositions.from_text(str(path))


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
        h = build_hamiltonian(cluster(rng, 14, 5e-6), full_basis(14), OMEGA, C6)
        t = np.linspace(0.0, 1e-6, 10**6)
        call = lambda: evolve(h, t)  # noqa: E731
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


@pytest.mark.parametrize("kind", ["full", "restricted", "dense", "dense-2048"])
def test_memory_estimates_bound_the_traced_peaks(rng, monkeypatch, kind):
    # a limit just below the traced peak must refuse, four times it admit
    positions = cluster(rng, 12, 5e-6)
    if kind == "full":
        make_basis = lambda: full_basis(12)  # noqa: E731
    elif kind == "restricted":
        radius = float(np.quantile(positions.pairwise_distances(), 0.3))
        make_basis = lambda: restricted_basis(positions, radius)  # noqa: E731
    else:  # strongly blockaded, so evolve() diagonalises
        m = 11 if kind == "dense-2048" else 8
        positions = polygon(m, distance_for_interaction(1e3) / 2)
        make_basis = lambda: full_basis(m)  # noqa: E731
    build_peak = traced_peak(lambda: build_hamiltonian(positions, make_basis(), OMEGA, C6))
    h = build_hamiltonian(positions, make_basis(), OMEGA, C6)
    t = np.linspace(0.0, 5e-6, 50)
    assert (plan_propagation(h, t).route == "dense") == kind.startswith("dense")
    evolve_peak = traced_peak(lambda: evolve(h, t))
    for peak, call in (
        (build_peak, make_basis),
        (evolve_peak, lambda: evolve(h, t)),
    ):
        monkeypatch.setattr(blockadesim.core, "MEMORY_LIMIT_BYTES", peak - 1)
        with pytest.raises(SizeCapError):
            call()
        monkeypatch.setattr(blockadesim.core, "MEMORY_LIMIT_BYTES", 4 * peak)
        call()


# --- Hamiltonian matrix --------------------------------------------------------


def test_pair_hamiltonian_elements():
    d = 2e-6
    positions = AtomPositions(np.array([[0, 0, 0], [d, 0, 0]]))
    h = build_hamiltonian(positions, full_basis(2), OMEGA, C6)
    dense = h.matrix.toarray()
    # states 0b00, 0b01, 0b10, 0b11
    assert dense[3, 3] == pytest.approx(C6 / (HBAR * d**6), rel=1e-12)
    assert dense[0, 0] == 0.0
    for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        assert dense[a, b] == pytest.approx(OMEGA / 2, rel=1e-15)
        assert dense[b, a] == pytest.approx(OMEGA / 2, rel=1e-15)
    assert dense[0, 3] == 0.0  # no double flips


def test_hamiltonian_is_hermitian(rng):
    positions = cluster(rng, 5, 2e-6)
    h = build_hamiltonian(positions, full_basis(5), OMEGA, C6)
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
    h = build_hamiltonian(positions, basis, OMEGA, C6)
    # row sums of the flip part: each state couples only to basis members
    coo = h.matrix.tocoo()
    offdiag = coo.row != coo.col
    assert np.all(np.isin(basis.states[coo.col[offdiag]], basis.states))
    assert np.all(coo.data[offdiag] == OMEGA / 2)


def loop_hamiltonian(positions, basis, omega0, c6):
    """Oracle: per-state loops, flips looked up in a dict of basis states."""
    m, states, dim = basis.n_atoms, basis.states, basis.n_states
    dist = positions.pairwise_distances()
    diag = []
    for s in states.tolist():
        value = 0.0
        for i in range(m - 1):
            for j in range(i + 1, m):
                if (s >> i) & (s >> j) & 1:
                    value += c6 / (HBAR * dist[i, j] ** 6)
        diag.append(value)
    index = {s: k for k, s in enumerate(states.tolist())}
    rows, cols = [], []
    for k, s in enumerate(states.tolist()):
        for i in range(m):
            kk = index.get(s ^ (1 << i))
            if s ^ (1 << i) > s and kk is not None:
                rows.append(k)
                cols.append(kk)
    data = np.full(len(rows), omega0 / 2.0)
    return scipy.sparse.coo_matrix(
        (
            np.concatenate([data, data, diag]),
            (np.concatenate([rows, cols, np.arange(dim)]),
             np.concatenate([cols, rows, np.arange(dim)])),
        ),
        shape=(dim, dim),
    ).tocsr()


def search_hamiltonian(positions, basis, omega0, c6):
    """Oracle: the earlier assembly, each state's partner with atom i
    excited found by a search over all states, then COO -> CSR."""
    m, states, dim = basis.n_atoms, basis.states, basis.n_states
    diag = blockadesim.exact._pair_shifts(positions, c6, states) if c6 > 0.0 else np.zeros(dim)
    rows, cols = [], []
    for i in range(m):
        lower = np.flatnonzero(((states >> i) & 1) == 0)
        upper = states[lower] | (1 << i)
        found = np.minimum(np.searchsorted(states, upper), dim - 1)
        hit = states[found] == upper
        rows.append(lower[hit])
        cols.append(found[hit])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.full(rows.shape, omega0 / 2.0)
    return scipy.sparse.coo_matrix(
        (
            np.concatenate([data, data, diag]),
            (np.concatenate([rows, cols, np.arange(dim)]),
             np.concatenate([cols, rows, np.arange(dim)])),
        ),
        shape=(dim, dim),
    ).tocsr()


def assert_flips_match_the_search(positions, basis, c6=C6):
    """build_hamiltonian's CSR arrays equal the search oracle's bit for
    bit, and every flip, recorded or assembled, changes exactly one atom."""
    new = build_hamiltonian(positions, basis, OMEGA, c6).matrix
    old = search_hamiltonian(positions, basis, OMEGA, c6)
    for name in ("indptr", "indices", "data"):
        assert getattr(new, name).dtype == getattr(old, name).dtype, name
        assert getattr(new, name).tobytes() == getattr(old, name).tobytes(), name
    states = basis.states
    assert basis.parents[0] == -1
    made = states[1:] ^ states[basis.parents[1:]]  # the highest excited atom
    assert np.all(np.bitwise_count(made) == 1) and np.all(made > states[1:] ^ made)
    rows = np.repeat(np.arange(basis.n_states), np.diff(new.indptr))
    flips = new.indices != rows
    assert np.all(np.bitwise_count(states[rows[flips]] ^ states[new.indices[flips]]) == 1)
    assert np.count_nonzero(flips) == old.nnz - basis.n_states


@pytest.mark.parametrize("m", range(1, 15))
def test_full_hamiltonian_equals_the_search_oracle_bit_for_bit(m):
    positions = cluster(np.random.default_rng(m), m, 2e-6)
    assert_flips_match_the_search(positions, full_basis(m))
    if m == 6:  # zero C6: every diagonal entry an explicit zero
        assert_flips_match_the_search(positions, full_basis(m), c6=0.0)


@pytest.mark.parametrize("seed", range(4))
def test_restricted_hamiltonian_equals_the_search_oracle_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    positions = cluster(rng, 9 + 2 * seed, 1e-6)
    dist = positions.pairwise_distances()
    quantiles = np.quantile(dist[dist > 0], np.linspace(0.1, 0.9, 9)).tolist()
    for radius in [0.0, *quantiles, 1.01 * dist.max()]:
        assert_flips_match_the_search(positions, restricted_basis(positions, radius))


@pytest.mark.parametrize("kind", ["full", "restricted"])
def test_vectorised_hamiltonian_equals_loop_oracle(rng, kind):
    positions = cluster(rng, 9, 2e-6)
    if kind == "full":
        basis = full_basis(9)
    else:
        dist = positions.pairwise_distances()
        basis = restricted_basis(positions, float(np.median(dist[dist > 0])))
        assert 10 < basis.n_states < 2**9
    args = (positions, basis, OMEGA, C6)
    new, old = build_hamiltonian(*args).matrix, loop_hamiltonian(*args)
    assert np.array_equal(new.indptr, old.indptr)
    assert np.array_equal(new.indices, old.indices)
    # the flips exactly; the pair sums, added in another order, to rounding
    rows = np.repeat(np.arange(basis.n_states), np.diff(new.indptr))
    flips = new.indices != rows
    assert np.array_equal(new.data[flips], old.data[flips])
    loop_diag = old.diagonal()
    assert np.abs(new.diagonal() - loop_diag).max() <= 81 * np.finfo(float).eps * np.abs(loop_diag).max()
    # the pair sum as the occupancy einsum wrote it, rounded differently
    occ = ((basis.states[:, None] >> np.arange(9)) & 1).astype(float)
    dist = positions.pairwise_distances()
    np.fill_diagonal(dist, np.inf)
    vmat = C6 / (HBAR * dist**6)
    einsum = 0.5 * np.einsum("si,ij,sj->s", occ, vmat, occ)
    # m*m summed terms, each rounding once
    assert np.abs(new.diagonal() - einsum).max() <= 81 * np.finfo(float).eps * np.abs(einsum).max()
    assert np.array_equal(basis.popcounts, occ.sum(axis=1))


def test_geometry_basis_mismatch(rng):
    positions = cluster(rng, 4, 1e-6)
    with pytest.raises(InvalidParameterError, match="basis over 5 atoms, geometry has 4"):
        build_hamiltonian(positions, full_basis(5), OMEGA, C6)


# --- propagation ---------------------------------------------------------------


def test_single_atom_rabi_oscillation():
    positions = AtomPositions(np.zeros((1, 3)))
    h = build_hamiltonian(positions, full_basis(1), OMEGA, 0.0)
    t = np.linspace(0.0, 5 * 2 * np.pi / OMEGA, 600)
    n_r = rydberg_number(evolve(h, t))
    assert np.abs(n_r - np.sin(OMEGA * t / 2) ** 2).max() < 1e-12


def test_noninteracting_atoms_factorize(rng):
    positions = cluster(rng, 3, 1e-6)
    h = build_hamiltonian(positions, full_basis(3), OMEGA, 0.0)
    t = np.linspace(0.0, 2 * 2 * np.pi / OMEGA, 300)
    n_r = rydberg_number(evolve(h, t))
    assert np.abs(n_r - 3 * np.sin(OMEGA * t / 2) ** 2).max() < 1e-12


def test_two_blockaded_atoms_oscillate_at_sqrt2(rng):
    d = distance_for_interaction(1e4)
    positions = AtomPositions(np.array([[0, 0, 0], [d, 0, 0]]))
    h = build_hamiltonian(positions, full_basis(2), OMEGA, C6)
    t = np.linspace(0.0, 2 * np.pi / (math.sqrt(2) * OMEGA), 400)[1:]
    n_r = rydberg_number(evolve(h, t))
    ideal = np.sin(math.sqrt(2) * OMEGA * t / 2) ** 2
    assert np.abs(n_r - ideal).max() < 0.01
    assert n_r.max() <= 1.02


def evolve_by(route, force_chebyshev, h, t):
    """evolve() on the named route; fails if the other route ran.

    The force_chebyshev fixture forces the Chebyshev expansion. Dense cannot
    be forced (the cost rule has no knob), so dense callers pass inputs the
    rule sends to dense and the eigh spy proves it did.
    """
    forced = force_chebyshev() if route == "chebyshev" else contextlib.nullcontext()
    with forced, mock.patch.object(scipy.linalg, "eigh", wraps=scipy.linalg.eigh) as eigh:
        trajectory = evolve(h, t)
    assert eigh.call_count == (1 if route == "dense" else 0)
    return trajectory


def max_amplitude_gap(a, b):
    return np.abs(a.amplitudes - b.amplitudes).max()


def routes_gap(force_chebyshev, h, t):
    return max_amplitude_gap(
        evolve_by("dense", force_chebyshev, h, t),
        evolve_by("chebyshev", force_chebyshev, h, t),
    )


def detuned(h, detuning):
    """``h`` plus ``detuning`` per excitation: evolve() propagates any real
    symmetric H, and a detuning moves the centre of its spectrum."""
    return Hamiltonian(h.basis, h.matrix + scipy.sparse.diags(detuning * h.basis.popcounts))


def expm_first_column(h, t):
    """The oracle: column 0 of scipy's exp(-i H t), one dense expm per time."""
    dense = h.matrix.toarray()
    return np.array([scipy.linalg.expm(-1j * dense * time)[:, 0] for time in t])


def spaced_cluster(rng, m, scale, spacing):
    """A Gaussian cluster, redrawn until no pair is closer than spacing."""
    while True:
        positions = cluster(rng, m, scale)
        if positions.pairwise_distances()[np.triu_indices(m, 1)].min() >= spacing:
            return positions


@pytest.mark.parametrize("basis_kind", ["full", "restricted"])
@pytest.mark.parametrize("route", ["chebyshev", "dense"])
def test_both_routes_match_scipy_expm(rng, force_chebyshev, route, basis_kind):
    # an oracle outside the package. Over 300 draws per case the gap stayed
    # below 3.7 u max(1, a t_max), the rounding of the phases (u = 2**-53,
    # a the Gershgorin half-width); the bound is 16 times that. Pairs 0.3
    # to 0.6 um apart make the cluster stiff, so the cost rule picks dense.
    scale, spacing = (3e-6, 1.5e-6) if route == "chebyshev" else (0.6e-6, 0.3e-6)
    t = np.linspace(0.0, 2 * np.pi / OMEGA, 6)
    for _ in range(5):
        m = int(rng.integers(5, 7))
        positions = spaced_cluster(rng, m, scale, spacing)
        if basis_kind == "full":
            basis = full_basis(m)
        else:
            distances = positions.pairwise_distances()[np.triu_indices(m, 1)]
            basis = restricted_basis(positions, float(np.quantile(distances, 0.3)))
        detuning = float(rng.uniform(-3.0, 3.0)) * OMEGA
        h = detuned(build_hamiltonian(positions, basis, OMEGA, C6), detuning)
        trajectory = evolve_by(route, force_chebyshev, h, t)
        bound = 16 * 2.0**-53 * max(1.0, plan_propagation(h, t).half_width * t[-1])
        assert np.abs(trajectory.amplitudes - expm_first_column(h, t)).max() < bound


def test_sparse_and_dense_routes_agree(rng, force_chebyshev):
    positions = cluster(rng, 6, 1.5e-6)
    h = build_hamiltonian(positions, full_basis(6), OMEGA, C6)
    t = np.linspace(0.0, 2 * np.pi / OMEGA, 40)
    assert routes_gap(force_chebyshev, h, t) < 1e-8


def test_grid_refinement_leaves_values_unchanged(rng, force_chebyshev):
    positions = cluster(rng, 4, 1.5e-6)
    h = build_hamiltonian(positions, full_basis(4), OMEGA, C6)
    coarse = np.linspace(0.0, 2 * np.pi / OMEGA, 33)
    fine = np.linspace(0.0, 2 * np.pi / OMEGA, 65)  # midpoints inserted
    for route in ("dense", "chebyshev"):
        on_coarse = rydberg_number(evolve_by(route, force_chebyshev, h, coarse))
        on_fine = rydberg_number(evolve_by(route, force_chebyshev, h, fine))
        assert np.abs(on_coarse - on_fine[::2]).max() < 1e-8


def test_norm_conserved_along_trajectory(rng, force_chebyshev):
    positions = cluster(rng, 5, 1.5e-6)
    h = build_hamiltonian(positions, full_basis(5), OMEGA, C6)
    t = np.linspace(0.0, 2 * np.pi / OMEGA, 200)
    for route in ("dense", "chebyshev"):
        trajectory = evolve_by(route, force_chebyshev, h, t)
        drift = np.abs(trajectory.norm() - 1.0).max()
        assert drift < 1e-9


def test_chebyshev_matches_dense_over_one_long_interval(rng, force_chebyshev):
    positions = cluster(rng, 5, 1.5e-6)
    h = build_hamiltonian(positions, full_basis(5), OMEGA, C6)
    t = np.array([2 * np.pi / OMEGA])  # a single time, far from t = 0
    assert plan_propagation(h, t).terms > 20
    assert routes_gap(force_chebyshev, h, t) < 1e-8


def test_chebyshev_matches_dense_on_log_grid(rng, force_chebyshev):
    # the grid that time.spacing = log builds: 0, then geometric times
    positions = cluster(rng, 5, 1.5e-6)
    h = build_hamiltonian(positions, full_basis(5), OMEGA, C6)
    t = np.concatenate([[0.0], np.geomspace(1e-10, 2 * np.pi / OMEGA, 59)])
    # the last time alone sets the number of terms
    assert plan_propagation(h, t).terms == plan_propagation(h, t[-1:]).terms
    assert routes_gap(force_chebyshev, h, t) < 1e-8


def test_chebyshev_matches_dense_with_detuning(rng, force_chebyshev):
    # a detuning of 30 omega0 moves the spectrum's centre, which the
    # expansion takes out of H and puts back as the phase exp(-i b t)
    positions = cluster(rng, 5, 3e-6)
    h = detuned(build_hamiltonian(positions, full_basis(5), OMEGA, C6), 30 * OMEGA)
    t = np.linspace(0.0, 2 * np.pi / OMEGA, 50)
    plan = plan_propagation(h, t)
    spectrum = np.linalg.eigvalsh(h.matrix.toarray())
    assert plan.center - plan.half_width <= spectrum[0]
    assert spectrum[-1] <= plan.center + plan.half_width
    assert plan.center > 2.5 * 30 * OMEGA  # half the atoms excited on average
    assert routes_gap(force_chebyshev, h, t) < 1e-8


def test_chebyshev_matches_dense_on_a_grid_starting_late(rng, force_chebyshev):
    positions = cluster(rng, 5, 1.5e-6)
    h = build_hamiltonian(positions, full_basis(5), OMEGA, C6)
    t = np.linspace(0.7, 1.5, 30) * 2 * np.pi / OMEGA
    assert routes_gap(force_chebyshev, h, t) < 1e-8


class CountingMatrix(scipy.sparse.csr_matrix):
    """A CSR matrix that counts its products with vectors."""

    products = 0

    def __matmul__(self, other):
        CountingMatrix.products += 1
        return super().__matmul__(other)


def test_chebyshev_evolve_makes_one_sparse_product_per_term(rng, monkeypatch):
    positions = cluster(rng, 8, 5e-6)
    h = build_hamiltonian(positions, full_basis(8), OMEGA, C6)
    counted = Hamiltonian(h.basis, CountingMatrix(h.matrix))
    t = np.linspace(0.0, 2 * np.pi / OMEGA, 50)
    plan = plan_propagation(counted, t)
    assert plan.route == "chebyshev" and plan.terms > 20
    monkeypatch.setattr(CountingMatrix, "products", 0)
    evolve(counted, t)
    assert CountingMatrix.products == plan.terms - 1


def test_chebyshev_terms_grow_as_the_bessel_cut(rng):
    # 14 atoms from the reference cloud at 210 kHz for 5 us, as perfbench's
    # exact-full-14: terms n with x < n <= x + C x**(1/3), x = a t_max. The
    # measured (n - x) / x**(1/3) exceeds C = 12 only below x = 11.7 (12.28
    # at x = 5, 12.07 at 10); it is at most 11.74 from x = 20 on and falls
    # to 10.15 at 1e6. Here x is about 57.
    omega = 2 * np.pi * 210e3
    positions = cluster(rng, 14, 22.6e-6)
    h = build_hamiltonian(positions, full_basis(14), omega, C6)
    t = np.linspace(0.0, 5e-6, 50)
    plan = plan_propagation(h, t)
    x = plan.half_width * t[-1]
    assert plan.route == "chebyshev" and x > 20
    assert x < plan.terms <= x + 12 * np.cbrt(x)
    # the series stops at the first order past a t_max below unit roundoff
    j = np.abs(scipy.special.jv([plan.terms - 1, plan.terms], x))
    assert j[1] < 2.0**-53 <= j[0]


def test_order_bound_covers_the_chebyshev_terms():
    # evolve() sums into time t only the orders below x + 12 x**(1/3) + 16,
    # x = a t; every order it drops must be past the Bessel cut there
    x = np.concatenate([np.linspace(0.0, 50.0, 501), np.geomspace(50.0, 2e5, 301)])
    bound = x + 12.0 * np.cbrt(x) + 16.0
    terms = np.array([blockadesim.exact._chebyshev_terms(v) for v in x])
    assert np.array_equal(blockadesim.exact._order_bound(x), bound)
    assert (bound - terms).min() >= 12.5  # 12.67, at x = 0.1


def stiff_polygon(m):
    """Acceptance 02's m-gon at 1e3 hbar omega0 pair shifts (full basis) and
    241 times up to 1.2 collective pi times."""
    diameter = distance_for_interaction(1e3)
    h = build_hamiltonian(polygon(m, diameter / 2), full_basis(m), OMEGA, C6)
    return h, np.linspace(0.0, 1.2 * np.pi / (math.sqrt(m) * OMEGA), 241)


def test_strongly_blockaded_polygon_takes_dense_route_quickly(force_chebyshev):
    # acceptance 02's largest case: diagonal entries up to 2.6e6 hbar omega0
    # would need 1.8e6 Chebyshev terms, so the cost rule must pick dense
    h, t = stiff_polygon(8)
    plan = plan_propagation(h, t)
    assert plan.route == "dense" and plan.terms > 1e6
    start = time.perf_counter()
    trajectory = evolve_by("dense", force_chebyshev, h, t)
    assert time.perf_counter() - start < 1.0
    assert w_state_fidelity(trajectory)[200] > 0.99


def test_stiff_polygon_beyond_1024_states_takes_dense_route(force_chebyshev):
    # 2048 states: the expansion would need 1.3e7 terms, so the plan is
    # checked before evolving
    m = 11
    h, t = stiff_polygon(m)
    assert plan_propagation(h, t).route == "dense"
    start = time.perf_counter()
    trajectory = evolve_by("dense", force_chebyshev, h, t)
    assert time.perf_counter() - start < 5.0
    assert w_state_fidelity(trajectory)[200] > 0.99  # t[200] is the pi time
    ideal = np.sin(math.sqrt(m) * OMEGA * t / 2) ** 2
    assert np.abs(rydberg_number(trajectory) - ideal).max() < 1e-5


@pytest.mark.parametrize("route", ["dense", "chebyshev"])
def test_evolve_returns_the_plan_it_ran(rng, route):
    # the exact CLI summary reports this plan instead of planning again
    if route == "dense":
        h, t = stiff_polygon(8)
    else:
        h = build_hamiltonian(cluster(rng, 8, 5e-6), full_basis(8), OMEGA, C6)
        t = np.linspace(0.0, 5e-6, 200)
    trajectory = evolve(h, t)
    assert trajectory.plan == plan_propagation(h, t)
    assert trajectory.plan.route == route
    amps = trajectory.amplitudes
    assert amps.dtype == np.complex128 and amps.flags.c_contiguous
    assert amps.shape == (t.size, h.dim)
    assert QuantumState(trajectory.amplitudes, h.basis).plan is None


def test_interleave_turns_row_pairs_into_complex_rows_in_place(rng):
    parts = rng.standard_normal((6, 5))
    expected = parts[0::2] + 1j * parts[1::2]
    amps = blockadesim.exact._interleave(parts)
    assert amps.dtype == np.complex128 and amps.flags.c_contiguous
    assert np.shares_memory(amps, parts)
    assert np.array_equal(amps, expected)


def test_stiff_polygon_too_large_for_dense_is_refused_before_allocating():
    # 8192 states: dense is cheaper but does not fit, and there is no
    # Chebyshev fallback
    h, t = stiff_polygon(13)
    assert plan_propagation(h, t).route == "dense"

    def refused():
        with pytest.raises(SizeCapError, match="memory cap"):
            evolve(h, t)

    assert traced_peak(refused) < 2 * 2**20


def test_forced_chebyshev_on_the_stiff_polygon_is_refused_before_allocating(force_chebyshev):
    # 3.7e7 terms: the T x N coefficient table alone would take 143 GB
    h, t = stiff_polygon(13)
    assert plan_propagation(h, t).terms * t.size * 16 > 2**37

    def refused():
        with force_chebyshev(), pytest.raises(SizeCapError, match="memory cap"):
            evolve(h, t)

    assert traced_peak(refused) < 2 * 2**20


def test_nanometre_pair_is_planned_without_a_bessel_search():
    # a pair shift of 1.6e28 rad/s: a t_max = 8e21, far past any table the
    # memory limit admits and past the orders float64 can tell apart
    positions = AtomPositions(np.array([[0.0, 0.0, 0.0], [1e-9, 0.0, 0.0]]))
    h = build_hamiltonian(positions, full_basis(2), OMEGA, C6)
    t = np.linspace(0.0, 1e-6, 20)
    start = time.perf_counter()
    plan = plan_propagation(h, t)
    assert time.perf_counter() - start < 1.0
    assert plan.route == "dense" and plan.terms >= 2**30


def test_nanometre_pair_is_refused_before_propagating():
    # eigh's backward error (about 1e12 rad/s) swamps the pi * 1e6 rad/s
    # coupling, and the dense route returned n_ryd = 0 at every time
    positions = AtomPositions(np.array([[0.0, 0.0, 0.0], [1e-9, 0.0, 0.0]]))
    h = build_hamiltonian(positions, full_basis(2), OMEGA, C6)

    def refused():
        with pytest.raises(InvalidParameterError, match="below float64 rounding"):
            evolve(h, np.linspace(0.0, 1e-6, 20))

    assert traced_peak(refused) < 2**20


@pytest.mark.parametrize("shift, resolved", [(2.0**51, True), (2.0**55, False)])
def test_coupling_is_refused_below_rounding_of_the_spectral_width(shift, resolved):
    # one atom, coupling 1 rad/s, excited level at ``shift``: the width is
    # shift + 2, so the bound 2**-53 * width sits between the two cases
    matrix = scipy.sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, shift]]))
    h = Hamiltonian(full_basis(1), matrix)
    assert h.scales == (-1.0, shift + 1.0, 1.0)
    # short enough that the phases keep their precision: u a t = 1.25e-7
    grid = np.linspace(0.0, 1e-6, 3)
    if resolved:
        assert evolve(h, grid).amplitudes.shape == (3, 2)
    else:
        with pytest.raises(InvalidParameterError, match="below float64 rounding"):
            evolve(h, grid)


@pytest.mark.parametrize("phase_error, admitted", [(0.9e-6, True), (1.1e-6, False)])
def test_grid_is_refused_once_its_phases_lose_the_norm_tolerance(phase_error, admitted):
    # two atoms 6 um apart at 210 kHz; the grid ends where u a t_max is phase_error
    positions = AtomPositions(np.array([[0.0, 0.0, 0.0], [6e-6, 0.0, 0.0]]))
    h = build_hamiltonian(positions, full_basis(2), 2 * math.pi * 210e3, C6)
    low, high, _ = h.scales
    grid = np.linspace(0.0, phase_error / (2.0**-53 * (high - low) / 2.0), 5)
    if admitted:
        assert evolve(h, grid).amplitudes.shape == (5, 4)
    else:
        with pytest.raises(InvalidParameterError, match="the time grid ends at"):
            evolve(h, grid)


def test_second_plan_reuses_the_hamiltonians_scales(rng):
    # the Gershgorin bounds copy |H| once per Hamiltonian, not per plan
    positions = cluster(rng, 14, 22.6e-6)
    h = build_hamiltonian(positions, full_basis(14), OMEGA, C6)
    t = np.linspace(0.0, 5e-6, 50)
    first = traced_peak(lambda: plan_propagation(h, t))
    assert first > 12 * h.matrix.nnz
    assert traced_peak(lambda: plan_propagation(h, t)) < 2**16
    assert all(type(value) is float for value in h.scales)


def test_benchmark_sizes_pick_the_expected_route(rng):
    # perfbench's exact-dense sizes: the expansion undercuts dim**3 even at
    # 256 states
    t = np.linspace(0.0, 5e-6, 200)
    omega = 2 * np.pi * 210e3
    for m in (8, 9, 10):
        positions = cluster(rng, m, 5e-6)
        h = build_hamiltonian(positions, full_basis(m), omega, C6)
        assert plan_propagation(h, t).route == "chebyshev"


def test_restricted_matches_full_when_strongly_blockaded(rng):
    # mixed geometry: some pairs inside the restriction radius, some out
    radius = distance_for_interaction(100.0)
    positions = cluster(rng, 6, radius)
    h_full = build_hamiltonian(positions, full_basis(6), OMEGA, C6)
    h_rest = build_hamiltonian(positions, restricted_basis(positions, radius), OMEGA, C6)
    assert h_rest.dim < h_full.dim
    t = np.linspace(0.0, 2 * np.pi / OMEGA, 120)
    n_full = rydberg_number(evolve(h_full, t))
    n_rest = rydberg_number(evolve(h_rest, t))
    assert np.abs(n_full - n_rest).max() < 0.01 * n_full.max()


def test_blockade_only_suppresses(rng):
    # interacting expectation never exceeds the independent-atom value on
    # the rising half period
    for _ in range(5):
        m = int(rng.integers(2, 9))
        positions = cluster(rng, m, 4.76e-6 * float(rng.uniform(0.3, 2.0)))
        h = build_hamiltonian(positions, full_basis(m), OMEGA, C6)
        t = np.linspace(0.0, np.pi / OMEGA, 150)[1:]
        n_r = rydberg_number(evolve(h, t))
        assert np.all(n_r <= m * np.sin(OMEGA * t / 2) ** 2 + 1e-9)


def test_evolve_validates_grid(rng):
    positions = cluster(rng, 2, 1e-6)
    h = build_hamiltonian(positions, full_basis(2), OMEGA, C6)
    with pytest.raises(InvalidParameterError):
        evolve(h, np.array([0.0, 2.0, 1.0]))
    with pytest.raises(InvalidParameterError):
        evolve(h, np.array([-1.0, 0.0]))
    with pytest.raises(InvalidParameterError):
        evolve(h, np.array([]))
    for grid in ([0.0, np.inf], [np.nan]):
        with pytest.raises(InvalidParameterError, match="time grid must be finite"):
            evolve(h, grid)


def test_evolve_returns_one_trajectory_state(rng):
    positions = cluster(rng, 5, 1.5e-6)
    h = build_hamiltonian(positions, full_basis(5), OMEGA, C6)
    t = np.linspace(0.0, 2 * np.pi / OMEGA, 40)
    trajectory = evolve(h, t)
    assert isinstance(trajectory, QuantumState)
    assert trajectory.amplitudes.shape == (t.size, 32)
    assert trajectory.basis is h.basis
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


def test_quantum_state_requires_normalization():
    basis = full_basis(2)
    with pytest.raises(InvalidParameterError):
        QuantumState(np.array([[0.5, 0.0, 0.0, 0.0]]), basis)
    with pytest.raises(InvalidParameterError, match="nan"):
        QuantumState(np.array([[np.nan, 0.0, 0.0, 0.0]]), basis)


def test_quantum_state_trajectory_checks_every_row():
    basis = full_basis(2)
    rows = np.eye(4, dtype=complex)[:3]
    trajectory = QuantumState(rows, basis)
    assert np.array_equal(trajectory.norm(), np.ones(3))
    for k, bad in ((1, 0.5), (2, np.nan)):
        broken = rows.copy()
        broken[k, k] = bad
        with pytest.raises(InvalidParameterError, match=f"{bad} in row {k}"):
            QuantumState(broken, basis)
    # a single state of shape (D,) is not a trajectory
    for shape in ((3, 8), (2, 3, 4), (4,)):
        with pytest.raises(InvalidParameterError, match="amplitudes for a basis of 4 states"):
            QuantumState(np.ones(shape, dtype=complex) / 2, basis)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(omega0=math.inf),
        dict(c6=math.inf),
        dict(c6=math.nan),
    ],
)
def test_hamiltonian_spec_requires_finite_values(rng, kwargs):
    spec = dict(positions=cluster(rng, 2, 1e-6), basis=full_basis(2), omega0=OMEGA, c6=C6)
    with pytest.raises(InvalidParameterError, match="finite"):
        build_hamiltonian(**(spec | kwargs))


# --- observables ----------------------------------------------------------------


def ground_row(basis):
    """A one-row trajectory holding the ground state (index 0)."""
    return QuantumState(np.eye(1, basis.n_states), basis)


def test_rydberg_number_of_ground_state():
    n_r = rydberg_number(ground_row(full_basis(3)))
    assert n_r.shape == (1,) and n_r[0] == 0.0


def test_rydberg_number_counts_excitations():
    basis = full_basis(2)
    amps = np.zeros((1, 4), dtype=complex)
    amps[0, 3] = 1.0  # both atoms excited
    assert rydberg_number(QuantumState(amps, basis)) == pytest.approx([2.0])


def test_w_state_has_unit_fidelity_and_single_excitation():
    basis = full_basis(4)
    amps = np.zeros((1, 16), dtype=complex)
    amps[0, basis.singles] = 0.5  # 1/sqrt(4)
    w = QuantumState(amps, basis)
    assert w_state_fidelity(w) == pytest.approx([1.0], rel=1e-12)
    assert rydberg_number(w) == pytest.approx([1.0], rel=1e-12)


def test_w_fidelity_of_ground_state_is_zero():
    fidelity = w_state_fidelity(ground_row(full_basis(3)))
    assert fidelity.shape == (1,) and fidelity[0] == 0.0


@pytest.mark.parametrize("m", [25, 40, 63])
def test_fully_blockaded_cluster_follows_the_collective_law(rng, m):
    # one excitation shared by all m atoms: n_ryd = sin^2(sqrt(m) omega0 t / 2)
    positions = cluster(rng, m, 1e-7)
    basis = restricted_basis(positions, 1.0)
    assert basis.n_states == m + 1
    h = build_hamiltonian(positions, basis, OMEGA, C6)
    t_half = np.pi / (math.sqrt(m) * OMEGA)  # half the collective period
    t = np.linspace(0.0, 4 * t_half, 201)
    trajectory = evolve(h, t)
    ideal = np.sin(math.sqrt(m) * OMEGA * t / 2) ** 2
    assert np.abs(rydberg_number(trajectory) - ideal).max() < 1e-12
    assert w_state_fidelity(trajectory)[50] > 1 - 1e-12


def test_blockaded_pi_pulse_lands_on_w_state(rng):
    m = 5
    radius = distance_for_interaction(1e3)
    positions = polygon(m, radius / 2)
    h = build_hamiltonian(positions, full_basis(m), OMEGA, C6)
    t_pi = np.pi / (math.sqrt(m) * OMEGA)
    trajectory = evolve(h, np.array([t_pi]))
    assert w_state_fidelity(trajectory)[0] > 0.99
