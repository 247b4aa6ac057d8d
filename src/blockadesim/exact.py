"""Exact quantum dynamics of a handful of interacting two-level atoms.

Each atom is a ground/excited two-level system at a fixed position (frozen
gas: no motion during the pulse). Basis states are bitmasks over atoms,
bit i set meaning atom i excited. The Hamiltonian, in units of rad/s
(i.e. H/hbar throughout), is

    H = (omega0/2) * sum_i x_i  +  detuning * sum_i n_i
        + sum_{i<j} (c6 / (hbar * r_ij**6)) * n_i * n_j

with x_i the bit-flip (Pauli x) on atom i and n_i the excitation number.

Two basis choices are supported: the full 2**M product basis, and a
restricted basis keeping only configurations with no two excited atoms
closer than a given radius (the independent sets of the proximity graph).
The restriction is what makes clusters of ~20 fully blockaded atoms
tractable: a mutually blockaded cluster needs only M+1 states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .constants import HBAR
from .core import require_memory, validate_time_grid
from .errors import (
    BasisMismatchError,
    GeometryError,
    InputFileError,
    InvalidParameterError,
    SizeCapError,
)

__all__ = [
    "AtomPositions",
    "Basis",
    "HamiltonianSpec",
    "Hamiltonian",
    "QuantumState",
    "full_basis",
    "restricted_basis",
    "build_hamiltonian",
    "ground_state",
    "PropagationPlan",
    "plan_propagation",
    "evolve",
    "rydberg_number",
    "w_state_fidelity",
    "MAX_ATOMS",
]

MAX_ATOMS = 63  # bit i of an int64 bitmask is atom i

# basis plus build_hamiltonian() peaked at 46-50 B per nonzero on the
# benchmark's 14-atom full and 20-atom restricted bases (tracemalloc)
_BUILD_BYTES_PER_NONZERO = 56.0

# evolve() never diagonalises a matrix above this dimension: the cutoff caps
# the memory of the dense route, while plan_propagation() weighs its cost.
DENSE_DIM_CUTOFF = 1024

# Truncated Taylor propagation as in Al-Mohy & Higham (2011), the algorithm
# behind scipy's expm_multiply: substeps of at most TAYLOR_THETA / ||A||_1
# keep the series of at most TAYLOR_DEGREE terms within TAYLOR_TOL
# (scipy's _theta[55] at unit roundoff).
TAYLOR_DEGREE = 55
TAYLOR_THETA = 9.9
TAYLOR_TOL = 2.0**-53


@dataclass(frozen=True)
class AtomPositions:
    """Fixed atom coordinates in meters, shape (M, 3)."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        coords = np.array(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 3 or coords.shape[0] < 1:
            raise GeometryError(
                f"positions must have shape (M, 3) with M >= 1, got {coords.shape}"
            )
        if not np.all(np.isfinite(coords)):
            raise GeometryError("positions must be finite")
        m = coords.shape[0]
        if m > 1:
            # zero distance means identical rows, so a sort finds it in
            # M log M instead of an M x M distance matrix
            order = np.lexsort(coords.T)
            same = np.all(coords[order[1:]] == coords[order[:-1]], axis=1)
            if np.any(same):
                k = int(np.flatnonzero(same)[0])
                i, j = sorted((int(order[k]), int(order[k + 1])))
                raise GeometryError(f"atoms {i} and {j} are coincident")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return self.coords.shape[0]

    def pairwise_distances(self) -> np.ndarray:
        diff = self.coords[:, None, :] - self.coords[None, :, :]
        return np.sqrt((diff**2).sum(axis=-1))

    @classmethod
    def from_text(cls, path: str) -> "AtomPositions":
        """Parse a whitespace-separated positions file.

        One atom per line, three coordinates in meters. Blank lines and
        text after ``#`` are ignored. Malformed lines raise InputFileError
        citing the line number.
        """
        rows = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise InputFileError(f"{path}: {exc.strerror or exc}") from exc
        for lineno, raw in enumerate(lines, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 3:
                raise InputFileError(
                    f"{path}, line {lineno}: expected 3 coordinates, got {len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise InputFileError(f"{path}, line {lineno}: {exc}") from exc
        if not rows:
            raise InputFileError(f"{path}: no atom positions found")
        try:
            return cls(np.array(rows))
        except GeometryError as exc:
            raise InputFileError(f"{path}: {exc}") from exc


class Basis:
    """An ordered set of bitmask states over ``n_atoms`` atoms.

    States are int64 bitmasks in ascending numeric order, so index 0 is
    always the vacuum. Instances are immutable by convention; equality
    compares kind, atom count, restriction radius and the state list.
    """

    def __init__(
        self,
        kind: str,
        n_atoms: int,
        states: np.ndarray,
        restriction_radius: float | None = None,
    ):
        self.kind = kind
        self.n_atoms = n_atoms
        self.states = np.asarray(states, dtype=np.int64)
        self.restriction_radius = restriction_radius
        popcounts = np.zeros(self.states.shape, dtype=np.int64)
        for i in range(n_atoms):
            popcounts += (self.states >> i) & 1
        self.popcounts = popcounts.astype(np.float64)
        self.singles = np.flatnonzero(self.popcounts == 1)

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Basis):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.n_atoms == other.n_atoms
            and self.restriction_radius == other.restriction_radius
            and np.array_equal(self.states, other.states)
        )

    def __repr__(self) -> str:
        return f"Basis(kind={self.kind!r}, n_atoms={self.n_atoms}, n_states={self.n_states})"


def _require_basis_memory(n_states: float, n_atoms: int) -> None:
    """SizeCapError past MAX_ATOMS, or if the Hamiltonian of the states, at
    n_atoms + 1 nonzeros each, would exceed the memory limit."""
    if n_atoms > MAX_ATOMS:
        raise SizeCapError(f"{n_atoms} atoms exceed the int64 bitmask cap of {MAX_ATOMS}")
    nbytes = n_states * (n_atoms + 1) * _BUILD_BYTES_PER_NONZERO
    require_memory(nbytes, f"a basis of {n_states:.3g} states over {n_atoms} atoms")


def full_basis(n_atoms: int) -> Basis:
    """All 2**M product states, ascending; checked before enumerating."""
    if n_atoms < 1:
        raise InvalidParameterError("need at least one atom")
    _require_basis_memory(1.0, n_atoms)  # the atom cap, before 2.0**M overflows
    _require_basis_memory(2.0**n_atoms, n_atoms)
    return Basis("full", n_atoms, np.arange(2**n_atoms, dtype=np.int64))


def restricted_basis(positions: AtomPositions, radius: float) -> Basis:
    """States with no two excited atoms closer than ``radius``.

    Pairs at separation strictly below the radius are treated as
    blockaded; a radius below the minimum pairwise distance therefore
    reproduces the full basis. One ascending sweep adds atom i to each state
    that excites none of its partners below i, checking each step first.
    """
    if not radius >= 0.0:  # a NaN radius would blockade no pair
        raise InvalidParameterError(
            f"restriction radius must be non-negative, got {radius}"
        )
    m = len(positions)
    _require_basis_memory(1.0, m)  # the atom cap, before the M x M distances
    close = positions.pairwise_distances() < radius
    states = np.zeros(1, dtype=np.int64)
    for i in range(m):
        partners = sum(1 << int(j) for j in np.flatnonzero(close[i, :i]))
        free = (states & partners) == 0
        _require_basis_memory(float(states.size + np.count_nonzero(free)), m)
        states = np.concatenate([states, states[free] | (1 << i)])
    return Basis("restricted", m, states, radius)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Geometry plus drive for an exact-dynamics run. Angular units (rad/s).

    c6 may be zero here (non-interacting reference); the blockade radii in
    :mod:`blockadesim.core` are the only places a zero C6 is meaningless.
    """

    positions: AtomPositions
    omega0: float
    c6: float
    detuning: float = 0.0

    def __post_init__(self) -> None:
        # chained comparisons with inf also reject NaN
        if not 0.0 < self.omega0 < np.inf:
            raise InvalidParameterError("omega0 must be positive and finite")
        if not 0.0 <= self.c6 < np.inf:
            raise InvalidParameterError("c6 must be non-negative and finite")
        if not np.isfinite(self.detuning):
            raise InvalidParameterError("detuning must be finite")


class Hamiltonian:
    """Sparse symmetric Hamiltonian over a basis, in rad/s."""

    def __init__(self, spec: HamiltonianSpec, basis: Basis, matrix: scipy.sparse.csr_matrix):
        self.spec = spec
        self.basis = basis
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.basis.n_states


def build_hamiltonian(spec: HamiltonianSpec, basis: Basis) -> Hamiltonian:
    """Assemble the CSR matrix of the blockade Hamiltonian on ``basis``.

    Diagonal: detuning per excitation plus c6/(hbar r**6) per excited pair.
    Off-diagonal: omega0/2 between states differing by one flip, kept only
    if both states are in the basis.
    """
    if basis.n_atoms != len(spec.positions):
        raise BasisMismatchError(
            f"basis over {basis.n_atoms} atoms, geometry has {len(spec.positions)}"
        )
    m = basis.n_atoms
    states = basis.states
    dim = basis.n_states

    diag = spec.detuning * basis.popcounts
    if spec.c6 > 0.0 and m > 1:
        dist = spec.positions.pairwise_distances()
        for i in range(m - 1):
            excited = (states >> i) & 1
            for j in range(i + 1, m):
                diag += (spec.c6 / (HBAR * dist[i, j] ** 6)) * (excited & (states >> j))

    # one flip per atom: couple each state to the basis state with bit i set
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
    data = np.full(rows.shape, spec.omega0 / 2.0)
    matrix = scipy.sparse.coo_matrix(
        (
            np.concatenate([data, data, diag]),
            (np.concatenate([rows, cols, np.arange(dim)]),
             np.concatenate([cols, rows, np.arange(dim)])),
        ),
        shape=(dim, dim),
    ).tocsr()
    return Hamiltonian(spec, basis, matrix)


@dataclass
class QuantumState:
    """Complex amplitudes over a basis: one state of shape (D,), or a
    trajectory of shape (T, D) with one state per row. Every row's norm
    must be 1 within 1e-6."""

    amplitudes: np.ndarray
    basis: Basis

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim not in (1, 2) or amps.shape[-1] != self.basis.n_states:
            raise BasisMismatchError(
                f"{amps.shape} amplitudes for a basis of {self.basis.n_states} states"
            )
        self.amplitudes = amps
        norms = np.atleast_1d(self.norm())
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-6))  # a NaN norm fails too
        if bad.size:
            row = f" in row {bad[0]}" if amps.ndim == 2 else ""
            raise InvalidParameterError(f"state norm {norms[bad[0]]}{row} is not 1")

    def norm(self):
        """The norm: a float for one state, a (T,) array for a trajectory."""
        return _per_row(np.sqrt(_sum_abs2(self.amplitudes)))


def _sum_abs2(amps: np.ndarray, *weights: np.ndarray):
    """sum_i |amps_i|**2 * weights_i over the last axis.

    einsum over the real and imaginary views allocates nothing the size of
    ``amps``; abs(amps)**2 would allocate a float copy of a whole trajectory.
    """
    spec = "...i,...i" + ",i" * len(weights) + "->..."
    return sum(np.einsum(spec, part, part, *weights) for part in (amps.real, amps.imag))


def _per_row(values):
    return float(values) if np.ndim(values) == 0 else values


def ground_state(basis: Basis) -> QuantumState:
    """All atoms in the ground state (vacuum bitmask, index 0)."""
    amps = np.zeros(basis.n_states, dtype=np.complex128)
    amps[0] = 1.0
    return QuantumState(amps, basis)


@dataclass(frozen=True)
class PropagationPlan:
    """How evolve() propagates one Hamiltonian over one time grid.

    ``substeps[k]`` counts the Taylor substeps of the interval ending at
    grid time k (0 for a grid starting at t = 0); ``shift`` is the mean
    diagonal, taken out of H before Taylor stepping and put back as a phase.
    """

    route: str
    shift: float
    substeps: np.ndarray


def plan_propagation(hamiltonian: Hamiltonian, time_grid) -> PropagationPlan:
    """Choose dense diagonalisation or Taylor stepping by their cost.

    Dense ``eigh`` costs about dim**3; Taylor stepping at most
    TAYLOR_DEGREE sparse products of nnz each per substep. Dense is taken
    when it is the cheaper of the two and dim <= DENSE_DIM_CUTOFF.
    """
    t = validate_time_grid(time_grid)
    matrix = hamiltonian.matrix
    diag = matrix.diagonal()
    shift = float(diag.mean())
    # ||H - shift I||_1: column sums of |H| with the diagonal shifted
    colsums = np.asarray(abs(matrix).sum(axis=0)).ravel()
    norm = float((colsums - np.abs(diag) + np.abs(diag - shift)).max())
    dts = np.diff(t, prepend=0.0)
    substeps = np.where(dts > 0.0, np.maximum(1.0, np.ceil(dts * norm / TAYLOR_THETA)), 0.0)
    taylor_cost = float(substeps.sum()) * TAYLOR_DEGREE * matrix.nnz
    dim = hamiltonian.dim
    dense = dim <= DENSE_DIM_CUTOFF and taylor_cost >= float(dim) ** 3
    return PropagationPlan("dense" if dense else "taylor", shift, substeps.astype(np.int64))


def _taylor_step(generator, psi: np.ndarray, dt: float) -> np.ndarray:
    """exp(dt * generator) @ psi, the series cut where scipy's expm_multiply cuts it."""
    term, total = psi, psi.copy()
    c1 = np.abs(term).max()
    for j in range(1, TAYLOR_DEGREE + 1):
        term = generator @ term
        term *= dt / j
        total += term
        c2 = np.abs(term).max()
        if c1 + c2 <= TAYLOR_TOL * np.abs(total).max():
            break
        c1 = c2
    return total


def evolve(
    hamiltonian: Hamiltonian,
    initial: QuantumState,
    time_grid,
) -> QuantumState:
    """Propagate ``initial`` under exp(-i H t) to every grid time.

    plan_propagation() picks the route. On the dense route a single
    eigendecomposition evaluates all times at once; on the Taylor route
    the state is stepped interval by interval with a truncated Taylor
    series of the shifted sparse generator. Both are exact to rounding:
    refining the grid does not change the values at common times (beyond
    1e-8), and the norm drifts by less than 1e-9 over a collective period.

    Returns one QuantumState whose amplitudes have shape
    (len(time_grid), n_states), row k being the state at time_grid[k];
    every row is checked to have norm 1 within 1e-6. ``initial`` must be a
    single state normalized to 1e-9.

    SizeCapError refuses, before propagating, a run whose result, held
    Hamiltonian and working set would exceed the memory limit.
    """
    t = validate_time_grid(time_grid)
    if initial.basis != hamiltonian.basis:
        raise BasisMismatchError("initial state and Hamiltonian use different bases")
    if initial.amplitudes.ndim != 1:
        raise InvalidParameterError("initial state must be one state, not a trajectory")
    if not abs(initial.norm() - 1.0) <= 1e-9:
        raise InvalidParameterError("initial state must be normalized to 1e-9")

    plan = plan_propagation(hamiltonian, t)
    dim, nnz, n_t = float(hamiltonian.dim), float(hamiltonian.matrix.nnz), t.size
    dense = plan.route == "dense"  # eigh's arrays peaked at 24 B per element
    working = 32.0 * dim * (dim + n_t) if dense else 20.0 * nnz + 128.0 * dim
    require_memory(16.0 * n_t * dim + 12.0 * nnz + working, f"{n_t} times of {dim:.0f} states")
    if dense:
        w, u = scipy.linalg.eigh(hamiltonian.matrix.toarray())
        c0 = u.conj().T @ initial.amplitudes
        phases = np.exp(-1j * np.outer(t, w))
        amps = (phases * c0) @ u.T
    else:
        # -i (H - shift I), complex once: scipy would convert a real matrix
        # to complex inside every product
        identity = scipy.sparse.identity(hamiltonian.dim, format="csr")
        generator = (hamiltonian.matrix - plan.shift * identity) * -1j
        amps = np.empty((t.size, hamiltonian.dim), dtype=np.complex128)
        psi = initial.amplitudes
        for k, (dt, steps) in enumerate(zip(np.diff(t, prepend=0.0), plan.substeps)):
            for _ in range(steps):
                psi = _taylor_step(generator, psi, dt / steps)
            amps[k] = psi * np.exp(-1j * plan.shift * t[k])
    return QuantumState(amps, hamiltonian.basis)


def rydberg_number(state: QuantumState):
    """Expected number of excited atoms <sum_i n_i>.

    A float for one state, a (T,) array for a trajectory.
    """
    return _per_row(_sum_abs2(state.amplitudes, state.basis.popcounts))


def w_state_fidelity(state: QuantumState):
    """Overlap squared with the symmetric one-excitation state.

    |<W|psi>|**2 where W is the equal-amplitude superposition of all
    single-excitation bitmasks. This is the collective state a fully
    blockaded cluster Rabi-oscillates into. A float for one state, a (T,)
    array for a trajectory.
    """
    m = state.basis.n_atoms
    amp_sum = state.amplitudes[..., state.basis.singles].sum(axis=-1)
    return _per_row(np.abs(amp_sum) ** 2 / m)
