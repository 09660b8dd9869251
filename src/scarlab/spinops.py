"""Spin-S local operators, the sparse term assembler, product states, expectations.

Basis conventions (fixed globally, do not change):
  * local Sz eigenbasis ordered m = S, S-1, ..., -S, so local index l = S - m;
  * composite index i = sum_n l_n * (2S+1)^n with site 0 least significant.

Every many-body operator is assembled by local_sum from a list of local
terms (its Kronecker-product reference lives with the tests).  lowering
builds every phased sum of S^-, and tower the normalized powers of a ladder
operator on a start vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionCap, DimensionMismatch, InvalidSpin, SiteOutOfRange

MATFREE_DIM_CAP = 20_000_000
ROTATION_DIM_CAP = 4096     # product_rotation (and so rotated_hamiltonian) is dense


def _check_spin(S: float) -> int:
    """Return 2S as an int, rejecting non-half-integers."""
    two_s = 2.0 * S
    if two_s < 0 or abs(two_s - round(two_s)) > 1e-12:
        raise InvalidSpin(f"2S must be a non-negative integer, got S={S}")
    return int(round(two_s))


@dataclass(frozen=True)
class SpinSystem:
    S: float
    N: int

    def __post_init__(self):
        _check_spin(self.S)
        if self.N < 1:
            raise InvalidSpin(f"need at least one site, got N={self.N}")
        if self.total_dim > MATFREE_DIM_CAP:
            raise DimensionCap(f"(2S+1)^N = {self.local_dim}^{self.N} exceeds cap "
                               f"{MATFREE_DIM_CAP}")

    @property
    def local_dim(self) -> int:
        return _check_spin(self.S) + 1

    @property
    def total_dim(self) -> int:
        return (_check_spin(self.S) + 1) ** self.N


def local_spin_matrices(S: float):
    """(Sx, Sy, Sz, S+, S-) in the m = S..-S ordered Sz eigenbasis."""
    two_s = _check_spin(S)
    d = two_s + 1
    m = S - np.arange(d)                    # m values per basis index
    sz = np.diag(m).astype(complex)
    # S+ |S, m> = sqrt(S(S+1) - m(m+1)) |S, m+1>; m+1 lives at index l-1
    off = np.sqrt(S * (S + 1) - m[1:] * (m[1:] + 1))
    sp_ = np.zeros((d, d), dtype=complex)
    sp_[np.arange(d - 1), np.arange(1, d)] = off
    sm = sp_.conj().T
    sx = 0.5 * (sp_ + sm)
    sy = -0.5j * (sp_ - sm)
    return sx, sy, sz, sp_, sm


@dataclass
class StateVector:
    system: SpinSystem
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).ravel()
        if self.amplitudes.shape[0] != self.system.total_dim:
            raise DimensionMismatch("amplitude vector length != total_dim")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        return StateVector(self.system, self.amplitudes / self.norm())

    def overlap(self, other: "StateVector") -> complex:
        if other.system != self.system:
            raise DimensionMismatch("states live on different systems")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass
class ManyBodyOperator:
    system: SpinSystem
    matrix: sp.csr_matrix
    hermitian: bool = False

    def __post_init__(self):
        self.matrix = sp.csr_matrix(self.matrix,
                                    dtype=np.result_type(self.matrix.dtype, float))
        d = self.system.total_dim
        if self.matrix.shape != (d, d):
            raise DimensionMismatch("matrix shape != (total_dim, total_dim)")

    def dagger(self) -> "ManyBodyOperator":
        return ManyBodyOperator(self.system, self.matrix.conj().T.tocsr(), self.hermitian)

    def __add__(self, other: "ManyBodyOperator") -> "ManyBodyOperator":
        if other.system != self.system:
            raise DimensionMismatch("operator systems differ")
        return ManyBodyOperator(self.system, self.matrix + other.matrix,
                                self.hermitian and other.hermitian)

    def __sub__(self, other: "ManyBodyOperator") -> "ManyBodyOperator":
        if other.system != self.system:
            raise DimensionMismatch("operator systems differ")
        return ManyBodyOperator(self.system, self.matrix - other.matrix,
                                self.hermitian and other.hermitian)

    def __matmul__(self, other: "ManyBodyOperator") -> "ManyBodyOperator":
        if other.system != self.system:
            raise DimensionMismatch("operator systems differ")
        return ManyBodyOperator(self.system, (self.matrix @ other.matrix).tocsr(), False)

    def __mul__(self, scalar) -> "ManyBodyOperator":
        return ManyBodyOperator(self.system, self.matrix * scalar,
                                self.hermitian and abs(complex(scalar).imag) == 0.0)

    __rmul__ = __mul__

    def commutator(self, other: "ManyBodyOperator") -> "ManyBodyOperator":
        return self @ other - other @ self

    def hermiticity_defect(self) -> float:
        diff = self.matrix - self.matrix.conj().T
        return 0.0 if diff.nnz == 0 else float(np.abs(diff.data).max())


def local_sum(system: SpinSystem, terms) -> sp.csr_matrix:
    """Sparse sum_t (op_t on sites_t), identity on the other sites.

    A term is (sites, op), op a d^k x d^k matrix on k distinct sites with
    sites[0] the least significant local digit: A_u B_v is ((u, v), kron(B, A)).
    Off-diagonal entries are counted, then written by digit arithmetic into
    preallocated int32 rows/cols and one values array; the diagonal sums in a
    dense vector.  float64 when every term is real, else complex128.  After
    the operator strings of QuSpin (Weinberg & Bukov, SciPost Phys. 2, 003 (2017)).
    """
    d, N, dim = system.local_dim, system.N, system.total_dim
    terms = [(tuple(sites), np.asarray(op)) for sites, op in terms]
    for sites, op in terms:
        if len(set(sites)) != len(sites) or not all(0 <= n < N for n in sites):
            raise SiteOutOfRange(f"sites {sites} must be distinct and in [0, {N})")
        if op.shape != (d ** len(sites),) * 2:
            raise DimensionMismatch(f"{sites} needs a {d ** len(sites)}-square matrix")
    real = not any(np.any(np.imag(op)) for _, op in terms)
    dtype = np.dtype(np.float64 if real else np.complex128)
    terms = [(sites, (op.real if real else op).astype(dtype, copy=False))
             for sites, op in terms]
    n_off = sum((np.count_nonzero(op) - np.count_nonzero(np.diag(op))) * d ** (N - len(sites))
                for sites, op in terms)
    rows, cols = np.empty((2, n_off + dim), dtype=np.int32)
    vals = np.empty(n_off + dim, dtype=dtype)
    diag = np.zeros(dim, dtype=vals.dtype)
    stride = d ** np.arange(N, dtype=np.int64)
    pos = 0
    for sites, op in terms:
        base = np.zeros(1, dtype=np.int64)       # every digit string off the sites
        for n in range(N):
            if n not in sites:
                base = (base[:, None] + stride[n] * np.arange(d)).ravel()
        local = np.arange(op.shape[0])
        offset = sum((local // d ** t % d) * stride[n] for t, n in enumerate(sites))
        for r, c in zip(*np.nonzero(op)):
            if r == c:
                diag[base + offset[r]] += op[r, c]
                continue
            rows[pos:pos + base.size] = base + offset[r]
            cols[pos:pos + base.size] = base + offset[c]
            vals[pos:pos + base.size] = op[r, c]
            pos += base.size
    nz = np.flatnonzero(diag)
    end = pos + nz.size
    rows[pos:end] = cols[pos:end] = nz
    vals[pos:end] = diag[nz]
    out = sp.coo_matrix((vals[:end], (rows[:end], cols[:end])), shape=(dim, dim)).tocsr()
    out.eliminate_zeros()                    # duplicates that cancelled
    return out


def lowering(system: SpinSystem, phases) -> ManyBodyOperator:
    """sum_n e^{i phases[n]} S^-_n, one phase per site; lowers total Sz by one."""
    sm = local_spin_matrices(system.S)[4]
    terms = [((n,), np.exp(1j * phase) * sm) for n, phase in enumerate(phases)]
    return ManyBodyOperator(system, local_sum(system, terms), hermitian=False)


def tau(N: int, S: float, q0: float, sign: int = +1) -> ManyBodyOperator:
    """tau_+/- = sum_n e^{+/- i (n+1) q0} S^-_n."""
    return lowering(SpinSystem(S, N), [sign * (n + 1) * q0 for n in range(N)])


def tower(lower, start: np.ndarray, steps: int) -> list:
    """[L^m start / ||L^m start||, m = 0..steps]; the power itself is carried unnormalized."""
    states = [start / np.linalg.norm(start)]
    for _ in range(steps):
        start = lower @ start
        states.append(start / np.linalg.norm(start))
    return states


def basis_state(system: SpinSystem, local_indices) -> StateVector:
    """Product basis state |l_0, l_1, ...>, l_n = S - m_n."""
    idx = 0
    for n, l in enumerate(local_indices):
        idx += int(l) * system.local_dim ** n
    amps = np.zeros(system.total_dim, dtype=complex)
    amps[idx] = 1.0
    return StateVector(system, amps)


def all_up(system: SpinSystem) -> StateVector:
    return basis_state(system, [0] * system.N)


def all_down(system: SpinSystem) -> StateVector:
    return basis_state(system, [system.local_dim - 1] * system.N)


@dataclass(frozen=True)
class SiteAngles:
    theta: tuple
    phi: tuple

    @classmethod
    def make(cls, theta, phi) -> "SiteAngles":
        theta = tuple(float(t) for t in theta)
        phi = tuple(float(p) for p in phi)
        if len(theta) != len(phi):
            raise DimensionMismatch("theta/phi length mismatch")
        return cls(theta, phi)


def _site_rotations(S: float, theta, phi) -> np.ndarray:
    """exp(-i phi Sz) exp(-i theta Sy), stacked over the shape of theta and phi.

    Each rotates |S, S> to polar angle theta, azimuth phi, so the single-site
    expectations are (S sin(theta) cos(phi), S sin(theta) sin(phi), S cos(theta));
    exp(-i theta Sy) comes from one eigendecomposition of Sy, exact for any S.
    """
    _, sy, sz, _, _ = local_spin_matrices(S)
    evals, evecs = np.linalg.eigh(sy)
    theta, phi = np.asarray(theta, float)[..., None, None], np.asarray(phi, float)[..., None]
    rot_y = (evecs * np.exp(-1j * theta * evals)) @ evecs.conj().T
    rot_z = np.zeros(rot_y.shape, dtype=complex)
    diag = np.arange(len(evals))
    rot_z[..., diag, diag] = np.exp(-1j * phi * np.diag(sz).real)
    return rot_z @ rot_y


def coherent_product_states(system: SpinSystem, theta, phi) -> np.ndarray:
    """(G, d^N) unit-norm spin-coherent product states from (G, N) Bloch angles.

    Site n of row g points along theta[g, n], phi[g, n]; helicity enters through
    the sign of phi.  Each site vector is its rotation times |S, S> (a matvec: a
    column slice would keep the sign of zero entries), joined highest site first
    by the broadcast outer products np.kron takes (site 0 least significant).
    """
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    if theta.ndim != 2 or theta.shape != phi.shape or theta.shape[1] != system.N:
        raise DimensionMismatch(f"angle arrays must both have shape (G, {system.N})")
    vecs = _site_rotations(system.S, theta, phi) @ np.eye(system.local_dim, dtype=complex)[0]
    full = np.ones((len(theta), 1), dtype=complex)
    for n in range(system.N - 1, -1, -1):
        full = (full[:, :, None] * vecs[:, n, None, :]).reshape(len(theta), -1)
    return full


def coherent_product_state(angles: SiteAngles, system: SpinSystem) -> StateVector:
    """One coherent product state: coherent_product_states with G = 1."""
    return StateVector(system, coherent_product_states(system, [angles.theta], [angles.phi])[0])


def product_rotation(angles: SiteAngles, system: SpinSystem) -> ManyBodyOperator:
    """Full product rotation U = prod_n exp(-i phi_n Sz_n) exp(-i theta_n Sy_n).

    Dense under the hood (a product of per-site rotations has no sparsity), so
    it is capped at ROTATION_DIM_CAP; use coherent_product_state for vectors.
    """
    if system.total_dim > ROTATION_DIM_CAP:
        raise DimensionCap(f"product rotation dense at dim {system.total_dim} > "
                           f"{ROTATION_DIM_CAP}")
    full = np.array([[1.0 + 0.0j]])
    for u in _site_rotations(system.S, angles.theta, angles.phi)[::-1]:
        full = np.kron(full, u)
    return ManyBodyOperator(system, sp.csr_matrix(full), hermitian=False)


def expectation(op: ManyBodyOperator, psi: StateVector) -> complex:
    """<psi|op|psi>; collapses to the real part for Hermitian operators."""
    if psi.system != op.system:
        raise DimensionMismatch("operator and state on different systems")
    val = complex(np.vdot(psi.amplitudes, op.matrix @ psi.amplitudes))
    if op.hermitian and abs(val.imag) <= 1e-12 * max(1.0, abs(val.real)):
        return complex(val.real)
    return val


def site_spin_expectations(psi: StateVector) -> np.ndarray:
    """Array of shape (N, 3): (<Sx_n>, <Sy_n>, <Sz_n>) for each site."""
    system = psi.system
    sx, sy, sz, _, _ = local_spin_matrices(system.S)
    out = np.zeros((system.N, 3))
    d = system.local_dim
    tensor = psi.amplitudes.reshape((d,) * system.N)  # axis k is site N-1-k
    for n in range(system.N):
        axis = system.N - 1 - n
        rho = np.tensordot(tensor, tensor.conj(), axes=(
            [a for a in range(system.N) if a != axis],
            [a for a in range(system.N) if a != axis]))
        # rho[l, l'] = psi_l conj(psi_l'), so <S> = trace(rho @ S)
        out[n] = [np.trace(rho @ s).real for s in (sx, sy, sz)]
    return out


def entanglement_entropy(psi: StateVector, cut_site: int) -> float:
    """Von Neumann entropy of the bipartition [0..cut_site] | [cut_site+1..N-1]."""
    system = psi.system
    d = system.local_dim
    left_dim = d ** (cut_site + 1)
    mat = psi.amplitudes.reshape(system.total_dim // left_dim, left_dim)
    svals = np.linalg.svd(mat, compute_uv=False)
    p = svals ** 2
    p = p[p > 1e-16]
    return float(-(p * np.log(p)).sum())
