"""Spin-S local operators, the sparse term assembler, product states, expectations.

Basis conventions (fixed globally, do not change):
  * local Sz eigenbasis ordered m = S, S-1, ..., -S, so local index l = S - m;
  * composite index i = sum_n l_n * (2S+1)^n with site 0 least significant.

Every many-body operator is assembled by local_sum from a list of local
terms (its Kronecker-product and COO references live with the tests).  A
builder hands its terms to ManyBodyOperator.from_terms, which keeps them and
assembles on the first .matrix, so code that reads only the terms never
pays for the CSR.  lowering builds every phased sum of S^-, and tower the
normalized powers of a ladder operator on a start vector.
product_singular_values gives the singular values of a batch of product
states from their site vectors, without the d^N amplitudes.
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


class ManyBodyOperator:
    """A sparse operator on a spin system, given as its CSR matrix or, through
    from_terms, as the local terms it is the local_sum of.  A term-built
    operator keeps its terms and assembles its matrix on first use; one made
    from a matrix has terms None."""

    def __init__(self, system: SpinSystem, matrix, hermitian: bool = False):
        self.system, self.hermitian, self.terms = system, hermitian, None
        self._matrix = sp.csr_matrix(matrix, dtype=np.result_type(matrix.dtype, float))
        d = system.total_dim
        if self._matrix.shape != (d, d):
            raise DimensionMismatch("matrix shape != (total_dim, total_dim)")

    @classmethod
    def from_terms(cls, system: SpinSystem, terms, hermitian: bool = False) -> "ManyBodyOperator":
        """The operator local_sum(system, terms), its terms checked now and
        its CSR assembled on the first .matrix."""
        op = cls.__new__(cls)
        op.system, op.hermitian, op._matrix = system, hermitian, None
        op.terms = _checked_terms(system, terms)[0]
        return op

    @property
    def matrix(self) -> sp.csr_matrix:
        if self._matrix is None:
            self._matrix = local_sum(self.system, self.terms)
        return self._matrix

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


def _term_table(sites, op: np.ndarray, d: int, stride: np.ndarray):
    """Per local row r of one term: its off-diagonal entries as (column step,
    value) pairs in column order, padded with zeros to the widest row, and its
    diagonal entry."""
    local = np.arange(op.shape[0])
    offset = sum((local // d ** t % d) * stride[n] for t, n in enumerate(sites))
    rows, cols = np.nonzero((op != 0) & (local[:, None] != local))
    slot = np.arange(rows.size) - np.searchsorted(rows, rows)
    shape = (local.size, int(slot.max(initial=-1)) + 1)
    step, vals = np.zeros(shape, dtype=np.int32), np.zeros(shape, dtype=op.dtype)
    step[rows, slot] = offset[cols] - offset[rows]
    vals[rows, slot] = op[rows, cols]
    return step, vals, np.diagonal(op)


def _on_sites(table: np.ndarray, sites, N: int, d: int) -> np.ndarray:
    """A table over a term's local rows, broadcast onto the (d,)*N basis tensor
    (axis N-1-n is site n, and sites[0] is the table's low digit)."""
    axes = [N - 1 - n for n in reversed(sites)]
    shape = np.ones(N, dtype=int)
    shape[axes] = d
    return table.reshape((d,) * len(sites)).transpose(np.argsort(axes)).reshape(shape)


def _checked_terms(system: SpinSystem, terms):
    """(terms, dtype): each term as (sites tuple, op cast to dtype), float64
    when every op is real, else complex128; terms that shared an op object
    still do.  Raises SiteOutOfRange or DimensionMismatch on a bad term."""
    d, N = system.local_dim, system.N
    terms = [(tuple(sites), np.asarray(op)) for sites, op in terms]
    for sites, op in terms:
        if len(set(sites)) != len(sites) or not all(0 <= n < N for n in sites):
            raise SiteOutOfRange(f"sites {sites} must be distinct and in [0, {N})")
        if op.shape != (d ** len(sites),) * 2:
            raise DimensionMismatch(f"{sites} needs a {d ** len(sites)}-square matrix")
    real = not any(np.any(np.imag(op)) for _, op in terms)
    dtype = np.dtype(np.float64 if real else np.complex128)
    cast = {id(op): (op.real if real else op).astype(dtype, copy=False) for _, op in terms}
    return [(sites, cast[id(op)]) for sites, op in terms], dtype


def local_sum(system: SpinSystem, terms) -> sp.csr_matrix:
    """Sparse sum_t (op_t on sites_t), identity on the other sites.

    A term is (sites, op), op a d^k x d^k matrix on k distinct sites with
    sites[0] the least significant local digit: A_u B_v is ((u, v), kron(B, A)).
    Each term becomes a table over its local rows (_term_table), and row i
    looks its entries up through its digits on the term's sites.  The CSR
    arrays are allocated once, at the count those tables give, and filled a
    block of rows at a time: each row in term order with its diagonal last,
    then sorted, duplicates summed and zeros dropped, as scipy canonicalizes
    COO triplets in that order.  A block is the most rows, a power of d, whose
    slots fit in 2^16, so its scratch stays a few MB at any term count.
    float64 when every term is real, else complex128.  After the operator
    strings of QuSpin (Weinberg & Bukov, SciPost Phys. 2, 003 (2017)).
    """
    d, N, dim = system.local_dim, system.N, system.total_dim
    terms, dtype = _checked_terms(system, terms)
    stride = d ** np.arange(N, dtype=np.int64)
    tables = [_term_table(sites, op, d, stride) for sites, op in terms]
    diag = np.zeros((d,) * N, dtype=dtype)
    for (sites, _), table in zip(terms, tables):
        if table[2].any():
            diag += _on_sites(table[2], sites, N, d)
    diag = diag.ravel()
    total = np.count_nonzero(diag) + sum(np.count_nonzero(table[1]) * d ** (N - len(sites))
                                         for (sites, _), table in zip(terms, tables))
    index = np.int32 if max(total, dim) < 2 ** 31 else np.int64
    indptr = np.zeros(dim + 1, dtype=index)
    indices, data = np.empty(total, dtype=index), np.empty(total, dtype=dtype)

    # Every term's padded rows in one flat table, then `height` entries for
    # the diagonal of the current block.  Slot j of term t reads flat entry
    # start + width_t * r_t, r_t = sum_k d^k digit(sites_t[k]): the digits
    # dotted with column j of `weight`.  The diagonal slot reads its row's own
    # entry past the terms.  A block is d^h rows that share their high digits,
    # so its slots are one table over the low digits, built a site at a time,
    # plus one row of offsets from the high ones.
    width = [table[0].shape[1] for table in tables]
    slots = sum(width) + 1
    h = 0
    while h < N and d ** (h + 1) * slots <= 1 << 16:
        h += 1
    height = d ** h
    step, vals = (np.concatenate([table[a].ravel() for table in tables]
                                 + [np.zeros(height, dtype=dt)])
                  for a, dt in ((0, np.int32), (1, dtype)))
    live = vals != 0                         # the padding is 0, every entry is not
    weight = np.zeros((N, slots), dtype=np.intp)
    weight[:h, -1] = stride[:h]
    low_at = np.full((1, slots), step.size - height, dtype=np.intp)
    col = base = 0
    for (sites, _), table, w in zip(terms, tables, width):
        weight[list(sites), col:col + w] = w * d ** np.arange(len(sites))[:, None]
        low_at[0, col:col + w] = base + np.arange(w)
        col, base = col + w, base + table[0].size
    for n in range(h):
        low_at = (np.arange(d)[:, None, None] * weight[n] + low_at).reshape(-1, slots)
    pos = 0
    for i0 in range(0, dim, height):
        vals[-height:] = diag[i0:i0 + height]
        live[-height:] = vals[-height:] != 0
        at = (low_at + (i0 // stride % d) @ weight).ravel()
        kept = np.flatnonzero(live[at])
        ptr = np.searchsorted(kept, np.arange(0, (height + 1) * slots, slots)).astype(index)
        rows = np.repeat(np.arange(i0, i0 + height, dtype=index), np.diff(ptr))
        at = at[kept]
        block = sp.csr_matrix((vals[at], rows + step[at], ptr), shape=(height, dim))
        block.sum_duplicates()
        block.eliminate_zeros()
        end = pos + block.nnz
        indices[pos:end], data[pos:end] = block.indices, block.data
        indptr[i0 + 1:i0 + height + 1] = pos + block.indptr[1:]
        pos = end
    if pos < total:                          # duplicates that summed or cancelled
        indices.resize(pos, refcheck=False)
        data.resize(pos, refcheck=False)
    out = sp.csr_matrix((data, indices, indptr), shape=(dim, dim))
    out.has_canonical_format = True
    return out


def lowering(system: SpinSystem, phases) -> ManyBodyOperator:
    """sum_n e^{i phases[n]} S^-_n, one phase per site; lowers total Sz by one."""
    sm = local_spin_matrices(system.S)[4]
    terms = [((n,), np.exp(1j * phase) * sm) for n, phase in enumerate(phases)]
    return ManyBodyOperator.from_terms(system, terms, hermitian=False)


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


def coherent_site_vectors(S: float, theta, phi) -> np.ndarray:
    """(..., 2S+1) spin-coherent site vectors over the shape of theta and phi:
    each site's rotation times |S, S> (a matvec: a column slice would keep the
    sign of zero entries)."""
    return _site_rotations(S, theta, phi) @ np.eye(_check_spin(S) + 1, dtype=complex)[0]


def coherent_product_states(system: SpinSystem, theta, phi) -> np.ndarray:
    """(G, d^N) unit-norm spin-coherent product states from (G, N) Bloch angles.

    Site n of row g points along theta[g, n], phi[g, n]; helicity enters through
    the sign of phi.  The coherent_site_vectors are joined highest site first
    by the broadcast outer products np.kron takes (site 0 least significant).
    """
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    if theta.ndim != 2 or theta.shape != phi.shape or theta.shape[1] != system.N:
        raise DimensionMismatch(f"angle arrays must both have shape (G, {system.N})")
    vecs = coherent_site_vectors(system.S, theta, phi)
    full = np.ones((len(theta), 1), dtype=complex)
    for n in range(system.N - 1, -1, -1):
        full = (full[:, :, None] * vecs[:, n, None, :]).reshape(len(theta), -1)
    return full


def product_singular_values(vecs) -> np.ndarray:
    """Singular values, largest first, of the d^N x G matrix whose column g is
    the product state of the site vectors vecs[g, n] (shape (G, N, d)), in
    O(N d G^3) and without the d^N rows.

    The matrix is the column-wise Kronecker (Khatri-Rao) product of the d x G
    site matrices V_n, site 0 least significant.  If the product over sites
    below n is Q R, Q with orthonormal columns, then V_n . (Q R) =
    (I_d x Q)(V_n . R), and I_d x Q has orthonormal columns too.  So the sweep
    R <- triangle of the QR of V_n . R, from R = ones((1, G)), uses orthogonal
    steps only and ends at an at most G x G R with the singular values of the
    whole matrix.
    """
    vecs = np.asarray(vecs)
    r = np.ones((1, vecs.shape[0]), dtype=vecs.dtype)
    for v in vecs.transpose(1, 2, 0):
        r = np.linalg.qr((v[:, None, :] * r).reshape(-1, r.shape[1]), mode="r")
    return np.linalg.svd(r, compute_uv=False)


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


def matvec(A: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """A @ x.  A real A meets a complex x as two real products, so scipy does
    not copy A's data to complex128 for one product."""
    if A.dtype.kind == "c" or x.dtype.kind != "c":
        return A @ x
    return A @ x.real + 1j * (A @ x.imag)


def expectation(op: ManyBodyOperator, psi: StateVector) -> complex:
    """<psi|op|psi>; collapses to the real part for Hermitian operators."""
    if psi.system != op.system:
        raise DimensionMismatch("operator and state on different systems")
    val = complex(np.vdot(psi.amplitudes, matvec(op.matrix, psi.amplitudes)))
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
