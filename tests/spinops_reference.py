"""Oracles of `scarlab.spinops` that only the tests use.

as_scipy views a Csr as a scipy CSR matrix, so the tests can do sparse
arithmetic on the package's operators with scipy as the oracle.  embed
places one local operator at one site and two_site multiplies two of them, each through scipy.sparse.kron with identities on the other sites
(site 0 least significant); local_sum, the one assembler in the package, is
tested against them.  coo_local_sum is the earlier COO assembler: it lists
the triplets of local_sum's operator in local_sum's order, and listed_sum,
a pure-Python sum in the listed order, turns them into local_sum's CSR bit
for bit.  product_rotation is the dense d^N x d^N product of the site
rotations and rotated_hamiltonian the dense frame V^dag H V;
column0_conditions reads the vanishing conditions from its column 0, the
oracle of hamiltonian.vanishing_conditions.  stub_everywhere swaps functions
for stubs under every name the scarlab modules hold them by.
product_singular_values, the complex QR sweep over site vectors that span_rank
ran before, is the oracle of spinops.paired_singular_values.
"""

import sys

import numpy as np
import scipy.sparse as sp

from scarlab.errors import DimensionMismatch, SiteOutOfRange
from scarlab.spinops import Csr, ManyBodyOperator, SiteAngles, SpinSystem, _site_rotations


def as_scipy(A) -> sp.csr_matrix:
    """The scipy CSR matrix over the three arrays of a Csr."""
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def embed(local_op: np.ndarray, site: int, system: SpinSystem) -> sp.csr_matrix:
    """Place a local operator at one site (Kronecker reference for local_sum)."""
    if not 0 <= site < system.N:
        raise SiteOutOfRange(f"site {site} outside [0, {system.N})")
    d = system.local_dim
    left = sp.identity(d ** (system.N - site - 1), dtype=complex, format="csr")
    right = sp.identity(d ** site, dtype=complex, format="csr")
    return sp.kron(left, sp.kron(sp.csr_matrix(local_op), right, format="csr"), format="csr")


def two_site(op_a: np.ndarray, site_a: int, op_b: np.ndarray, site_b: int,
             system: SpinSystem) -> sp.csr_matrix:
    """(op_a at site_a) @ (op_b at site_b), disjoint sites (Kronecker reference)."""
    if site_a == site_b:
        raise SiteOutOfRange("two_site needs distinct sites")
    a = embed(op_a, site_a, system)
    b = embed(op_b, site_b, system)
    return (a @ b).tocsr()


def coo_local_sum(system: SpinSystem, terms):
    """(rows, cols, vals): local_sum's operator as COO triplets, term by term
    with the diagonal last.  Off-diagonal entries are counted, then written by
    digit arithmetic into preallocated int32 rows/cols and one values array;
    the diagonal is summed in a dense vector and listed where it is nonzero."""
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
    return rows[:end], cols[:end], vals[:end]


def listed_sum(rows, cols, vals, shape) -> Csr:
    """The Csr of COO triplets with each (row, col)'s addends summed in a dict,
    left to right from the first in the order they are listed, zero sums
    dropped and the rest emitted in row-major order: the one sum order that
    local_sum and coo_csr promise, in pure Python."""
    vals = np.asarray(vals)
    sums = {}
    for key, v in zip((np.asarray(rows, dtype=np.int64) * shape[1] + cols).tolist(), vals.tolist()):
        if key in sums:
            sums[key] += v
        else:
            sums[key] = v
    keys = np.array(sorted(key for key, v in sums.items() if v != 0), dtype=np.int64)
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // shape[1], minlength=shape[0]), out=indptr[1:])
    return Csr(np.array([sums[key] for key in keys.tolist()], dtype=vals.dtype),
               (keys % shape[1]).astype(np.int32), indptr, shape)


def product_rotation(angles: SiteAngles, system: SpinSystem) -> np.ndarray:
    """Full product rotation V = prod_n exp(-i phi_n Sz_n) exp(-i theta_n Sy_n),
    as a dense array: a product of per-site rotations has no sparsity."""
    full = np.array([[1.0 + 0.0j]])
    for u in _site_rotations(system.S, angles.theta, angles.phi)[::-1]:
        full = np.kron(full, u)
    return full


def rotated_hamiltonian(H: ManyBodyOperator, angles: SiteAngles,
                        helicity: int = +1) -> np.ndarray:
    """H' = V^dag H V, dense, V the product rotation of the angles with phi
    multiplied by the helicity.  V maps |up...up> onto the product state of
    the angles, so when they are scar angles, H'|up...up> = E |up...up>."""
    phi = tuple(helicity * p for p in angles.phi)
    V = product_rotation(SiteAngles(angles.theta, phi), H.system)
    HV = as_scipy(H.matrix) @ V
    return np.conj(V, out=V).T @ HV      # in place: one dim^2 array fewer at peak


def column0_conditions(H_rot: np.ndarray, system: SpinSystem):
    """(a2, a1) read from column 0 of H': a2_n = 2S <up| s+_n s+_{n+1} H' |up>
    and a1_n = sqrt(2S) <up| s+_n H' |up>, n + 1 taken mod N.  |up...up> is
    basis state 0 and flipping site n adds d^n to the index.  a2 has N
    entries at every N: at N = 2 both are the one bond's, and at N = 1, site
    n + 1 is site n, so the "two-flip" entry is the one-flip amplitude."""
    N, lowered = system.N, 2.0 * system.S     # <S,S-1|S-|S,S> squared
    one = system.local_dim ** np.arange(N)
    two = one + np.roll(one, -1) if N > 1 else one
    w = H_rot[:, 0]
    return lowered * w[two], np.sqrt(lowered) * w[one]


def stub_everywhere(monkeypatch, stubs: dict):
    """Replace each key of stubs, a function, by its value wherever a loaded
    scarlab module refers to it by name."""
    for name, module in list(sys.modules.items()):
        if name.startswith("scarlab"):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in stubs):
                    monkeypatch.setattr(module, attr, stubs[value])


def product_singular_values(vecs) -> np.ndarray:
    """Singular values, largest first, of the d^N x G matrix whose column g is
    the product state of the site vectors vecs[g, n] (shape (G, N, d)), in
    O(N d G^3) and without the d^N rows: the complex oracle of
    spinops.paired_singular_values.

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
