"""Spin-S local operators, the sparse term assembler, product states, expectations.

Basis conventions (fixed globally, do not change):
  * local Sz eigenbasis ordered m = S, S-1, ..., -S, so local index l = S - m;
  * composite index i = sum_n l_n * (2S+1)^n with site 0 least significant.

Every many-body operator is assembled by local_sum from a list of local
terms into a Csr, three numpy arrays in canonical CSR order (its
Kronecker-product and COO references, through scipy, live with the tests).
A ManyBodyOperator is such a term list: it keeps the terms and assembles on
the first .matrix, so code that reads only the terms never pays for the
CSR; anything derived from one (a commutator, a difference) is a term list
too, and goes the same way.
lowering builds every phased sum of S^-, and tower the normalized powers of
a ladder operator on a start vector.
paired_singular_values gives the singular values of a batch of product
states and their mirrors from their site vectors, without the d^N amplitudes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCap, DimensionMismatch, InvalidSpin, SiteOutOfRange

MEMORY_BUDGET = 5 * 2 ** 30     # bytes held at once on 7 GB: a dense block of 8,000 states fits


def check_bytes(nbytes: int, what: str) -> None:
    """The one memory cap: raise DimensionCap before a step allocates `what`
    when nbytes, what it allocates and what it holds alongside, passes
    MEMORY_BUDGET."""
    if nbytes > MEMORY_BUDGET:
        from decimal import Decimal         # no float overflow at 16 * 2^3000 bytes
        raise DimensionCap(f"{what} would take {Decimal(int(nbytes)) / 2 ** 30:.4g} GiB, over "
                           f"the {Decimal(MEMORY_BUDGET) / 2 ** 30:.4g} GiB memory budget")


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
        check_bytes(16 * self.total_dim, f"(2S+1)^N = {self.local_dim}^{self.N} amplitudes")

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
    """The operator local_sum(system, terms) on a spin system: its local terms,
    checked and cast on construction, and its CSR, assembled on the first
    .matrix, so code that reads only the terms never pays for it."""

    def __init__(self, system: SpinSystem, terms):
        self.system, self.terms = system, _checked_terms(system, terms)[0]

    @functools.cached_property
    def matrix(self) -> "Csr":
        return local_sum(self.system, self.terms)


class Csr:
    """A sparse matrix in canonical CSR form: each row's columns ascending, no
    duplicates, no stored zeros.  local_sum and FockBasis.monomial return one."""

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape):
        self.data, self.indices, self.indptr, self.shape = data, indices, indptr, tuple(shape)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def rows(self) -> np.ndarray:
        """The row of every entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.dtype)
        out[self.rows(), self.indices] = self.data
        return out

    def diagonal(self) -> np.ndarray:
        rows = self.rows()
        on = rows == self.indices
        out = np.zeros(min(self.shape), dtype=self.dtype)
        out[rows[on]] = self.data[on]
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a vector x, each row summed left to right from zero, bit
        for bit as scipy's CSR product."""
        rows, n, a, y = self.rows(), self.shape[0], self.data, np.asarray(x)[self.indices]
        if a.dtype.kind != "c" and y.dtype.kind != "c":
            return np.bincount(rows, a * y, n).astype(np.float64, copy=False)
        out = np.zeros(n, dtype=np.complex128)
        if a.dtype.kind == "c":          # scipy's textbook complex product, not numpy's fused one
            w = a.real * y.real
            w -= a.imag * y.imag
            out.real = np.bincount(rows, w, n)
            np.multiply(a.real, y.imag, out=w)
            w += a.imag * y.real
        else:                            # two real products: A's data is never copied to complex
            out.real = np.bincount(rows, a * y.real, n)
            w = a * y.imag
        out.imag = np.bincount(rows, w, n)
        return out


def _index_dtype(n: int) -> np.dtype:
    return np.dtype(np.int32 if n < 2 ** 31 else np.int64)


def _coo_sum(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, ncols: int):
    """(rows, cols, sums) of the distinct (row, col) pairs among COO entries,
    in row-major order, with zero sums dropped.

    The one sum order of the package: each pair's addends are summed in the
    order they are listed, left to right from the first.  A stable sort by
    row-major key keeps that order; the key packed with its position into
    one int64 is a plain sort, and argsort(kind="stable") the fallback for
    keys too wide to pack.
    """
    key = rows.astype(np.int64) * ncols + cols
    bits = max(key.size - 1, 1).bit_length()
    if int(key.max(initial=0)) < 1 << (63 - bits):  # each key with its position: one plain sort
        key <<= bits
        key |= np.arange(key.size)
        key.sort()
        order = key & ((1 << bits) - 1)
        key >>= bits
    else:
        order = np.argsort(key, kind="stable")
        key = key[order]
    head, sums = order, vals[order]
    new = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    if not new.all():
        head, sums, rest = order[new], sums[new], sums[~new]
        np.add.at(sums, np.cumsum(new)[~new] - 1, rest)    # each added to its first in turn
    keep = sums != 0
    if keep.all():
        return rows[head], cols[head], sums
    return rows[head[keep]], cols[head[keep]], sums[keep]


def coo_csr(rows, cols, vals, shape) -> Csr:
    """The Csr of COO entries, duplicates summed in the listed order (_coo_sum)."""
    r, c, v = _coo_sum(np.asarray(rows), np.asarray(cols), np.asarray(vals), shape[1])
    index = _index_dtype(max(v.size, *shape))
    indptr = np.zeros(shape[0] + 1, dtype=index)
    np.cumsum(np.bincount(r, minlength=shape[0]), out=indptr[1:])
    return Csr(v, c.astype(index), indptr, shape)


def max_gap(A: Csr, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> float:
    """max |B - A| over the union of the entries of A and of B, B given by
    vals at distinct (rows, cols): B's entries are looked up by row-major key,
    which A's canonical order keeps ascending."""
    ka = np.append(A.rows() * A.shape[1] + A.indices, np.iinfo(np.int64).max)
    kb = rows.astype(np.int64) * A.shape[1] + cols
    at = np.searchsorted(ka, kb)
    found = ka[at] == kb
    hit = np.zeros(ka.size, dtype=bool)
    hit[at[found]] = True
    gap = np.where(found, vals - np.append(A.data, 0)[at], vals)
    return float(max(np.abs(gap).max(initial=0.0), np.abs(A.data[~hit[:-1]]).max(initial=0.0)))


def _op_table(op: np.ndarray):
    """The site-free part of a term's row table: the off-diagonal nonzeros
    (local row, local column, slot) in column order within each row, their
    values padded with zeros to the widest row, and the diagonal."""
    local = np.arange(op.shape[0])
    rows, cols = np.nonzero((op != 0) & (local[:, None] != local))
    slot = np.arange(rows.size) - np.searchsorted(rows, rows)
    vals = np.zeros((local.size, int(slot.max(initial=-1)) + 1), dtype=op.dtype)
    vals[rows, slot] = op[rows, cols]
    return rows, cols, slot, vals, np.diagonal(op)


def _column_steps(sites, table, d: int, stride: np.ndarray) -> np.ndarray:
    """A term's column steps, slot for slot with its _op_table values: the
    index change of each entry on the term's sites."""
    rows, cols, slot, vals, _ = table
    local = np.arange(vals.shape[0])
    offset = sum((local // d ** t % d) * stride[n] for t, n in enumerate(sites))
    step = np.zeros(vals.shape, dtype=np.int32)
    step[rows, slot] = offset[cols] - offset[rows]
    return step


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


def local_sum(system: SpinSystem, terms, rows=None) -> Csr:
    """Sparse sum_t (op_t on sites_t), identity on the other sites; with rows,
    ascending basis indices, only those rows: row r of the len(rows) x dim
    result is row rows[r] of the sum, bit for bit.

    A term is (sites, op), op a d^k x d^k matrix on k distinct sites with
    sites[0] the least significant local digit: A_u B_v is ((u, v), kron(B, A)).
    Each distinct op becomes a table over its local rows (_op_table), each
    term its column steps (_column_steps), and row i looks its entries up
    through its digits on the term's sites.  The CSR arrays are allocated
    once, at the count those tables give (at most every slot of each asked
    row with rows), and filled a block of rows at a time: each row in term
    order with its diagonal last, then sorted, duplicates summed in that
    order and zeros dropped (_coo_sum).  A block is the most rows, a power
    of d, whose slots fit in 2^13: its work arrays, well under 1 MB at any
    term count, are reused from block to block instead of being mapped
    afresh.
    float64 when every term is real, else complex128.  After the operator
    strings of QuSpin (Weinberg & Bukov, SciPost Phys. 2, 003 (2017)).
    """
    d, N, dim = system.local_dim, system.N, system.total_dim
    terms, dtype = _checked_terms(system, terms)
    stride = d ** np.arange(N, dtype=np.int64)
    ops = {key: _op_table(op) for key, op in {id(op): op for _, op in terms}.items()}
    tables = [ops[id(op)] for _, op in terms]
    diag = np.zeros((d,) * N, dtype=dtype)
    for (sites, _), table in zip(terms, tables):
        if table[4].any():
            diag += _on_sites(table[4], sites, N, d)
    diag = diag.ravel()
    width = [table[3].shape[1] for table in tables]
    slots = sum(width) + 1
    if rows is None:
        rows = np.arange(dim)
        total = np.count_nonzero(diag) + sum(table[0].size * d ** (N - len(sites))
                                             for (sites, _), table in zip(terms, tables))
    else:
        rows = np.asarray(rows, dtype=np.int64)
        total = np.count_nonzero(diag[rows]) + rows.size * (slots - 1)
    index = _index_dtype(max(total, dim))
    # the CSR arrays beside the diagonal they are filled from
    check_bytes((total + rows.size + 1) * index.itemsize + total * dtype.itemsize
                + diag.nbytes, f"the CSR of {total:,} entries")
    indptr = np.zeros(rows.size + 1, dtype=index)
    indices, data = np.empty(total, dtype=index), np.empty(total, dtype=dtype)

    # Every term's padded rows in one flat table, then `height` entries for
    # the diagonal of the current block.  Slot j of term t reads flat entry
    # start + width_t * r_t, r_t = sum_k d^k digit(sites_t[k]): the digits
    # dotted with column j of `weight`.  The diagonal slot reads its row's own
    # entry past the terms.  A block is d^h rows that share their high digits,
    # so its slots are one table over the low digits, built a site at a time,
    # plus one row of offsets from the high ones; asked rows take their rows
    # of that table.
    h = 0
    while h < N and d ** (h + 1) * slots <= 1 << 13:
        h += 1
    height = d ** h
    step = np.concatenate([_column_steps(sites, table, d, stride).ravel()
                           for (sites, _), table in zip(terms, tables)]
                          + [np.zeros(height, dtype=np.int32)])
    vals = np.concatenate([table[3].ravel() for table in tables] + [np.zeros(height, dtype)])
    live = vals != 0                         # the padding is 0, every entry is not
    weight = np.zeros((N, slots), dtype=np.intp)
    weight[:h, -1] = stride[:h]
    low_at = np.full((1, slots), step.size - height, dtype=np.intp)
    col = base = 0
    for (sites, _), table, w in zip(terms, tables, width):
        weight[list(sites), col:col + w] = w * d ** np.arange(len(sites))[:, None]
        low_at[0, col:col + w] = base + np.arange(w)
        col, base = col + w, base + table[3].size
    for n in range(h):
        low_at = (np.arange(d)[:, None, None] * weight[n] + low_at).reshape(-1, slots)
    pos = 0
    bounds = np.searchsorted(rows, np.arange(0, dim + height, height))
    for i0, r0, r1 in zip(range(0, dim, height), bounds[:-1].tolist(), bounds[1:].tolist()):
        if r0 == r1:
            continue
        low = rows[r0:r1] - i0
        vals[-height:] = diag[i0:i0 + height]
        live[-height:] = vals[-height:] != 0
        at = ((low_at if low.size == height else low_at[low]) + (i0 // stride % d) @ weight).ravel()
        kept = np.flatnonzero(live[at])
        r = kept // slots
        at = at[kept]
        r, cols, sums = _coo_sum(r, i0 + low[r] + step[at], vals[at], dim)
        end = pos + sums.size
        indices[pos:end], data[pos:end] = cols, sums
        np.cumsum(np.bincount(r, minlength=low.size), out=indptr[r0 + 1:r1 + 1])
        indptr[r0 + 1:r1 + 1] += pos
        pos = end
    if pos < total:                          # duplicates that summed or cancelled
        indices.resize(pos, refcheck=False)
        data.resize(pos, refcheck=False)
    return Csr(data, indices, indptr, (rows.size, dim))


def lowering(system: SpinSystem, phases) -> ManyBodyOperator:
    """sum_n e^{i phases[n]} S^-_n, one phase per site; lowers total Sz by one."""
    sm = local_spin_matrices(system.S)[4]
    terms = [((n,), np.exp(1j * phase) * sm) for n, phase in enumerate(phases)]
    return ManyBodyOperator(system, terms)


def tau(N: int, S: float, q0: float, sign: int = +1) -> ManyBodyOperator:
    """tau_+/- = sum_n e^{+/- i (n+1) q0} S^-_n."""
    return lowering(SpinSystem(S, N), [sign * (n + 1) * q0 for n in range(N)])


def tower(lower, start: np.ndarray, steps: int):
    """Yields L^m start / ||L^m start||, m = 0..steps; the power itself is carried unnormalized."""
    yield start / np.linalg.norm(start)
    for _ in range(steps):
        start = lower @ start
        yield start / np.linalg.norm(start)


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


def paired_singular_values(vecs) -> np.ndarray:
    """Singular values, largest first, down to 1e-15 of the largest, of the
    d^N x 2G matrix M of the product states of the (G, N, d) site vectors v
    and of their mirrors J conj(v), J reversing the d components.

    In the site basis w = (1 - i)(v + i J v)/2 a mirror is conj(w), so M has
    sqrt(2) times the singular values of the real [Re P, Im P], P = Q X the
    Khatri-Rao product of the w, Q real and orthonormal.  Per site X <- S V^T
    of the SVD of the real [Re Y, Im Y] (a float view, columns interleaved),
    Y = W_n . X, rows with S < 1e-15 S_0 dropped.  Later steps keep column
    norms, so by Weyl each value moves by at most 1e-15 N sqrt(2G) ||M||_F.
    """
    x = np.ones((1, len(vecs)), dtype=complex)
    for v in (0.5 * (1 - 1j) * (vecs + 1j * vecs[..., ::-1])).transpose(1, 2, 0).copy():
        y = (v[:, None, :] * x).reshape(-1, x.shape[1])
        _, s, wt = np.linalg.svd(y.view(float), full_matrices=False)
        s = s[s > 1e-15 * s[0]]
        x = (s[:, None] * wt[:len(s)]).view(complex)
    return np.sqrt(2) * s


def coherent_product_state(angles: SiteAngles, system: SpinSystem) -> StateVector:
    """The coherent product state of the angles: the coherent_site_vectors
    joined highest site first by the outer products np.kron takes."""
    if not len(angles.theta) == len(angles.phi) == system.N:
        raise DimensionMismatch(f"need {system.N} theta and {system.N} phi angles")
    full = np.ones(1, dtype=complex)
    for vec in coherent_site_vectors(system.S, angles.theta, angles.phi)[::-1]:
        full = (full[:, None] * vec).ravel()
    return StateVector(system, full)


def expectation(op: ManyBodyOperator, psi: StateVector) -> complex:
    """<psi|op|psi> as computed (take .real for a Hermitian op)."""
    if psi.system != op.system:
        raise DimensionMismatch("operator and state on different systems")
    return complex(np.vdot(psi.amplitudes, op.matrix @ psi.amplitudes))


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
