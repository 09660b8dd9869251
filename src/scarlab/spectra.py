"""Exact diagonalization, degeneracy counting, and scan persistence.

Dense Hermitian diagonalization at desk scale, one decoupled block of H at a
time and in real arithmetic when H is real, a clustered degeneracy count
at the scar energy with an explicit gap audit, momentum-sector reduction on
periodic chains, and the degeneracy-versus-size scan (count 4NS away from
the special commensurabilities where q hits a multiple of the quarter
period K).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .elliptic import commensurate_q
from .errors import DimensionCap, NotTranslationInvariant, ScarlabError
from .hamiltonian import build_xyz_chain
from .scar import gz_energy
from .spinops import ManyBodyOperator, SpinSystem

DENSE_CAP_VECTORS = 20000
DENSE_CAP_VALUES = 60000
TOL_SCALE = 1e-8
GAP_AUDIT_FACTOR = 10.0


def _check_dense_cap(dim: int, vectors: bool) -> None:
    cap = DENSE_CAP_VECTORS if vectors else DENSE_CAP_VALUES
    if dim > cap:
        raise DimensionCap(f"dimension {dim} exceeds dense cap {cap}")


def _blocks(H: ManyBodyOperator):
    """(real, labels): whether every entry of H is exactly real, and the block
    of each basis state.

    labels[i] is the connected component of state i in the graph whose edges
    are the nonzero entries of H, so H is exactly block diagonal over them.
    For the XYZ chain the blocks are the two Sz-parity sectors, for XXZ the
    Sz sectors; a coupling that breaks Sz parity (J13, J23) leaves one block.
    """
    # deferred: importing csgraph at module load adds ~130 ms to every start
    from scipy.sparse.csgraph import connected_components
    A = H.matrix
    _, labels = connected_components(A != 0, directed=False)
    return A.dtype.kind != "c" or not np.any(A.data.imag), labels


def full_spectrum(H: ManyBodyOperator, vectors: bool = True):
    """Ascending eigenvalues (and eigenvectors) of a Hermitian operator.

    Solves densely, one block of _blocks(H) at a time, in float64 when every
    entry of H is real (the eigenvectors are then real too).
    Single-state blocks are read off the diagonal.  The block-diagonal
    scheme follows Sandvik, AIP Conf. Proc. 1297, 135 (2010).
    """
    _check_dense_cap(H.system.total_dim, vectors)
    real, labels = _blocks(H)
    A = H.matrix.real if real and H.matrix.dtype.kind == "c" else H.matrix
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    if labels.max() == 0:
        res = solve(A.toarray())
        return tuple(res) if vectors else res
    order = np.argsort(labels, kind="stable")      # block members, contiguous
    sizes = np.bincount(labels)
    stops = np.cumsum(sizes)
    starts = stops - sizes
    A = A[order][:, order]
    evals = A.diagonal().real                      # exact on 1-state blocks
    vecs = []
    for lo, hi in zip(starts[sizes > 1], stops[sizes > 1]):
        res = solve(A[lo:hi, lo:hi].toarray())
        if vectors:
            evals[lo:hi], v = res
            vecs.append((lo, hi, v))
        else:
            evals[lo:hi] = res
    rank = np.argsort(evals, kind="stable")
    if not vectors:
        return evals[rank]
    # column j of the block solve lands at the position of eigenvalue j
    pos = np.empty_like(rank)
    pos[rank] = np.arange(rank.size)
    V = np.zeros((rank.size, rank.size), dtype=A.dtype)
    singles = starts[sizes == 1]
    V[order[singles], pos[singles]] = 1.0
    for lo, hi, v in vecs:
        V[np.ix_(order[lo:hi], pos[lo:hi])] = v
    return evals[rank], V


@dataclass
class DegeneracyResult:
    count: int
    tol: float
    gap: float
    resolved: bool


def degeneracy_at(evals: np.ndarray, E: float, tol: float | None = None) -> DegeneracyResult:
    """Number of eigenvalues within tol of E, with a cluster-gap audit.

    Default tol is TOL_SCALE times max(1, spectral range).  The result is
    flagged unresolved when the nearest excluded eigenvalue sits closer than
    GAP_AUDIT_FACTOR tol, meaning the clustering tolerance cannot separate
    the level.
    """
    evals = np.asarray(evals, dtype=float)
    if tol is None:
        tol = TOL_SCALE * max(1.0, float(evals.max() - evals.min()))
    dist = np.abs(evals - E)
    inside = dist <= tol
    count = int(np.sum(inside))
    outside = dist[~inside]
    gap = float(outside.min()) if outside.size else math.inf
    return DegeneracyResult(count=count, tol=float(tol), gap=gap,
                            resolved=gap >= GAP_AUDIT_FACTOR * tol)


def _translation_matrix(system: SpinSystem) -> sp.csr_matrix:
    """One-site cyclic shift on the product basis (site n -> n+1)."""
    d = system.local_dim
    N = system.N
    dim = system.total_dim
    src = np.arange(dim)
    digits = []
    rem = src
    for _ in range(N):
        digits.append(rem % d)
        rem = rem // d
    digits = list(reversed(digits))            # digits[0] = site 0, big-endian
    shifted = [digits[(n - 1) % N] for n in range(N)]
    dst = np.zeros(dim, dtype=np.int64)
    for n in range(N):
        dst = dst * d + shifted[n]
    return sp.csr_matrix((np.ones(dim), (dst, src)), shape=(dim, dim))


def translation_sectors(H: ManyBodyOperator, N: int) -> dict:
    """Momentum-resolved spectra {k: eigenvalues} of a periodic chain.

    Sector bases come from diagonalizing the shift operator; the multiset
    union over k reproduces the full spectrum.
    """
    system = H.system
    if system.N != N:
        raise NotTranslationInvariant(f"operator acts on {system.N} sites, not {N}")
    T = _translation_matrix(system)
    comm = (H.matrix @ T - T @ H.matrix)
    defect = np.abs(comm.toarray()).max() if comm.nnz else 0.0
    if defect > 1e-12:
        raise NotTranslationInvariant(f"[H, T] = {defect:.3e} exceeds 1e-12")
    Hd = H.dense()
    dim = system.total_dim
    # T is a permutation matrix; extract destination index per source column
    perm = np.zeros(dim, dtype=np.int64)
    coo = T.tocoo()
    perm[coo.col] = coo.row
    seen = np.zeros(dim, dtype=bool)
    sector_vecs = {k: [] for k in range(N)}
    for start in range(dim):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        cur = perm[start]
        while cur != start:
            seen[cur] = True
            orbit.append(cur)
            cur = perm[cur]
        L = len(orbit)
        # an orbit of length L carries the momenta k that are multiples of N/L
        for k in range(N):
            if (k * L) % N != 0:
                continue
            vec = np.zeros(dim, dtype=complex)
            for j, idx in enumerate(orbit):
                vec[idx] = np.exp(-2j * np.pi * k * j / N)
            sector_vecs[k].append(vec / math.sqrt(L))
    out = {}
    for k in range(N):
        basis = np.array(sector_vecs[k]).T
        out[k] = np.linalg.eigvalsh(basis.conj().T @ Hd @ basis)
    return out


def is_special_q(p: int, N: int) -> bool:
    """q = 4pK/N lands on an integer multiple of K exactly when N divides 4p."""
    return (4 * p) % N == 0


@dataclass
class ScanRow:
    S: float
    N: int
    p: int
    kappa: float
    E: float
    count: int
    expected: int
    flag: str
    dim: int | None = None
    dtype: str | None = None
    blocks: list | None = None
    tol: float | None = None
    gap: float | None = None

    def record(self) -> dict:
        """The row with how it was computed, for the JSON sidecar.

        A gap of None means no eigenvalue lies outside the tolerance.
        """
        gap = None if self.gap is None or math.isinf(self.gap) else self.gap
        return {"S": self.S, "N": self.N, "p": self.p, "count": self.count,
                "flag": self.flag, "dim": self.dim, "dtype": self.dtype,
                "blocks": self.blocks, "tol": self.tol, "gap": gap}


@dataclass
class DegeneracyScan:
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["S", "N", "p", "kappa", "E", "count", "expected", "flag"])
        for r in self.rows:
            w.writerow([r.S, r.N, r.p, r.kappa, repr(r.E), r.count, r.expected, r.flag])
        return buf.getvalue()

    def sidecar(self, config: dict | None = None) -> str:
        doc = {"tol_scale": TOL_SCALE, "gap_audit_factor": GAP_AUDIT_FACTOR,
               "rows": len(self.rows), "records": [r.record() for r in self.rows]}
        if config is not None:
            doc["config"] = config
        return json.dumps(doc, indent=2, sort_keys=True)


def scan_degeneracy(S_list, N_range, kappa: float, p_range) -> DegeneracyScan:
    """Degeneracy at the scar energy across (S, N, p); failures become rows too.

    flag carries semicolon-joined markers: special-q when q is a multiple of
    K, deviates when the count misses 4NS, unresolved when the gap audit
    fails, error:... when a row could not be computed (a dimension over the
    dense cap fails before H is built).
    """
    from .elliptic import jacobi_fraction
    scan = DegeneracyScan()
    for S in S_list:
        for N in N_range:
            for p in p_range:
                expected = int(round(4 * N * S))
                flags = []
                if is_special_q(p, N):
                    flags.append("special-q")
                row = ScanRow(S=S, N=N, p=p, kappa=kappa, E=float("nan"), count=0,
                              expected=expected, flag="")
                try:
                    q = commensurate_q(p, N, kappa)
                    sn, cn, dn = jacobi_fraction(q.fraction, q.modulus)
                    row.dim = SpinSystem(S, N).total_dim
                    _check_dense_cap(row.dim, vectors=False)
                    H = build_xyz_chain(N, S, dn, 1.0, cn)
                    row.E = gz_energy(N, S, q)
                    real, labels = _blocks(H)
                    row.dtype = "float64" if real else "complex128"
                    row.blocks = sorted(np.bincount(labels).tolist())
                    res = degeneracy_at(full_spectrum(H, vectors=False), row.E)
                    row.count, row.tol, row.gap = res.count, res.tol, res.gap
                    if not res.resolved:
                        flags.append("unresolved")
                    if res.count != expected:
                        flags.append("deviates")
                except (ScarlabError, MemoryError, np.linalg.LinAlgError) as exc:
                    flags.append(f"error:{type(exc).__name__}")   # row-level isolation
                    row.E = float("nan")
                row.flag = ";".join(flags)
                scan.rows.append(row)
    return scan
