"""Exact diagonalization, degeneracy counting, and the degeneracy scan.

Dense Hermitian diagonalization at desk scale, one momentum x decoupled block
of H at a time (momentum only when H is translation invariant) and in real
arithmetic when the block is real, a clustered degeneracy count at the scar
energy with an explicit gap audit, and the degeneracy-versus-size scan
(count 4NS away from the special commensurabilities where q hits a multiple
of the quarter period K).
"""

from __future__ import annotations

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


def check_dense_cap(dim: int, vectors: bool) -> None:
    cap = DENSE_CAP_VECTORS if vectors else DENSE_CAP_VALUES
    if dim > cap:
        raise DimensionCap(f"dimension {dim} exceeds dense cap {cap}")


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected component of each of n nodes under the undirected edges
    a[j] - b[j], numbered in order of their smallest nodes as scipy's
    connected_components numbers them.  Every round hooks the larger root of
    each edge onto the smaller one and jumps pointers until every tree is a
    star (Shiloach-Vishkin)."""
    root = np.arange(n)
    while not np.array_equal(ra := root[a], rb := root[b]):
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(up := root[root], root):
            root = up
    return np.cumsum(root == np.arange(n))[root] - 1


def _dense_block(size: int, r: np.ndarray, c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The size x size matrix with v summed in at (r, c); float64 when it is real."""
    re, im = (np.bincount(r * size + c, w, size * size).reshape(size, size)
              for w in (v.real, v.imag))
    return re + 1j * im if np.any(im) else re


def _rotations(system: SpinSystem) -> np.ndarray:
    """(N, dim) int64: row j holds T^j s for every basis index s, where the
    one-site shift T moves the state of site n+1 to site n (site 0 to N-1)."""
    d, N = system.local_dim, system.N
    rot = [np.arange(system.total_dim)]
    for _ in range(N - 1):
        rot.append(rot[-1] // d + rot[-1] % d * d ** (N - 1))
    return np.array(rot)


def _solve(H: ManyBodyOperator, vectors: bool):
    """(evals, V, ks, record): ascending eigenvalues of H, the eigenvectors
    (None unless vectors), the momentum of each eigenvalue, and what was solved.

    When H commutes with the one-site shift T the group is {T^j} of order N,
    otherwise only the identity.  Each orbit is labelled by its smallest
    index a and has length L_a.  An entry h of H from representative b into
    i = T^l a adds h e^{2 pi i k l/N} sqrt(L_b/L_a) to H_k[a, b], and only
    orbits with kL = 0 mod N carry momentum k (Sandvik, AIP Conf. Proc. 1297,
    135 (2010)).  Each block is one momentum k times one connected component
    of the orbit graph (a ~ b when H links orbit a to b: the Sz-parity
    sectors for XYZ).  A block is solved in float64 when its entries are
    real, and 1-state blocks are read off the diagonal.  With the trivial
    group every orbit is one state, so the blocks are the connected
    components of the graph of H's nonzero entries: the two Sz-parity
    sectors for XYZ, the Sz sectors for XXZ, and one block when a coupling
    such as J13 or J23 breaks Sz parity.
    """
    check_dense_cap(H.system.total_dim, vectors)
    A = H.matrix
    rot = _rotations(H.system)
    P = rot[1 % len(rot)]
    invariant = abs(A[P][:, P] - A).max() <= 1e-12 * abs(A).max()
    G = len(rot) if invariant else 1
    rot = rot[:G]
    rep = rot.min(axis=0)
    back = -rot.argmin(axis=0) % G                   # s = T^back[s] rep[s]
    L = G // np.count_nonzero(rot == rot[0], axis=0)  # orbit lengths
    reps = np.flatnonzero(rep == rot[0])
    rpos = np.searchsorted(reps, rep)                # orbit of every state
    C = A.tocsc()[:, reps].tocoo()
    # entries below 1e-30 max|H| move no eigenvalue at double precision; kept beside
    # O(1) entries, values-only eigvalsh lost digits on them (+-1.2269 for +-1.25 at 1e-146)
    nz = np.abs(C.data) > 1e-30 * np.abs(C.data).max(initial=0.0)
    i, b, h = C.row[nz], C.col[nz], C.data[nz]
    a, h = rpos[i], h * np.sqrt(L[reps[b]] / L[i])
    n = reps.size
    comp = _components(n, a, b)
    by = np.argsort(comp[a], kind="stable")          # entries grouped by block
    i, a, b, h = i[by], a[by], b[by], h[by]
    m = np.arange(G)                                 # e^{2 pi i m/G}, exact at quarters
    phase = np.where(4 * m % G == 0, np.array([1, 1j, -1, -1j])[4 * m // G % 4],
                     np.exp(2j * np.pi * m / G))
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    evals, ks, sizes_all, vecs, cplx = [], [], [], [], False
    for k in range(G):
        ok = k * L[reps] % G == 0
        sel = np.flatnonzero(ok)
        order = sel[np.argsort(comp[sel], kind="stable")]   # block members, contiguous
        ids, sizes = np.unique(comp[sel], return_counts=True)
        starts = np.cumsum(sizes) - sizes
        loc = np.empty(n, dtype=np.intp)                 # index of an orbit in its block
        loc[order] = np.arange(order.size) - np.repeat(starts, sizes)
        e = np.flatnonzero(ok[a] & ok[b])
        r, c, v = loc[a[e]], loc[b[e]], h[e] * phase[k * back[i[e]] % G]
        parts = (np.split(x, np.searchsorted(comp[a[e]], ids[1:])) for x in (r, c, v))
        ev = np.empty(order.size)
        if vectors:                     # psi[T^l a] = v[a] e^{-2 pi i kl/N} / sqrt(L_a)
            coef = phase[k * back % G].conj() / np.sqrt(L)
            E = sp.csc_matrix((coef if np.any(coef.imag) else coef.real,
                               (np.arange(rpos.size), rpos)), (rpos.size, n))[:, order]
        base = sum(map(len, evals))
        for lo, size, *entries in zip(starts, sizes, *parts):
            blk = _dense_block(size, *entries)
            cplx |= blk.dtype.kind == "c" and size > 1
            if size > 1:
                res = solve(blk)
                ev[lo:lo + size] = res[0] if vectors else res
            else:
                ev[lo] = blk[0, 0].real
            if vectors:
                vecs.append((base + lo, E[:, lo:lo + size],
                             res[1] if size > 1 else np.ones((1, 1))))
        evals.append(ev)
        ks.append(np.full(ev.size, k))
        sizes_all.extend(sizes.tolist())
    evals = np.concatenate(evals)
    rank = np.argsort(evals, kind="stable")
    record = {"symmetry": "translation" if invariant else "none",
              "dtype": "complex128" if np.any(A.data.imag) else "float64",
              "blocks": sorted(np.bincount(comp, weights=L[reps]).astype(int).tolist()),
              "solved_blocks": sorted(sizes_all),
              "solved_dtype": "complex128" if cplx else "float64"}
    if not vectors:
        return evals[rank], None, np.concatenate(ks)[rank], record
    # column j of the block solve lands at the position of eigenvalue j
    pos = np.empty_like(rank)
    pos[rank] = np.arange(rank.size)
    V = np.zeros((rank.size, rank.size),
                 dtype=np.result_type(*(x.dtype for _, Eb, v in vecs for x in (Eb, v))))
    for lo, Eb, v in vecs:
        V[:, pos[lo:lo + v.shape[1]]] = Eb @ v
    return evals[rank], V, np.concatenate(ks)[rank], record


def full_spectrum(H: ManyBodyOperator, vectors: bool = True):
    """Ascending eigenvalues (and eigenvectors, columns of V) of a Hermitian
    operator, solved densely one momentum x connected block at a time (_solve).

    The eigenvectors are real when H is real and has no translation symmetry;
    a translation-invariant H has complex momentum eigenvectors.
    """
    evals, V, _, _ = _solve(H, vectors)
    return (evals, V) if vectors else evals


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
    """One-site cyclic shift T on the product basis (site n+1 -> n)."""
    rot = _rotations(system)
    return sp.csr_matrix((np.ones(rot.shape[1]), (rot[1 % system.N], rot[0])),
                         shape=(rot.shape[1],) * 2)


def translation_sectors(H: ManyBodyOperator, N: int) -> dict:
    """Momentum-resolved spectra {k: eigenvalues} of a periodic chain.

    The momentum blocks of _solve; the multiset union over k reproduces the
    full spectrum.
    """
    if H.system.N != N:
        raise NotTranslationInvariant(f"operator acts on {H.system.N} sites, not {N}")
    evals, _, ks, record = _solve(H, vectors=False)
    if record["symmetry"] != "translation":
        raise NotTranslationInvariant("H does not commute with the one-site shift")
    return {k: evals[ks == k] for k in range(N)}


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
    symmetry: str | None = None
    solved_blocks: list | None = None
    solved_dtype: str | None = None
    tol: float | None = None
    gap: float | None = None

    def record(self) -> dict:
        """The row with how it was computed, for the JSON sidecar.

        dtype and blocks describe H: the dtype of its entries and the sizes
        of its decoupled sectors (the two Sz-parity sectors for XYZ).
        symmetry, solved_blocks and solved_dtype describe the solve: the
        group used, the sizes of the momentum blocks (they sum to dim) and
        complex128 when any block was solved in complex arithmetic.  A gap
        of None means no eigenvalue lies outside the tolerance.
        """
        gap = None if self.gap is None or math.isinf(self.gap) else self.gap
        return {"S": self.S, "N": self.N, "p": self.p, "count": self.count,
                "flag": self.flag, "dim": self.dim, "dtype": self.dtype,
                "blocks": self.blocks, "symmetry": self.symmetry,
                "solved_blocks": self.solved_blocks, "solved_dtype": self.solved_dtype,
                "tol": self.tol, "gap": gap}


@dataclass
class DegeneracyScan:
    rows: list = field(default_factory=list)
    HEADER = ("S", "N", "p", "kappa", "E", "count", "expected", "flag")

    def table(self) -> list:
        """CSV body rows under HEADER; E as repr so reruns are byte-identical."""
        return [[r.S, r.N, r.p, r.kappa, repr(r.E), r.count, r.expected, r.flag]
                for r in self.rows]

    def summary(self) -> dict:
        """Sidecar keys: the tolerances used and one record() per row."""
        return {"tol_scale": TOL_SCALE, "gap_audit_factor": GAP_AUDIT_FACTOR,
                "rows": len(self.rows), "records": [r.record() for r in self.rows]}


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
                    check_dense_cap(row.dim, vectors=False)
                    H = build_xyz_chain(N, S, dn, 1.0, cn)
                    row.E = gz_energy(N, S, q)
                    evals, _, _, solved = _solve(H, vectors=False)
                    for key, value in solved.items():
                        setattr(row, key, value)
                    res = degeneracy_at(evals, row.E)
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
