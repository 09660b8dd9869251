"""Exact diagonalization, degeneracy counting, and the degeneracy scan.

Dense Hermitian diagonalization at desk scale, one symmetry block of H at a
time (momentum and the +-1 characters of the spin flip m -> -m, each where
H's terms show it; a block whose spectrum a symmetry repeats is copied, not
solved), from H's rows at the orbit representatives alone and in real
arithmetic wherever an antiunitary symmetry squaring to 1 keeps the block, a
clustered degeneracy count at the scar energy with an explicit gap audit,
and the degeneracy-versus-size scan (count 4NS away from the special
commensurabilities where q hits a multiple of the quarter period K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .elliptic import commensurate_q
from .errors import InvalidInput, ScarlabError
from .hamiltonian import build_xyz_chain
from .scar import gz_energy
from .spinops import MEMORY_BUDGET, ManyBodyOperator, SpinSystem, check_bytes, local_sum

TOL_SCALE = 1e-8
GAP_AUDIT_FACTOR = 10.0


def _block_bytes(size: int) -> int:
    """At most five complex size x size arrays: a dense block and LAPACK's copies."""
    return 80 * size * size


def _check_xyz_blocks(system: SpinSystem, Jx: float, Jy: float) -> None:
    """Stop before H is built when an XYZ ring's largest block is over the
    memory budget.  With Jx != Jy, hopping and pair terms join each sector
    of one 2Sz parity, so the 2N elements T^j P^e leave at most 4N blocks,
    and the largest holds dim / 4N states or more."""
    if abs(Jx - Jy) > 1e-12:
        least = -(-system.total_dim // (4 * system.N))
        check_bytes(_block_bytes(least), f"a dense block of {least:,} states or more")


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected component of each of n nodes under the undirected edges
    a[j] - b[j], numbered in order of their smallest nodes (as the csgraph
    oracle of the tests numbers them).  Every round hooks the larger root of
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


def _real_block(size: int, a: np.ndarray, b: np.ndarray, v: np.ndarray,
                col: np.ndarray, val: np.ndarray) -> np.ndarray:
    """The real part of F^dag H F, entries v of H at orbits (a, b), where row
    a of F holds val[a] in the block's columns col[a] (two of each)."""
    w = (val[a].conj()[:, :, None] * v[:, None, None] * val[b][:, None, :]).real
    at = col[a][:, :, None] * size + col[b][:, None, :]
    return np.bincount(at.ravel(), w.ravel(), size * size).reshape(size, size)


def _rotations(system: SpinSystem) -> np.ndarray:
    """(N, dim) int64: row j holds T^j s for every basis index s, where the
    one-site shift T moves the state of site n+1 to site n (site 0 to N-1)."""
    d, N = system.local_dim, system.N
    rot = [np.arange(system.total_dim)]
    for _ in range(N - 1):
        rot.append(rot[-1] // d + rot[-1] % d * d ** (N - 1))
    return np.array(rot)


def _mirrored(s: np.ndarray, N: int, d: int) -> np.ndarray:
    """R s for basis indices s, where the site reflection R moves the state
    of site n to site N-1-n: the N base-d digits of s reversed."""
    out = np.zeros_like(s)
    for _ in range(N):
        s, digit = np.divmod(s, d)
        out = out * d + digit
    return out


def _digit_parity(s: np.ndarray, count: int, d: int) -> np.ndarray:
    """(-1)^(sum of the count base-d digits) of every index in s: the sign
    time reversal, |l> -> (-1)^l |d-1-l> on every site, gives a state."""
    total = 0
    for _ in range(count):
        s, digit = np.divmod(s, d)
        total = total + digit
    return 1.0 - 2 * (total % 2)


def _keyed(terms, d: int, site_map=None) -> dict:
    """The site-keyed sums of terms, {ascending sites: the sum of the ops on
    them, factors in that order}, each term first carried to the sites
    site_map[sites] when a site map is given."""
    out = {}
    for sites, op in terms:
        if site_map is not None:
            sites = tuple(site_map[n] for n in sites)
        key = tuple(sorted(sites))
        if key != sites:                    # axis j of the tensor is factor k-1-j
            k = len(sites)
            order = sorted(range(k), key=sites.__getitem__)
            axes = [k - 1 - order[k - 1 - j] for j in range(k)]
            op = op.reshape((d,) * 2 * k).transpose(*axes, *(a + k for a in axes))
            op = op.reshape(d ** k, d ** k)
        out[key] = out[key] + op if key in out else op
    return out


def _symmetries(H: ManyBodyOperator) -> dict:
    """Whether H commutes with the shift T, the digit complement P, the site
    reflection R, complex conjugation and time reversal (|l> -> (-1)^l
    |d-1-l> on every site, then conjugation), read from its terms: T and R
    carry the site-keyed sums of the terms (_keyed) to their image sites, the
    others act on each sum's op, and an element holds when the moved sums
    equal those of H within 1e-12 of their largest entry."""
    d, N = H.system.local_dim, H.system.N
    keyed = _keyed(H.terms, d)
    tol = 1e-12 * max((np.abs(op).max(initial=0.0) for op in keyed.values()), default=0.0)
    sign = {k: _digit_parity(np.arange(d ** k), k, d) for k in {len(key) for key in keyed}}

    def holds(moved: dict) -> bool:
        return all(np.abs(keyed.get(key, 0.0) - moved.get(key, 0.0)).max(initial=0.0) <= tol
                   for key in keyed.keys() | moved.keys())
    return {"translation": holds(_keyed(keyed.items(), d, [(n + 1) % N for n in range(N)])),
            "complement": holds({key: op[::-1, ::-1] for key, op in keyed.items()}),
            "reflection": holds(_keyed(keyed.items(), d, [N - 1 - n for n in range(N)])),
            "conjugation": holds({key: op.conj() for key, op in keyed.items()}),
            "time-reversal": holds({key: np.outer(sign[len(key)], sign[len(key)])
                                    * op.conj()[::-1, ::-1] for key, op in keyed.items()})}


def _solve(H: ManyBodyOperator, vectors: bool, E: float | None = None):
    """(evals, V, ks, record): ascending eigenvalues of H, the eigenvectors
    (None unless vectors; with E only those within degeneracy_at's window of
    E, else all of them), the momentum of each eigenvalue, and what was solved.

    The symmetries are read from H.terms (_symmetries), never from a d^N
    matrix; terms that do not show a symmetry give the smaller group.

    The group is abelian: the powers T^j of the one-site shift when H
    commutes with T (else only the identity), times {1, P} when H commutes
    with P: s -> dim-1-s, which maps m -> -m on every site and is the pi
    rotation about x up to a global phase.  Element T^j P^e has the
    characters chi(T^j P^e) = e^{2 pi i kj/N} sigma^e.  Each orbit is
    labelled by its smallest index a and has length L_a.  local_sum builds
    only H's rows at the orbit representatives, which conjugated are its
    representative columns in the same order (H is Hermitian), and so are
    the dtype, the 1e-30 cut and the Gershgorin bound read from them.  An
    entry h of H from representative b into i = g a adds h chi(g)
    sqrt(L_b/L_a) to H_chi[a, b], and only orbits on whose stabilizer chi
    is trivial carry chi (Sandvik, AIP Conf. Proc. 1297, 135 (2010); the
    block design of QuSpin, Weinberg & Bukov, SciPost Phys. 2, 003 (2017)).
    Each block is one character times one connected component of the orbit
    graph.  1-state blocks are read off the diagonal.

    Theta = R K when H is real and R holds, Theta = R Theta_T when H is
    time-reversal even, R holds and 2SN is even: an antiunitary with
    Theta^2 = 1 that keeps every (k, sigma).  It maps orbit a to orbit a'
    with Theta|a> = c_a |a'>, so a block that Theta maps to itself is real
    in the Theta-fixed basis F: sqrt(c_a) |a> when a' = a, else
    (|a> + c_a |a'>)/sqrt(2) and i(|a> - c_a |a'>)/sqrt(2), at most two
    entries per column.  Such a block, when complex, is solved as the real
    F^dag H_chi F in float64 and its eigenvectors mapped back by F; the
    others (Kramers blocks, Theta^2 = -1, among them) stay complex.

    blocks in the record are the sectors of H: the components of the graph
    of H's entries over T-orbits (the two Sz-parity sectors for XYZ, the Sz
    sectors for XXZ, one sector when J13 or J23 breaks Sz parity).  P maps
    a sector either to itself, where sigma = +-1 split it in two (XYZ with
    2SN even), or onto another (2SN odd swaps the Sz-parity sectors); the
    two then form one component whose sigma = -1 blocks repeat the
    sigma = +1 spectra.  For the eigenvalues those blocks are copied rather
    than solved, and so is the block at -k when a symmetry maps (k, sigma)
    to (-k, sigma') (pairing): complex conjugation when H is real, else time
    reversal (sigma' = (-1)^{2SN} sigma), else the unitary R.  Without E
    every block is solved with its eigenvectors; with E every eigenvalue is
    solved or copied first, then eigh runs on the blocks with an eigenvalue
    within twice the Gershgorin bound's window of E, and keeps its columns
    there (eigh's columns in eigvalsh's order).

    Eigenvectors take the current block's plus dim x (kept columns).  The
    memory budget is checked for the dim x dim V without E, for the
    symmetry tables, for the representative rows beside them, and for the
    largest block beside both, all before any solve; with E, for V once its
    columns are counted, before it is written.
    """
    system = H.system
    N, d, dim = system.N, system.local_dim, system.total_dim
    if vectors and E is None:
        check_bytes(16 * dim * dim, f"the {dim:,} x {dim:,} eigenvector matrix")
    sym = _symmetries(H)
    invariant, complement, mirror, real = (sym[name] for name in (
        "translation", "complement", "reflection", "conjugation"))
    reversal = sym["time-reversal"] and not real
    NT = N if invariant else 1
    G = NT * (2 if complement else 1)
    # the shifts, their complements and the stack of both: 2G rows of int64, and rep, g,
    # back and rpos
    held = 8 * (2 * G + 4) * dim
    check_bytes(held, f"the symmetry tables of {dim:,} states")
    perms = _rotations(system) if invariant else np.arange(dim)[None]
    if complement:
        perms = np.vstack([perms, dim - 1 - perms])  # row NT + j is T^j P
    rep = perms.min(axis=0)
    g = perms.argmin(axis=0)
    back = -g % NT + g // NT * NT                     # s = back[s] rep[s]
    reps = np.flatnonzero(rep == perms[0])
    rpos = np.searchsorted(reps, rep)                # orbit of every state
    stab = perms[:, reps] == reps                    # stabilizer of every representative
    del perms, rep, g
    L = G // stab.sum(axis=0)                        # orbit lengths
    n = reps.size
    A = local_sum(system, H.terms, rows=reps if n < dim else None)  # H's representative rows
    held += A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    b, i, h = A.rows(), A.indices, A.data.conj()     # its representative columns
    # entries below 1e-30 max|H| move no eigenvalue at double precision; kept beside
    # O(1) entries, values-only eigvalsh lost digits on them (+-1.2269 for +-1.25 at 1e-146)
    nz = np.abs(h) > 1e-30 * np.abs(h).max(initial=0.0)
    i, b, h = i[nz], b[nz], h[nz]
    a, half = rpos[i], back[i] // NT                 # i lies in the T-orbit of P^half rep_a
    h = h * np.sqrt(L[b] / L[a])
    # node a + n e is the T-orbit of P^e rep_a: its components are H's sectors;
    # an orbit that some T^j P fixes (or every orbit, without P) is one T-orbit
    fixed = np.flatnonzero(stab[NT:].any(axis=0) if complement else np.ones(n, bool))
    sector = _components(2 * n, np.concatenate([b, b + n, fixed]),
                         np.concatenate([a + n * half, a + n * (1 - half), fixed + n]))
    _, comp = np.unique(np.minimum(sector[:n], sector[n:]), return_inverse=True)
    ncomp = comp.max(initial=-1) + 1
    swapped = np.zeros(ncomp, dtype=bool)
    swapped[comp] = sector[:n] != sector[n:]
    by = np.argsort(comp[a], kind="stable")          # entries grouped by block
    i, a, b, h = i[by], a[by], b[by], h[by]
    m = np.arange(NT)                                # e^{2 pi i m/NT}, exact at quarters
    phase = np.where(4 * m % NT == 0, np.array([1, 1j, -1, -1j])[4 * m // NT % 4],
                     np.exp(2j * np.pi * m / NT))
    signs = (1, -1) if complement else (1,)
    chars = [(k, sigma) for k in range(NT) for sigma in signs]
    el = np.arange(G)
    chi = np.array([phase[k * el % NT] * sigma ** (el // NT) for k, sigma in chars])
    ok = (chi @ stab).real > 0.5                     # chi is trivial on the stabilizer
    largest = int(max(np.bincount(comp[row]).max(initial=0) for row in ok))
    largest_bytes = _block_bytes(largest)
    check_bytes(held + largest_bytes, f"a dense block of {largest:,} states")
    mirrored = _mirrored(reps, N, d)                 # R rep_a
    src = np.arange(len(chars) * ncomp).reshape(len(chars), ncomp)  # the block each copies
    pairing = "none"
    if not vectors or E is not None:
        if complement:                               # sigma = -1 repeats +1 on swapped sectors
            src[1::2, swapped] = src[0::2, swapped]
        if real:
            pairing, pa, flip = "conjugation", np.arange(n), 1
        elif reversal:
            pairing, pa, flip = "time-reversal", rpos[dim - 1 - reps], (-1) ** ((d - 1) * N)
        elif mirror:
            pairing, pa, flip = "reflection", rpos[mirrored], 1
        image = None if pairing == "none" else _pairing(chars, NT, ok, comp, pa, flip)
        if image is None:
            pairing = "none"
        else:
            src = np.minimum(src, image)
    src = src.ravel()
    while not np.array_equal(src[src], src):         # follow copies of copies to a solve
        src = src[src]
    theta = mirror and (real or reversal and (d - 1) * N % 2 == 0)
    if theta:                                        # Theta rep_a = w_a times a state of orbit a'
        to = mirrored if real else dim - 1 - mirrored
        tpa, orbit = rpos[to], np.arange(n)
        kept_by_theta = np.ones(ncomp, dtype=bool)
        kept_by_theta[comp[comp[tpa] != comp]] = False
        first = orbit <= tpa                         # a itself or the first of its pair
        pair = np.where(first, [orbit, tpa], [tpa, orbit]).T
        # c_a of every character, the first of each pair's for both: F's values in row a
        c = chi[:, back[to]] * (1.0 if real else _digit_parity(reps, N, d))
        c = np.where(first, c, c[:, tpa])
        fvals = np.where(tpa == orbit, [np.sqrt(c), 0 * c], np.where(
            first, [1 + 0 * c, 1j + 0 * c], [c, -1j * c]) / np.sqrt(2)).transpose(1, 2, 0)
    if E is not None:
        bound = np.bincount(A.rows(), np.abs(A.data), n).max(initial=0.0)
        wide = 2 * TOL_SCALE * max(1.0, 2 * bound)
    evals, ks, vecs, solved, copied, done, cplx = [], [], [], [], [], {}, False
    for x, (k, _) in enumerate(chars):
        sel = np.flatnonzero(ok[x])
        order = sel[np.argsort(comp[sel], kind="stable")]   # block members, contiguous
        sizes = np.bincount(comp[sel], minlength=ncomp)
        ids = np.flatnonzero(sizes)
        sizes = sizes[ids]
        starts = np.cumsum(sizes) - sizes
        ids_flat = x * ncomp + ids
        ev = np.empty(order.size)
        if vectors or np.any(src[ids_flat] == ids_flat):   # some block is built
            loc = np.empty(n, dtype=np.intp)             # index of an orbit in its block
            loc[order] = np.arange(order.size) - np.repeat(starts, sizes)
            e = np.flatnonzero(ok[x][a] & ok[x][b])
            ea, eb, eh = a[e], b[e], h[e] * chi[x][back[i[e]]]
            cut = np.searchsorted(comp[ea], ids, side="right").tolist()   # block j's end in them
            if theta:                   # F's two entries in every row a, at block columns fcol[a]
                fcol, fval = loc[pair], fvals[x]
        if vectors:                     # psi[g a] = v[a] conj(chi(g)) / sqrt(L_a)
            coef = chi[x][back].conj() / np.sqrt(L[rpos])
            coef = coef if np.any(coef.imag) else coef.real
            member = np.where(ok[x][rpos], comp[rpos], -1)     # block of every state
        base = sum(map(len, evals))
        for j, (lo, size, f) in enumerate(zip(starts, sizes, ids_flat)):
            if src[f] != f:
                ev[lo:lo + size] = done[src[f]]
                copied.append(int(size))
                if not vectors:
                    continue
            at = slice(cut[j - 1] if j else 0, cut[j])
            pa, pb, pv = ea[at], eb[at], eh[at]
            fold = theta and kept_by_theta[ids[j]] and size > 1 and np.any(pv.imag)
            blk = (_real_block(size, pa, pb, pv, fcol, fval) if fold else
                   _dense_block(size, loc[pa], loc[pb], pv))
            if src[f] == f:
                cplx |= blk.dtype.kind == "c" and size > 1
                if size == 1:
                    ev[lo] = blk[0, 0].real
                elif vectors and E is None:
                    ev[lo:lo + size], w = np.linalg.eigh(blk)
                else:
                    ev[lo:lo + size] = np.linalg.eigvalsh(blk)
                done[f] = ev[lo:lo + size]
                solved.append(int(size))
            if vectors:
                near = (np.arange(size) if E is None else
                        np.flatnonzero(np.abs(ev[lo:lo + size] - E) <= wide))
                if near.size == 0:
                    continue
                if size == 1:
                    w = np.ones((1, 1))
                elif E is not None:
                    w = np.linalg.eigh(blk)[1]
                w = w[:, near]
                if fold:                             # back from the Theta-fixed basis
                    mem = order[lo:lo + size]
                    w = fval[mem, :1] * w[fcol[mem, 0]] + fval[mem, 1:] * w[fcol[mem, 1]]
                rows = np.flatnonzero(member == ids[j])
                vecs.append((base + lo + near, rows, coef[rows], loc[rpos[rows]], w))
        evals.append(ev)
        ks.append(np.full(ev.size, k))
    evals = np.concatenate(evals)
    rank = np.argsort(evals, kind="stable")
    acts = [name for name, on in (("split", ~swapped), ("swap", swapped)) if on.any()]
    record = {"symmetry": "translation" if invariant else "none",
              "dtype": "complex128" if np.any(A.data.imag) else "float64",
              "blocks": sorted(np.bincount(sector, np.tile(L / 2, 2)).astype(int).tolist()),
              "complement": "+".join(acts) if complement else "none",
              "pairing": pairing,
              "solved_blocks": sorted(solved),
              "copied_blocks": sorted(copied),
              "solved_dtype": "complex128" if cplx else "float64",
              "largest_block_bytes": largest_bytes}
    if not vectors:
        return evals[rank], None, np.concatenate(ks)[rank], record
    keep = np.ones(dim, bool) if E is None else np.abs(evals - E) <= degeneracy_at(evals, E).tol
    count = int(keep.sum())
    if E is not None:   # V beside the kept block columns, at most largest x count
        check_bytes(held + 16 * (dim + largest) * count,
                    f"the {dim:,} x {count:,} eigenvector matrix")
    # kept eigenvalue u is column col[u] of V, in ascending order
    col = np.empty_like(rank)
    col[rank] = np.cumsum(keep[rank]) - 1
    V = np.zeros((dim, count), dtype=np.complex128 if np.any(chi.imag) or np.any(A.data.imag)
                 else np.float64)
    for at_eval, rows, c, at, v in vecs:
        cols = np.flatnonzero(keep[at_eval])
        V[np.ix_(rows, col[at_eval[cols]])] = c[:, None] * v[np.ix_(at, cols)]
    return evals[rank], V, np.concatenate(ks)[rank], record


def _pairing(chars, NT, ok, comp, pa, flip):
    """The block of each (character, component) that a symmetry mapping
    character (k, sigma) to (-k, flip sigma) and orbit a to orbit pa[a] maps
    it to, or None when the components or characters do not map onto blocks.
    Complex conjugation fixes every orbit, time reversal maps a to the orbit
    of P rep_a and the reflection to that of R rep_a."""
    complement = len(chars) > NT
    img = np.array([chars.index((-k % NT, sigma * flip if complement else sigma))
                    for k, sigma in chars])
    cmap = np.zeros(comp.max(initial=-1) + 1, dtype=np.intp)
    cmap[comp] = comp[pa]
    if not (np.array_equal(cmap[comp], comp[pa]) and np.array_equal(ok[img][:, pa], ok)):
        return None
    return img[:, None] * cmap.size + cmap


def full_spectrum(H: ManyBodyOperator, vectors: bool = True, E: float | None = None):
    """Ascending eigenvalues (and eigenvectors, columns of V) of a Hermitian
    operator, solved densely one symmetry block at a time (_solve).

    V holds every eigenvector, or with E only those within degeneracy_at's
    window of E, in ascending order of their eigenvalues: dim x dim complex
    bytes, or dim x (their count).  The eigenvectors are real when H is real
    and has no translation symmetry; a translation-invariant H has complex
    momentum eigenvectors.
    """
    evals, V, _, _ = _solve(H, vectors, E)
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
    complement: str | None = None
    pairing: str | None = None
    solved_blocks: list | None = None
    copied_blocks: list | None = None
    solved_dtype: str | None = None
    largest_block_bytes: int | None = None
    tol: float | None = None
    gap: float | None = None

    def record(self) -> dict:
        """The row with how it was computed, for the JSON sidecar.

        dtype and blocks describe H: the dtype of its entries and the sizes
        of its decoupled sectors (the two Sz-parity sectors for XYZ).  The
        rest describe the solve: symmetry is the translation group used,
        complement how the digit complement acts on the sectors (split,
        swap, both or none), pairing the symmetry that copies momentum k to
        -k (conjugation, time-reversal, reflection or none), solved_blocks
        and copied_blocks the sizes of the blocks solved and of those whose
        spectra were copied (together they sum to dim), and solved_dtype
        complex128 when any block was solved in complex arithmetic, and
        largest_block_bytes the bytes of the largest block that were checked
        against the memory budget.  A gap of None means no eigenvalue lies
        outside the tolerance.
        """
        gap = None if self.gap is None or math.isinf(self.gap) else self.gap
        return {"S": self.S, "N": self.N, "p": self.p, "count": self.count,
                "flag": self.flag, "dim": self.dim, "dtype": self.dtype,
                "blocks": self.blocks, "symmetry": self.symmetry,
                "complement": self.complement, "pairing": self.pairing,
                "solved_blocks": self.solved_blocks, "copied_blocks": self.copied_blocks,
                "solved_dtype": self.solved_dtype,
                "largest_block_bytes": self.largest_block_bytes,
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
        """Sidecar keys: the tolerances and memory budget used and one record() per row."""
        return {"tol_scale": TOL_SCALE, "gap_audit_factor": GAP_AUDIT_FACTOR,
                "memory_budget": MEMORY_BUDGET,
                "rows": len(self.rows), "records": [r.record() for r in self.rows]}


def scan_degeneracy(S_list, N_range, kappa: float, p_range) -> DegeneracyScan:
    """Degeneracy at the scar energy across (S, N, p); failures become rows too.

    flag carries semicolon-joined markers: special-q when q is a multiple of
    K, deviates when the count misses 4NS, unresolved when the gap audit
    fails, error:... when a row could not be computed (error:DimensionCap
    when a block is over the memory budget, before any block is solved and,
    where dim / 4N states already are, before H is built).
    Any N below 3 is invalid input, raised before a row is computed.
    """
    from .elliptic import jacobi_fraction
    N_range = list(N_range)
    if min(N_range, default=3) < 3:
        # 4NS counts the N bonds of a periodic ring; at N = 0 the special-q test divides by N
        raise InvalidInput(f"degeneracy-scan needs rings of N >= 3 sites, got N={min(N_range)}")
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
                    system = SpinSystem(S, N)
                    row.dim = system.total_dim
                    _check_xyz_blocks(system, dn, 1.0)
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
