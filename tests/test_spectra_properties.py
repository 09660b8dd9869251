"""Property tests: the block/real full_spectrum against a dense complex solve."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import spectra_reference as ref
from scarlab import spectra
from scarlab.elliptic import commensurate_q, jacobi_fraction
from scarlab.frames import CsseCouplings
from scarlab.hamiltonian import (build_csse_chain, build_on_graph, build_xyz_chain, chain_couplings,
                                 coupling_terms)
from scarlab.lattice import generate
from scarlab.scar import gz_energy
from scarlab.spectra import (_components, _mirrored, _solve, _symmetries, degeneracy_at,
                             full_spectrum, scan_degeneracy)
from scarlab.spinops import ManyBodyOperator, SpinSystem, local_spin_matrices, local_sum

# (S, largest N) pairs that keep the dense oracle at dim <= 81
CHAIN_SIZES = [(0.5, 2), (0.5, 3), (0.5, 4), (0.5, 5), (0.5, 6),
               (1.0, 2), (1.0, 3), (1.0, 4), (1.5, 2), (1.5, 3)]
couplings = st.floats(-2.0, 2.0, allow_nan=False)


def _block_count(H):
    return int(ref.blocks(H)[1].max()) + 1


def _assert_matches_dense(H):
    dense = H.matrix.toarray()
    want = np.linalg.eigvalsh(dense)
    tol = 1e-10 * max(1.0, float(want[-1] - want[0]))
    evals = full_spectrum(H, vectors=False)
    assert np.abs(evals - want).max() <= tol
    evals, V = full_spectrum(H)
    assert np.abs(evals - want).max() <= tol
    assert np.abs(V.conj().T @ V - np.eye(len(evals))).max() <= 1e-10
    assert np.abs((V * evals) @ V.conj().T - dense).max() <= 1e-10


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from(CHAIN_SIZES), jx=couplings, jy=couplings, jz=couplings,
       xxz=st.booleans(), periodic=st.booleans())
def test_block_spectrum_of_xyz_chains(size, jx, jy, jz, xxz, periodic):
    S, N = size
    H = build_xyz_chain(N, S, jy if xxz else jx, jy, jz, periodic=periodic)
    real, _ = ref.blocks(H)
    assert real and _block_count(H) >= 2
    _assert_matches_dense(H)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), S=st.sampled_from([0.5, 1.0]))
def test_block_spectrum_of_rotated_csse_chain(seed, S):
    rng = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    M = rot @ np.diag(rng.uniform(-1.0, 1.0, 3)) @ rot.T
    c = CsseCouplings(J1=M[0, 0], J2=M[1, 1], J3=M[2, 2],
                      J12=M[0, 1], J13=M[0, 2], J23=M[1, 2])
    H = build_csse_chain(3, S, c)
    real, _ = ref.blocks(H)
    assert not real and _block_count(H) == 1
    _assert_matches_dense(H)


@settings(max_examples=5, deadline=None)
@given(kappa=st.floats(0.0, 0.95))
def test_block_spectrum_of_square_graph(kappa):
    # 3x3 is the smallest square torus the generator builds (dim 512)
    H = build_on_graph(generate("square", 3, 3), 0.5, commensurate_q(1, 3, kappa))
    assert _block_count(H) >= 2
    _assert_matches_dense(H)


# periodic chains up to dim 256; N = 4 and 6 have orbits shorter than N
PERIODIC_SIZES = [(0.5, n) for n in range(2, 7)] + [(1.0, n) for n in range(2, 6)] \
    + [(1.5, n) for n in range(2, 5)]


def _rotated_couplings(rng):
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    M = rot @ np.diag(rng.uniform(-1.0, 1.0, 3)) @ rot.T
    return CsseCouplings(J1=M[0, 0], J2=M[1, 1], J3=M[2, 2],
                         J12=M[0, 1], J13=M[0, 2], J23=M[1, 2])


@settings(max_examples=60, deadline=None)
@given(size=st.sampled_from(PERIODIC_SIZES), kind=st.sampled_from(["xyz", "xxz", "csse"]),
       jx=couplings, jy=couplings, jz=couplings, seed=st.integers(0, 2 ** 32 - 1))
def test_momentum_blocks_of_periodic_chains(size, kind, jx, jy, jz, seed):
    S, N = size
    if kind == "csse":
        H = build_csse_chain(N, S, _rotated_couplings(np.random.default_rng(seed)))
    else:
        H = build_xyz_chain(N, S, jy if kind == "xxz" else jx, jy, jz)
    _assert_matches_dense(H)
    _, V, ks, record = _solve(H, vectors=True)
    assert record["symmetry"] == "translation"
    # with eigenvectors every block is solved, none copied
    assert record["copied_blocks"] == [] and sum(record["solved_blocks"]) == H.system.total_dim
    assert sorted(set(ks.tolist())) == list(range(N))
    # each eigenvector is a shift eigenvector with the momentum it is labelled by
    T = ref.translation_matrix(H.system)
    assert np.abs(T @ V - V * np.exp(2j * np.pi * ks / N)).max() <= 1e-10


def test_periodic_chain_is_solved_in_momentum_blocks():
    N = 10
    H = build_xyz_chain(N, 0.5, 0.7, 1.0, 0.3)
    dim = H.system.total_dim
    evals, _, _, record = _solve(H, vectors=False)
    assert record["symmetry"] == "translation"
    assert max(record["solved_blocks"]) <= math.ceil(dim / N) + N
    # every block is solved or copied: P splits both sectors, k = 6..9 copy k = 4..1
    assert sum(record["solved_blocks"]) + sum(record["copied_blocks"]) == dim
    assert record["complement"] == "split" and record["pairing"] == "conjugation"
    assert sum(record["copied_blocks"]) > 0 and len(record["solved_blocks"]) == 24
    assert record["blocks"] == [512, 512]       # the Sz-parity sectors of H
    assert np.abs(evals - np.linalg.eigvalsh(H.matrix.toarray())).max() <= 1e-10 * np.ptp(evals)


def _complement_blocks(H, labels):
    """(blocks, copied): the block sizes of the components of H under the
    digit complement P, and the sizes a values-only solve copies.  A
    component P maps to itself splits into its P = +1 and -1 subspaces,
    of (size +- fixed points)/2 states; a pair P swaps gives two blocks of
    the component size, one of them copied."""
    dim = labels.size
    flip = dim - 1 - np.arange(dim)
    blocks, copied = [], []
    for c in range(labels.max() + 1):
        members = labels == c
        image = labels[flip[np.argmax(members)]]
        if image == c:
            fixed = int(np.count_nonzero(members & (flip == np.arange(dim))))
            size = int(members.sum())
            blocks += [b for b in ((size + fixed) // 2, (size - fixed) // 2) if b]
        elif image > c:
            blocks += [int(members.sum())] * 2
            copied.append(int(members.sum()))
    return sorted(blocks), sorted(copied)


def test_open_chain_and_graph_keep_their_component_blocks():
    q = commensurate_q(1, 3, 0.5)
    for H, action in ((build_xyz_chain(7, 0.5, 0.7, 1.0, 0.3, periodic=False), "swap"),
                      (build_xyz_chain(6, 0.5, 0.7, 1.0, 0.3, periodic=False), "split"),
                      (build_on_graph(generate("square", 3, 3), 0.5, q), "swap")):
        real, labels = ref.blocks(H)
        blocks, copied = _complement_blocks(H, labels)
        for vectors in (False, True):
            _, V, _, record = _solve(H, vectors)
            assert record["symmetry"] == "none" and record["complement"] == action
            # the components of H, each split by P or paired with its image under P
            assert sorted(record["solved_blocks"] + record["copied_blocks"]) == blocks
            assert record["copied_blocks"] == ([] if vectors else copied)
            assert record["blocks"] == sorted(np.bincount(labels).tolist())
            assert record["solved_dtype"] == record["dtype"] == "float64" and real
        assert V.dtype == np.float64


@pytest.mark.parametrize("N, S, jx, jy, jz, periodic", [
    (5, 1.0, 0.06727955046631484, 0.06727955046631484, 1.0358923308807974e-160, True),
    (2, 1.0, 0.0, 1.25, 1.3663502658159292e-146, False),
])
def test_couplings_near_underflow_beside_order_one_ones(N, S, jx, jy, jz, periodic):
    # values-only LAPACK gave +-1.2269 for +-1.25 on a 4x4 block holding 1e-146 diagonals
    _assert_matches_dense(build_xyz_chain(N, S, jx, jy, jz, periodic=periodic))


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))   # self-loops, repeats
    return n, np.array([u for u, _ in edges], dtype=int), np.array([v for _, v in edges], dtype=int)


@settings(max_examples=300, deadline=None)
@given(graph=edge_lists())
@example(graph=(1, np.zeros(0, dtype=int), np.zeros(0, dtype=int)))
@example(graph=(5, np.array([3, 3, 1, 1]), np.array([3, 0, 0, 0])))
def test_components_match_csgraph(graph):
    n, a, b = graph
    want = connected_components(sp.csr_matrix((np.ones(a.size), (a, b)), (n, n)), directed=False)[1]
    assert np.array_equal(_components(n, a, b), want)


def test_components_of_a_path_in_descending_order():
    # every hook moves a root by one step: the slowest chain for min-label hooking
    n = 1000
    a = np.arange(n - 1)[::-1]
    assert np.array_equal(_components(n, a, a + 1), np.zeros(n, dtype=int))


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("S, N", [(0.5, 6), (1.0, 4), (1.5, 3)])
def test_solve_blocks_are_the_components_of_h(S, N, periodic):
    c = CsseCouplings(J1=0.3, J2=0.8, J3=0.1, J12=0.2, J13=-0.15, J23=0.25)
    for H, count in ((build_xyz_chain(N, S, 0.7, 1.0, 0.3, periodic=periodic), 2),  # Sz parity
                     (build_xyz_chain(N, S, 1.0, 1.0, 0.3, periodic=periodic),       # kappa = 0: Sz
                      round(2 * N * S) + 1),
                     (build_csse_chain(N, S, c, periodic=periodic), 1)):
        _, labels = ref.blocks(H)
        _, _, _, record = _solve(H, vectors=False)
        assert record["blocks"] == sorted(np.bincount(labels).tolist())
        assert len(record["blocks"]) == count


def _chain_with_field(N, S, M, field):
    """The periodic chain with exchange matrix M on every bond plus the
    uniform field sum_n field . S_n, as the operator of those terms."""
    one_site = sum(f * op for f, op in zip(field, local_spin_matrices(S)[:3]))
    terms = coupling_terms(*chain_couplings(N, M), S) + [((n,), one_site) for n in range(N)]
    return ManyBodyOperator(SpinSystem(S, N), terms)


# a Dzyaloshinskii-Moriya bond along x, antisymmetric: S^y_u S^z_v - S^z_u S^y_v
DM_X = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])


# (S, N) with 2SN even and odd, dims 16..256
EVEN_SIZES = [(0.5, 4), (0.5, 6), (1.0, 3), (1.0, 4), (1.5, 2), (1.5, 4)]
ODD_SIZES = [(0.5, 3), (0.5, 5), (0.5, 7), (1.5, 3)]
nonzero = st.floats(0.1, 1.5)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["xyz-even", "xyz-odd", "xxz", "csse-j12", "csse-j13",
                             "csse-j23", "dm-x", "open", "square", "xyz-field"]),
       size=st.data(), jx=couplings, jy=couplings, jz=couplings, j=nonzero)
def test_reduced_spectra_match_dense(kind, size, jx, jy, jz, j):
    S, N = size.draw(st.sampled_from(ODD_SIZES if kind == "xyz-odd" else
                                     EVEN_SIZES + ODD_SIZES if kind.startswith(("csse", "dm")) else
                                     EVEN_SIZES))
    if kind.startswith("csse"):
        coupling = {"csse-j12": "J12", "csse-j13": "J13", "csse-j23": "J23"}[kind]
        H = build_csse_chain(N, S, CsseCouplings(J1=jx, J2=jy, J3=jz, **{coupling: j}))
    elif kind == "dm-x":
        H = _chain_with_field(N, S, np.diag([jx, jy, jz]) + j * DM_X, (0.0, 0.0, 0.0))
    elif kind == "xyz-field":
        H = _chain_with_field(N, S, np.diag([jx, jy, jz]), (0.0, j, 0.0))
    elif kind == "square":
        H = build_on_graph(generate("square", 3, 3), 0.5, commensurate_q(1, 3, j / 1.6))
    else:                               # xxz is kappa = 0
        H = build_xyz_chain(N, S, jy if kind == "xxz" else jx, jy, jz, periodic=kind != "open")
    dense = H.matrix.toarray()
    want = np.linalg.eigvalsh(dense)
    tol = 1e-10 * max(1.0, float(want[-1] - want[0]))
    evals, _, _, record = _solve(H, vectors=False)
    assert np.abs(evals - want).max() <= tol
    assert sum(record["solved_blocks"]) + sum(record["copied_blocks"]) == H.system.total_dim
    evals, V, ks, vrecord = _solve(H, vectors=True)
    assert np.abs(evals - want).max() <= tol
    assert vrecord["copied_blocks"] == []
    assert np.abs(V.conj().T @ V - np.eye(len(evals))).max() <= 1e-10
    assert np.abs(V.conj().T @ dense @ V - np.diag(evals)).max() <= tol
    if record["symmetry"] == "translation":
        T = ref.translation_matrix(H.system)
        assert np.abs(T @ V - V * np.exp(2j * np.pi * ks / N)).max() <= 1e-10
    # which reductions the numerical tests found
    split, swap, both = "split", "swap", "split+swap"
    complement, pairing = {
        "xyz-even": ({split, both}, "conjugation"), "xyz-odd": ({swap}, "conjugation"),
        "xxz": ({swap, both}, "conjugation"),          # M <-> -M; 2SN even splits M = 0
        "csse-j12": ({"none"}, "time-reversal"),       # S_x S_y is odd under P, complex
        "csse-j13": ({"none"}, "conjugation"),         # S_x S_z is odd under P, real
        # S_y S_z is even under P and complex; time reversal maps sigma to (-1)^{2SN} sigma
        "csse-j23": ({split, swap, both}, "time-reversal"),
        # the same with no bond inversion to map k to -k at fixed sigma; on two
        # sites (2SN even) P maps each Sz-parity sector to itself
        "dm-x": ({split} if N == 2 else {split, swap, both}, "time-reversal"),
        "open": ({split, swap, both}, "conjugation"), "square": ({swap}, "conjugation"),
        # neither real nor time-reversal even, but the site reflection maps k to -k
        "xyz-field": ({"none"}, "reflection"),
    }[kind]
    assert record["complement"] in complement and record["pairing"] == pairing
    # the one bond of a two-site DM chain changes sign under the site swap
    symmetry = "none" if kind == "dm-x" and N == 2 else "translation"
    assert record["symmetry"] == symmetry or kind in ("open", "square")


@pytest.mark.parametrize("S", [0.5, 1.0, 1.5])
def test_two_site_dm_bond_has_no_translation(S):
    # the periodic two-site chain has one bond, and its DM part is odd under the
    # site swap, the one translation; jx = jy = jz = 0, j = 1 as hypothesis found it
    H = _chain_with_field(2, S, DM_X, (0.0, 0.0, 0.0))
    evals, _, _, record = _solve(H, vectors=False)
    assert (record["symmetry"], record["complement"], record["pairing"]) == \
        ("none", "split", "time-reversal")
    assert np.abs(evals - np.linalg.eigvalsh(H.matrix.toarray())).max() <= 1e-10


def test_chiral_chain_keeps_both_momenta():
    # XYZ + h S^y has equal k and -k spectra anyway: bond inversion maps k to -k.
    # A Dzyaloshinskii-Moriya bond plus a field off every axis breaks inversion,
    # conjugation and time reversal, so k and -k must be solved apart.
    N, S = 5, 0.5
    M = np.diag([0.7, 1.0, 0.3]) + np.array([[0.0, 0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    H = _chain_with_field(N, S, M, (0.3, 0.4, 0.5))
    evals, _, ks, record = _solve(H, vectors=False)
    assert record["pairing"] == "none" and record["copied_blocks"] == []
    assert np.abs(evals - np.linalg.eigvalsh(H.matrix.toarray())).max() <= 1e-10
    gap = max(np.abs(np.sort(evals[ks == k]) - np.sort(evals[ks == N - k])).max()
              for k in range(1, N))
    assert gap > 0.1


@st.composite
def _operators(draw, values=couplings):
    """An XYZ, CSSE or random-term operator on a small chain, its couplings drawn from values."""
    S, N = draw(st.sampled_from([(0.5, 2), (0.5, 4), (0.5, 6), (1.0, 3), (1.0, 4), (1.5, 3)]))
    kind = draw(st.sampled_from(["xyz", "csse", "random"]))
    if kind == "xyz":
        return build_xyz_chain(N, S, *draw(st.lists(values, min_size=3, max_size=3)))
    if kind == "csse":
        return build_csse_chain(N, S, CsseCouplings(*draw(st.lists(values, min_size=6,
                                                                     max_size=6))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = int(2 * S + 1)
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        sites = tuple(rng.permutation(N)[:draw(st.integers(1, min(2, N)))].tolist())
        op = rng.normal(size=(d ** len(sites),) * 2) * (rng.random((d ** len(sites),) * 2) < 0.5)
        terms.append((sites, op + 1j * rng.normal(size=op.shape) * draw(st.booleans())))
    return ManyBodyOperator(SpinSystem(S, N), terms)


@settings(max_examples=150, deadline=None)
@given(H=_operators(), which=st.sampled_from(["shift", "complement", "random"]),
       signed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_invariant_matches_the_scipy_form(H, which, signed, seed):
    from scarlab.spectra import _rotations
    dim = H.system.total_dim
    rot = _rotations(H.system)
    perm = {"shift": rot[1 % len(rot)], "complement": dim - 1 - rot[0],
            "random": np.random.default_rng(seed).permutation(dim)}[which]
    sign = ref._theta_signs(H.system) if signed else None
    assert ref._invariant(H.matrix, perm, sign) == ref.invariant(H.matrix, perm, sign)


@settings(max_examples=150, deadline=None)
@given(H=_operators(), seed=st.integers(0, 2 ** 32 - 1))
def test_column_read_matches_scipy_tocsc(H, seed):
    # _solve reads H's representative columns as its rows there, conjugated: for a
    # Hermitian H they are scipy's A.tocsc()[:, columns] bit for bit, in the same order
    from spinops_reference import as_scipy
    H = ManyBodyOperator(H.system, [(sites, op + op.conj().T) for sites, op in H.terms])
    cols = np.flatnonzero(np.random.default_rng(seed).random(H.system.total_dim) < 0.3)
    want = as_scipy(H.matrix).tocsc()[:, cols].tocoo()
    A = local_sum(H.system, H.terms, rows=cols)
    assert A.shape == (cols.size, H.system.total_dim)
    assert np.array_equal(A.indices, want.row) and np.array_equal(A.rows(), want.col)
    got = A.data.conj()        # equal to the bit but for the sign of a zero imaginary part
    assert got.dtype == want.data.dtype and np.array_equal(got, want.data)


@settings(max_examples=150, deadline=None)
@given(H=_operators(), seed=st.integers(0, 2 ** 32 - 1))
def test_max_gap_is_the_scipy_difference(H, seed):
    # B: A's entries relabelled by a permutation that is a symmetry, a random
    # one, or none, then some values moved and some entries dropped
    from spinops_reference import as_scipy
    A = H.matrix
    rng = np.random.default_rng(seed)
    dim = A.shape[0]
    perm = [np.arange(dim), rng.permutation(dim), dim - 1 - np.arange(dim)][seed % 3]
    keep = rng.random(A.nnz) < 0.9
    rows, cols = perm[A.rows()][keep], perm[A.indices][keep]
    vals = A.data[keep] + (rng.random(keep.sum()) < 0.2) * rng.normal(size=keep.sum())
    B = sp.csr_matrix((vals, (rows, cols)), shape=A.shape)
    assert ref.max_gap(A, rows, cols, vals) == abs(B - as_scipy(A)).max()


def _oracle_symmetries(H) -> dict:
    """The five symmetries of _symmetries by the CSR commutation test."""
    A, dim = H.matrix, H.system.total_dim
    flip = dim - 1 - np.arange(dim)
    return {"translation": ref._invariant(A, ref._rotations(H.system)[1 % H.system.N]),
            "complement": ref._invariant(A, flip),
            "reflection": ref._invariant(A, _mirrored(np.arange(dim), H.system.N,
                                                      H.system.local_dim)),
            "conjugation": ref._invariant(A, np.arange(dim), np.ones(dim)),
            "time-reversal": ref._invariant(A, flip, ref._theta_signs(H.system))}


# Zero or clear of the tolerances: a symmetry broken by 1e-12 of the largest entry reads
# either way, since the terms compare against their largest entry and the CSR against
# its own, where up to 2N terms add
clear = st.one_of(st.just(0.0), st.floats(1e-6, 2.0), st.floats(-2.0, -1e-6))


@st.composite
def _operators_of_every_kind(draw):
    """An operator of every kind the package makes: XYZ, XXZ, CSSE, open, field
    and DM chains, the square graph, and the random-term operators."""
    kind = draw(st.sampled_from(["xyz", "xxz", "csse", "open", "field", "dm", "square",
                                 "terms"]))
    if kind == "terms":
        return draw(_operators(clear))
    if kind == "square":
        return build_on_graph(generate("square", 3, 3), 0.5,
                              commensurate_q(1, 3, draw(st.floats(0.0, 0.95))))
    S, N = draw(st.sampled_from(EVEN_SIZES + ODD_SIZES))
    jx, jy, jz, j = (draw(clear) for _ in range(4))
    if kind == "csse":
        return build_csse_chain(N, S, CsseCouplings(*(draw(clear) for _ in range(6))))
    if kind in ("field", "dm"):
        M = np.diag([jx, jy, jz]) + (j * DM_X if kind == "dm" else 0.0)
        field = [draw(clear) for _ in range(3)] if kind == "field" else (0.0, 0.0, 0.0)
        return _chain_with_field(N, S, M, field)
    return build_xyz_chain(N, S, jy if kind == "xxz" else jx, jy, jz, periodic=kind != "open")


@settings(max_examples=200, deadline=None)
@given(H=_operators_of_every_kind())
def test_symmetries_from_the_terms_match_the_csr_oracle(H):
    assert _symmetries(H) == _oracle_symmetries(H)


REAL_BLOCK_SIZES = [(0.5, n) for n in range(2, 9)] + [(1.0, n) for n in range(2, 8)]


@pytest.mark.parametrize("S, N", REAL_BLOCK_SIZES)
def test_real_blocks_match_the_complex_path(monkeypatch, S, N):
    # Theta = R K (real H) or R Theta_T (2SN even) makes every block real; without R
    # the same blocks are solved complex, the path this replaced
    c = CsseCouplings(J1=0.3, J2=0.8, J3=0.1, J12=0.2, J13=-0.15, J23=0.25)
    read = spectra._symmetries
    for H, theta in ((build_xyz_chain(N, S, 0.7, 1.0, 0.3), True),
                     (build_xyz_chain(N, S, 1.0, 1.0, 0.3), True),            # XXZ
                     (build_xyz_chain(N, S, 0.7, 1.0, 0.3, periodic=False), True),
                     (build_csse_chain(N, S, c), round(2 * S * N) % 2 == 0)):
        evals, V, ks, record = _solve(H, vectors=True)
        values, _, _, vrecord = _solve(H, vectors=False)
        with monkeypatch.context() as m:
            m.setattr(spectra, "_symmetries", lambda H: {**read(H), "reflection": False})
            want = _solve(H, vectors=False)[0]
        tol = 1e-12 * max(1.0, want[-1] - want[0])
        assert np.abs(evals - want).max() <= tol and np.abs(values - want).max() <= tol
        assert record["solved_dtype"] == vrecord["solved_dtype"] == \
            ("float64" if theta else "complex128")
        dense = H.matrix.toarray()
        assert np.abs(V.conj().T @ V - np.eye(len(evals))).max() <= 1e-10
        assert np.abs(V.conj().T @ dense @ V - np.diag(evals)).max() <= 1e-10
        if record["symmetry"] == "translation":
            T = ref.translation_matrix(H.system)
            assert np.abs(T @ V - V * np.exp(2j * np.pi * ks / N)).max() <= 1e-10


def test_kramers_blocks_stay_complex():
    # 2SN odd: time reversal squares to -1 and no basis makes a block real
    c = CsseCouplings(J1=0.3, J2=0.8, J3=0.1, J12=0.2, J13=-0.15, J23=0.25)
    H = build_csse_chain(5, 1.5, c)
    evals, _, _, record = _solve(H, vectors=False)
    assert record["solved_dtype"] == "complex128" and record["pairing"] == "time-reversal"
    assert np.abs(evals - np.linalg.eigvalsh(H.matrix.toarray())).max() <= 1e-10


def test_periodic_chain_spectra_never_assemble_h(monkeypatch):
    built = []

    def chain(*args, **kwargs):
        built.append(build_xyz_chain(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(spectra, "build_xyz_chain", chain)
    row = scan_degeneracy([0.5], [8], 0.6, [1]).rows[0]
    assert row.count == 16 and row.solved_dtype == "float64"
    assert "matrix" not in vars(built[0])
    c = CsseCouplings(J1=0.3, J2=0.8, J3=0.1, J12=0.2, J13=-0.15, J23=0.25)
    H = build_csse_chain(6, 1.0, c)
    full_spectrum(H, vectors=False)
    assert "matrix" not in vars(H)


def test_reflection_pairs_the_momenta_of_a_chain_in_a_field():
    # XYZ + 0.4 sum S^y is neither real nor time-reversal even; R maps k to -k
    N, S = 5, 0.5
    H = _chain_with_field(N, S, np.diag([0.7, 1.0, 0.3]), (0.0, 0.4, 0.0))
    evals, _, ks, record = _solve(H, vectors=False)
    assert record["pairing"] == "reflection"
    assert sum(record["solved_blocks"]) + sum(record["copied_blocks"]) == 2 ** N
    assert sum(record["copied_blocks"]) == 2 ** N * 2 // N      # k = 3, 4 copy k = 2, 1
    assert np.abs(evals - np.linalg.eigvalsh(H.matrix.toarray())).max() <= 1e-10


# the tier-1 scar chains: S=1/2 N=3..10, S=1 N=3..7 at kappa 0.6 and p = 1
SCAR_CHAINS = [(0.5, n) for n in range(3, 11)] + [(1.0, n) for n in range(3, 8)]


@pytest.mark.parametrize("S, N", SCAR_CHAINS)
def test_values_first_window_matches_every_block_eigh(S, N):
    # with E, eigvalsh on every block (copies included), eigh only where E lies: the
    # count and the eigenspace equal those of eigh on every block, and the tol does
    # to a few ulp (eigvalsh and eigh round apart; 2e-15 relative on these chains)
    q = commensurate_q(1, N, 0.6)
    _, cn, dn = jacobi_fraction(q.fraction, q.modulus)
    H = build_xyz_chain(N, S, dn, 1.0, cn)
    E = gz_energy(N, S, q)
    evals, V, _, _ = _solve(H, True, E)
    every, W, _, _ = _solve(H, True)
    got, want = degeneracy_at(evals, E), degeneracy_at(every, E)
    assert got.count == want.count == V.shape[1] and abs(got.tol / want.tol - 1) <= 1e-14
    W = W[:, np.abs(every - E) <= want.tol]
    assert np.abs(V @ V.conj().T - W @ W.conj().T).max() <= 1e-10
