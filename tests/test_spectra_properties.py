"""Property tests: the block/real full_spectrum against a dense complex solve."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import spectra_reference as ref
from scarlab.elliptic import commensurate_q
from scarlab.frames import CsseCouplings
from scarlab.hamiltonian import build_csse_chain, build_on_graph, build_xyz_chain
from scarlab.lattice import generate
from scarlab.spectra import _components, _solve, _translation_matrix, full_spectrum

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
    assert sum(record["solved_blocks"]) == H.system.total_dim
    assert sorted(set(ks.tolist())) == list(range(N))
    # each eigenvector is a shift eigenvector with the momentum it is labelled by
    T = _translation_matrix(H.system)
    assert np.abs(T @ V - V * np.exp(2j * np.pi * ks / N)).max() <= 1e-10


def test_periodic_chain_is_solved_in_momentum_blocks():
    N = 10
    H = build_xyz_chain(N, 0.5, 0.7, 1.0, 0.3)
    dim = H.system.total_dim
    evals, _, _, record = _solve(H, vectors=False)
    assert record["symmetry"] == "translation"
    assert max(record["solved_blocks"]) <= math.ceil(dim / N) + N
    assert sum(record["solved_blocks"]) == dim
    assert record["blocks"] == [512, 512]       # the Sz-parity sectors of H
    assert np.abs(evals - np.linalg.eigvalsh(H.matrix.toarray())).max() <= 1e-10 * np.ptp(evals)


def test_open_chain_and_graph_keep_their_component_blocks():
    q = commensurate_q(1, 3, 0.5)
    for H in (build_xyz_chain(7, 0.5, 0.7, 1.0, 0.3, periodic=False),
              build_on_graph(generate("square", 3, 3), 0.5, q)):
        real, labels = ref.blocks(H)
        for vectors in (False, True):
            _, V, _, record = _solve(H, vectors)
            assert record["symmetry"] == "none"
            assert record["solved_blocks"] == sorted(np.bincount(labels).tolist())
            assert record["blocks"] == record["solved_blocks"]
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
