"""Two-flavor boson realization of the helical scar subspace."""

import math
from itertools import product as iter_product
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from spinops_reference import embed, two_site

from scarlab import schwinger
from scarlab.errors import DimensionCap, DimensionMismatch, InvalidSpin, SameSite, ScarlabError
from scarlab.schwinger import (DOWN, UP, FockBasis, annihilator_report, bilinear,
                               decomposition_check, tau_prime, zeta_states,
                               zeta_tower_fidelities)
from scarlab.spinops import SpinSystem, local_spin_matrices


def test_constrained_basis_is_spin_space():
    for (N, S) in [(3, 0.5), (2, 1.0), (2, 1.5)]:
        basis = FockBasis(N, S)
        system = SpinSystem(S, N)
        assert basis.dim == system.total_dim
        U = basis.spin_isometry()
        assert np.abs(U.T @ U - np.eye(basis.dim)).max() <= 1e-15


def test_spin_raising_maps_to_boson_hop():
    # S+_n on spins = c+_{n,up} c_{n,down} on the constrained Fock space
    N, S = 3, 1.0
    basis = FockBasis(N, S)
    system = SpinSystem(S, N)
    U = basis.spin_isometry()
    _, _, _, sp_, _ = local_spin_matrices(S)
    for n in range(N):
        spin_side = embed(sp_, n, system).toarray()
        boson_side = basis.monomial([(n, UP, True), (n, DOWN, False)]).toarray()
        assert np.abs(U @ boson_side @ U.T - spin_side).max() <= 1e-13


def test_monomial_respects_boson_statistics():
    basis = FockBasis(2, 1.0)
    # c+ c on the same mode must count the occupation
    num_up = basis.monomial([(0, UP, True), (0, UP, False)]).toarray()
    counts = [occ[0][0] for occ in basis.states]
    assert np.allclose(num_up, np.diag(counts), atol=1e-14)


def test_hardcore_projects_full_site_creation():
    basis = FockBasis(2, 0.5, mode="hardcore")
    vac = basis.vacuum_product()   # every site full with 2S down bosons
    created = basis.monomial([(0, DOWN, True)]) @ vac
    assert np.linalg.norm(created) == 0.0


@pytest.mark.parametrize("N,S,p", [(3, 0.5, 1), (4, 0.5, 1), (4, 1.0, 1), (5, 1.0, 2)])
def test_zeta_states_equal_rotated_tower(N, S, p):
    fids = zeta_tower_fidelities(N, S, p)
    assert max(abs(1.0 - f) for f in fids) <= 1e-12


def annihilation_chain(op, tp, vacuum, depth):
    """max_k ||ad_{tau'}^k(op) |vac>|| for k = 0..depth: the whole chain
    vanishes exactly when op annihilates every zeta-state."""
    cur = op.copy()
    worst = float(np.linalg.norm(cur @ vacuum))
    for _ in range(depth):
        cur = (cur @ tp - tp @ cur).tocsr()
        worst = max(worst, float(np.linalg.norm(cur @ vacuum)))
    return worst


@pytest.mark.parametrize("N,S", [(3, 0.5), (4, 0.5), (3, 1.0)])
def test_annihilation_chains(N, S):
    # the direct residuals on the zeta-states against the ad_{tau'} chain oracle
    rep = annihilator_report(N, S)
    assert rep["zeta"] <= 1e-12
    assert rep["eta"] <= 1e-12
    assert rep["epsilon"] <= 1e-12
    # a bare pair annihilator is not in the commutant: O(1) failure
    assert rep["generic"] > 1e-1
    basis = FockBasis(N, S, mode="hardcore")
    tp, vac, depth = tau_prime(basis), basis.vacuum_product(), int(round(2 * N * S)) + 1
    for kind in ("zeta", "eta", "epsilon"):
        assert annihilation_chain(bilinear(basis, kind, 0, 1), tp, vac, depth) <= 1e-12
    generic = basis.monomial([(0, UP, False), (1, DOWN, False)])
    assert annihilation_chain(generic, tp, vac, depth) > 1e-1


def test_zeta_annihilation_direct():
    res = annihilator_report(4, 0.5)
    assert max(res[kind] for kind in ("zeta", "eta", "epsilon")) <= 1e-12
    # the control is the direct norm of c_{0,up} c_{1,down} on the zeta-states
    hc = FockBasis(4, 0.5, mode="hardcore")
    _, zstates = zeta_states(4, 0.5, basis=hc)
    generic = hc.monomial([(0, UP, False), (1, DOWN, False)])
    assert res["generic"] == max(float(np.linalg.norm(generic @ z)) for z in zstates)


def test_symmetric_pair_combination_fails():
    # the flavor-symmetric pair annihilator does not kill the zeta-states
    N, S = 3, 0.5
    hc = FockBasis(N, S, mode="hardcore")
    _, zstates = zeta_states(N, S, basis=hc)
    sym = (hc.monomial([(0, UP, False), (1, DOWN, False)])
           + hc.monomial([(0, DOWN, False), (1, UP, False)]))
    worst = max(float(np.linalg.norm(sym @ z)) for z in zstates)
    assert worst > 1e-1


@pytest.mark.parametrize("N,S", [(3, 0.5), (4, 0.5), (3, 1.0)])
def test_decomposition_equals_rotated_chain(N, S):
    q0 = 2.0 * math.pi / N
    assert decomposition_check(N, S, q0) <= 1e-12


def test_identity_bond_sum():
    # (zeta_nm zeta_mn + eta+_nm eta_mn) / 4 = S_n . S_m + S/2 on the
    # constrained space, the scalar part of the decomposition
    N, S = 3, 0.5
    con = FockBasis(N, S)
    enl = FockBasis(N, S, mode="enlarged")
    E = con.embed_into(enl)
    U = con.spin_isometry()
    system = SpinSystem(S, N)
    sx, sy, sz, _, _ = local_spin_matrices(S)
    n, m = 0, 1
    boson = (bilinear(enl, "zeta", n, m) @ bilinear(enl, "zeta", m, n)
             + bilinear(enl, "eta", n, m).conj().T @ bilinear(enl, "eta", m, n))
    lhs = U @ (E.T @ (boson / 4.0) @ E).toarray() @ U.T
    rhs = (two_site(sx, n, sx, m, system) + two_site(sy, n, sy, m, system)
           + two_site(sz, n, sz, m, system)).toarray() + 0.5 * S * np.eye(8)
    assert np.abs(lhs - rhs).max() <= 1e-13


def test_guards():
    with pytest.raises(SameSite):
        bilinear(FockBasis(2, 0.5), "zeta", 1, 1)
    with pytest.raises(ScarlabError):
        bilinear(FockBasis(2, 0.5), "bogus", 0, 1)
    with pytest.raises(ScarlabError):
        FockBasis(2, 0.5, mode="bogus")
    with pytest.raises(ScarlabError):
        FockBasis(2, 0.5, mode="hardcore").spin_isometry()
    with pytest.raises(InvalidSpin):
        FockBasis(3, 0.7)


# reference: the per-state loop over tuple occupations that FockBasis replaced

_SITE_CAP_SLACK = {"constrained": (0, 0), "hardcore": (0, 2), "enlarged": (2, 2)}


def _reference_states(N, S, mode):
    """itertools.product over site occupations, filtered by the global total."""
    two_s = int(round(2 * S))
    extra, slack = _SITE_CAP_SLACK[mode]
    site_cap = two_s + extra
    site_occ = [(u, t - u) for t in range(site_cap + 1) for u in range(t + 1)]
    lo, hi = two_s * N - slack, two_s * N + slack
    return [combo for combo in iter_product(site_occ, repeat=N)
            if lo <= sum(u + d for u, d in combo) <= hi]


def _reference_monomial(states, ops):
    index = {s: i for i, s in enumerate(states)}
    rows, cols, vals = [], [], []
    for j, occ in enumerate(states):
        amp = 1.0
        work = [list(site) for site in occ]
        dead = False
        for site, flavor, dagger in reversed(list(ops)):
            cnt = work[site][flavor]
            if dagger:
                amp *= math.sqrt(cnt + 1)
                work[site][flavor] = cnt + 1
            else:
                if cnt == 0:
                    dead = True
                    break
                amp *= math.sqrt(cnt)
                work[site][flavor] = cnt - 1
        if dead:
            continue
        i = index.get(tuple(tuple(site) for site in work))
        if i is None:
            continue
        rows.append(i)
        cols.append(j)
        vals.append(amp)
    dim = len(states)
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def _assert_same_csr(a, b):
    assert a.dtype == b.dtype and a.indices.dtype == b.indices.dtype
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("mode", ["constrained", "hardcore", "enlarged"])
@pytest.mark.parametrize("S", [0.5, 1.0, 1.5])
def test_vectorized_basis_matches_per_state_reference(mode, S):
    rng = np.random.default_rng(int(4 * S) + 10 * len(mode))
    two_s = int(round(2 * S))
    cap = two_s + _SITE_CAP_SLACK[mode][0]
    for N in (2, 3, 4) if S < 1.5 else (2, 3):
        basis = FockBasis(N, S, mode)
        ref = _reference_states(N, S, mode)
        assert np.array_equal(basis.states, np.array(ref).reshape(len(ref), N, 2))
        assert basis.states.dtype == np.int8    # the amplitudes below stay float64
        strings = [
            [],
            [(0, UP, True)] * (cap + 1),                  # creation past site_cap
            [(0, UP, True), (0, UP, False), (0, UP, False)],  # repeated factor
            [(N - 1, DOWN, False)] * (two_s + 1),         # annihilates past empty
            [(1, UP, False), (1, UP, True), (0, DOWN, True), (0, DOWN, True)],
        ]
        for _ in range(25):
            strings.append([(int(rng.integers(N)), int(rng.integers(2)), bool(rng.integers(2)))
                            for _ in range(int(rng.integers(1, 6)))])
        for ops in strings:
            _assert_same_csr(basis.monomial(ops), _reference_monomial(ref, ops))
        vac = np.zeros(basis.dim, dtype=complex)
        vac[ref.index(((0, two_s),) * N)] = 1.0
        got = basis.vacuum_product()
        assert got.dtype == vac.dtype and np.array_equal(got, vac)


@pytest.mark.parametrize("N,S", [(3, 0.5), (2, 1.0), (2, 1.5)])
def test_embed_into_matches_reference(N, S):
    small, big = FockBasis(N, S), FockBasis(N, S, mode="enlarged")
    big_ref = _reference_states(N, S, "enlarged")
    index = {s: i for i, s in enumerate(big_ref)}
    rows = [index[occ] for occ in _reference_states(N, S, "constrained")]
    ref = sp.csr_matrix((np.ones(small.dim), (rows, range(small.dim))),
                        shape=(big.dim, small.dim))
    _assert_same_csr(small.embed_into(big), ref)


def test_key_overflow_and_missing_states_raise():
    # 2^(2N) occupation keys overflow int64 at N=32: refused before any allocation
    with pytest.raises(DimensionCap):
        FockBasis(32, 0.5)
    # enlarged states with a site total above 2S are not in the constrained basis
    with pytest.raises(DimensionMismatch):
        FockBasis(2, 0.5, mode="enlarged").embed_into(FockBasis(2, 0.5))


@pytest.mark.parametrize("N,S,q0", [(5, 0.5, 2 * math.pi / 5), (4, 1.0, 0.7)])
def test_decomposition_check_computes_each_bond_monomial_once(monkeypatch, N, S, q0):
    calls = []
    raw = FockBasis.monomial

    def counted(self, ops):
        calls.append(tuple(ops))
        return raw(self, ops)

    monkeypatch.setattr(FockBasis, "monomial", counted)
    memoized = decomposition_check(N, S, q0)
    # 10 bilinears of 2 monomials per bond, 6 of which O1 and O2 repeat
    assert len(calls) == 14 * N and len(set(calls)) == len(calls)
    # reference: every bilinear straight from the basis, 20 monomials per bond
    monkeypatch.setattr(schwinger, "functools", SimpleNamespace(cache=lambda fn: fn))
    calls.clear()
    assert decomposition_check(N, S, q0) == memoized
    assert len(calls) == 20 * N
