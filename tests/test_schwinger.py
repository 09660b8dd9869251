"""Two-flavor boson realization of the helical scar subspace."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hamiltonian_reference import chain_bonds
from schwinger_reference import (SITE_CAP_SLACK, EnlargedBasis, embed_into,
                                 enlarged_bilinear_form, reference_bilinear, reference_states)
from spinops_reference import as_scipy, embed, two_site

from scarlab import schwinger
from scarlab.errors import DimensionCap, DimensionMismatch, InvalidSpin, SameSite, ScarlabError
from scarlab.schwinger import (DOWN, UP, FockBasis, annihilator_report, bilinear,
                               bilinear_form, decomposition_check, tau_prime, zeta_states,
                               zeta_tower_fidelities)
from scarlab.spinops import MEMORY_BUDGET, SpinSystem, local_spin_matrices


def test_constrained_basis_is_spin_space():
    for (N, S) in [(3, 0.5), (2, 1.0), (2, 1.5)]:
        basis = FockBasis(N, S)
        system = SpinSystem(S, N)
        assert basis.dim == system.total_dim
        # the bijection is a permutation of the spin product basis
        assert np.array_equal(np.sort(basis.spin_index()), np.arange(system.total_dim))


def test_spin_raising_maps_to_boson_hop():
    # S+_n on spins = c+_{n,up} c_{n,down} on the constrained Fock space
    N, S = 3, 1.0
    basis = FockBasis(N, S)
    system = SpinSystem(S, N)
    index = basis.spin_index()
    _, _, _, sp_, _ = local_spin_matrices(S)
    for n in range(N):
        spin_side = embed(sp_, n, system).toarray()[np.ix_(index, index)]
        boson_side = basis.monomial([(n, UP, True), (n, DOWN, False)]).toarray()
        assert np.abs(boson_side - spin_side).max() <= 1e-13


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
    tp, vac, depth = as_scipy(tau_prime(basis)), basis.vacuum_product(), int(round(2 * N * S)) + 1
    for kind in ("zeta", "eta", "epsilon"):
        assert annihilation_chain(as_scipy(bilinear(basis, kind, 0, 1)), tp, vac, depth) <= 1e-12
    generic = as_scipy(basis.monomial([(0, UP, False), (1, DOWN, False)]))
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
    sym = (as_scipy(hc.monomial([(0, UP, False), (1, DOWN, False)]))
           + as_scipy(hc.monomial([(0, DOWN, False), (1, UP, False)])))
    worst = max(float(np.linalg.norm(sym @ z)) for z in zstates)
    assert worst > 1e-1


@pytest.mark.parametrize("N,S", [(3, 0.5), (4, 0.5), (3, 1.0)])
def test_decomposition_equals_rotated_chain(N, S):
    q0 = 2.0 * math.pi / N
    assert decomposition_check(N, S, q0) <= 1e-12


def test_identity_bond_sum():
    # (zeta_nm zeta_mn + eta+_nm eta_mn) / 4 = S_n . S_m + S/2 on the
    # constrained space, the scalar part of the decomposition: the composed
    # monomials of one bond at q0 = 0, where the current block vanishes
    n, m = 0, 1
    terms = schwinger._bond_monomials(n, m, 0.0, 1.0)
    assert all(len(ops) == 4 for ops in terms)
    for N, S in [(3, 0.5), (3, 1.0)]:
        con = FockBasis(N, S)
        system = SpinSystem(S, N)
        sx, sy, sz, _, _ = local_spin_matrices(S)
        boson = sum(c * as_scipy(con.monomial(ops)) for ops, c in terms.items()).toarray()
        index = con.spin_index()
        rhs = (two_site(sx, n, sx, m, system) + two_site(sy, n, sy, m, system)
               + two_site(sz, n, sz, m, system)).toarray()[np.ix_(index, index)]
        assert np.abs(boson - rhs - 0.5 * S * np.eye(con.dim)).max() <= 1e-13


@pytest.mark.parametrize("N,S", [(3, 0.5), (4, 0.5), (5, 0.5), (3, 1.0), (4, 1.0), (3, 1.5)])
@pytest.mark.parametrize("q0", ["2pi/N", 0.7])
def test_bilinear_form_matches_enlarged_basis_oracle(N, S, q0):
    # the composed monomials on the constrained states against the products
    # of bilinears on the enlarged basis, restricted by its inclusion matrix
    q0 = 2.0 * math.pi / N if q0 == "2pi/N" else q0
    bonds = [tuple(b) for b in chain_bonds(N, True)]
    got = bilinear_form(FockBasis(N, S), bonds, q0).toarray()
    assert np.abs(got - enlarged_bilinear_form(N, S, bonds, q0)).max() <= 1e-13


@pytest.mark.parametrize("kind", ["zeta", "eta", "epsilon", "O1", "O2"])
def test_bilinear_table_matches_the_written_out_sums(kind):
    basis = FockBasis(3, 1.0, mode="hardcore")
    for m, n in ((0, 1), (2, 0)):
        got, ref = bilinear(basis, kind, m, n), reference_bilinear(basis, kind, m, n)
        assert np.abs((as_scipy(got) - ref).toarray()).max() == 0.0


def test_guards():
    with pytest.raises(SameSite):
        bilinear(FockBasis(2, 0.5), "zeta", 1, 1)
    with pytest.raises(ScarlabError):
        bilinear(FockBasis(2, 0.5), "bogus", 0, 1)
    for mode in ("bogus", "enlarged"):
        with pytest.raises(ScarlabError):
            FockBasis(2, 0.5, mode=mode)
    with pytest.raises(ScarlabError):
        FockBasis(2, 0.5, mode="hardcore").spin_index()
    with pytest.raises(InvalidSpin):
        FockBasis(3, 0.7)


# reference: the per-state loop over tuple occupations that FockBasis replaced

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


@pytest.mark.parametrize("mode", ["constrained", "hardcore"])
@pytest.mark.parametrize("S", [0.5, 1.0, 1.5])
def test_vectorized_basis_matches_per_state_reference(mode, S):
    rng = np.random.default_rng(int(4 * S) + 10 * len(mode))
    two_s = int(round(2 * S))
    cap = two_s + SITE_CAP_SLACK[mode][0]
    for N in (2, 3, 4) if S < 1.5 else (2, 3):
        basis = FockBasis(N, S, mode)
        ref = reference_states(N, S, mode)
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
    # the oracle's inclusion of the constrained states in the enlarged basis
    small, big = FockBasis(N, S), EnlargedBasis(N, S)
    big_ref = reference_states(N, S, "enlarged")
    index = {s: i for i, s in enumerate(big_ref)}
    rows = [index[occ] for occ in reference_states(N, S, "constrained")]
    ref = sp.csr_matrix((np.ones(small.dim), (rows, range(small.dim))),
                        shape=(big.dim, small.dim))
    _assert_same_csr(embed_into(small, big), ref)


def test_key_overflow_and_missing_states_raise():
    # 2^(2N) occupation keys overflow int64 at N=32: refused before any allocation
    with pytest.raises(DimensionCap):
        FockBasis(32, 0.5)
    # enlarged states with a site total above 2S are not in the constrained basis
    with pytest.raises(DimensionMismatch):
        embed_into(EnlargedBasis(2, 0.5), FockBasis(2, 0.5))


def test_basis_over_the_memory_budget_raises_before_enumerating():
    # 2^26 constrained states: 8.5 GiB of occupations and keys, where only the
    # int64 key overflow at N=32 stopped the enumeration before
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCap) as err:
            FockBasis(26, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == ("the 67,108,864 states of the N=26 S=0.5 constrained basis would "
                              f"take 8.5 GiB, over the {MEMORY_BUDGET / 2 ** 30:g} GiB memory "
                              "budget")
    assert peak < 2 ** 20


@pytest.mark.parametrize("N,S,q0", [(5, 0.5, 2 * math.pi / 5), (4, 1.0, 0.7)])
def test_decomposition_check_computes_each_bond_monomial_once(monkeypatch, N, S, q0):
    calls = []
    raw = FockBasis.monomial

    def counted(self, ops):
        calls.append(tuple(ops))
        return raw(self, ops)

    monkeypatch.setattr(FockBasis, "monomial", counted)
    assert decomposition_check(N, S, q0) <= 1e-12
    # 6 products of two bilinears, 4 composed four-factor monomials each; 2 of
    # O1_nm zeta_mn's are zeta_nm zeta_mn's, so 22 distinct per bond
    assert len(calls) == 22 * N and len(set(calls)) == len(calls)
    assert all(len(ops) == 4 for ops in calls)
