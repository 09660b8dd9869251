"""Two-flavor boson realization of the helical scar subspace."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hamiltonian_reference import chain_bonds
from schwinger_reference import (SITE_CAP_SLACK, embed_into, enlarged_bilinear_form,
                                 hardcore_annihilator_report, hardcore_zeta_states, keyed,
                                 reference_bilinear, reference_states)
from spinops_reference import as_scipy, embed, two_site

from scarlab import schwinger, spinops
from scarlab.errors import DimensionCap, DimensionMismatch, InvalidInput, InvalidSpin
from scarlab.schwinger import (DOWN, UP, FockBasis, _bond_monomials, _monomials,
                               _rotated_spin_hamiltonian, annihilator_report, decomposition_check,
                               rotated_tower_states, tau_prime, zeta_states, zeta_tower_fidelities)
from scarlab.scar import helical_tower, hypergeometric_weights
from scarlab.spinops import MEMORY_BUDGET, SpinSystem, local_spin_matrices, local_sum


def _digits(s, N, d):
    return [s // d ** n % d for n in range(N)]


def test_constrained_basis_is_spin_space():
    # the constrained states, each once, numbered by spin index: row s holds
    # n_down = the digits of s (site 0 least significant) and n_up = 2S - them
    for (N, S) in [(3, 0.5), (5, 0.5), (2, 1.0), (4, 1.0), (2, 1.5), (3, 1.5)]:
        basis = FockBasis(N, S)
        two_s = int(round(2 * S))
        assert basis.dim == SpinSystem(S, N).total_dim
        rows = [tuple(map(tuple, occ)) for occ in basis.states.tolist()]
        assert len(set(rows)) == basis.dim
        assert set(rows) == set(reference_states(N, S, "constrained"))
        for s, occ in enumerate(basis.states.tolist()):
            assert [down for _, down in occ] == _digits(s, N, two_s + 1)
            assert all(up + down == two_s for up, down in occ)


def test_spin_raising_maps_to_boson_hop():
    # S+_n on spins = c+_{n,up} c_{n,down} on the constrained Fock space, index for index
    N, S = 3, 1.0
    basis = FockBasis(N, S)
    system = SpinSystem(S, N)
    _, _, _, sp_, _ = local_spin_matrices(S)
    for n in range(N):
        spin_side = embed(sp_, n, system).toarray()
        boson_side = basis.monomial([(n, UP, True), (n, DOWN, False)]).toarray()
        assert np.abs(boson_side - spin_side).max() <= 1e-13


def test_monomial_respects_boson_statistics():
    basis = FockBasis(2, 1.0)
    # c+ c on the same mode must count the occupation
    num_up = basis.monomial([(0, UP, True), (0, UP, False)]).toarray()
    counts = [occ[0][0] for occ in basis.states]
    assert np.allclose(num_up, np.diag(counts), atol=1e-14)


def test_hardcore_projects_full_site_creation():
    # creation on a full site: the keyed hardcore oracle projects it to zero,
    # and on every state it raises site 0's total, which annihilator_report drops
    hc = keyed(2, 0.5, "hardcore")
    assert np.linalg.norm(as_scipy(hc.monomial([(0, DOWN, True)])) @ hc.vacuum_product()) == 0.0
    basis = FockBasis(2, 0.5)
    cols, rows, amp, change = basis._images([(0, DOWN, True)])
    assert np.array_equal(cols, np.arange(basis.dim)) and list(change) == [1, 0]
    assert basis.monomial([(0, DOWN, True)]).nnz == 0


@pytest.mark.parametrize("N,S,p", [(3, 0.5, 1), (4, 0.5, 1), (4, 1.0, 1), (5, 1.0, 2)])
def test_zeta_states_equal_rotated_tower(N, S, p):
    fids = zeta_tower_fidelities(N, S, p)
    assert max(abs(1.0 - f) for f in fids) <= 1e-12


@pytest.mark.parametrize("N,S,p", [(5, 0.5, 1), (4, 1.0, 2), (3, 1.5, 1)])
def test_rotated_states_are_the_phased_helical_tower_bit_for_bit(N, S, p):
    q0 = 2.0 * math.pi * p / N
    sz = local_spin_matrices(S)[2]
    angle = local_sum(SpinSystem(S, N), [((n,), (n + 1) * q0 * sz) for n in range(N)]).diagonal()
    want = [np.exp(1j * angle) * st.amplitudes for st in helical_tower(N, S, +1, p).states]
    got = list(rotated_tower_states(N, S, p))
    assert len(got) == len(want) == int(round(2 * N * S)) + 1
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_zeta_tower_fidelities_peak_within_their_charged_bytes():
    # the rotated states are compared as they come, so the zeta tower's build
    # is the peak; holding the helical tower and its phased copies took it to
    # 64 B per amplitude of one tower here
    N, S = 12, 0.5
    tracemalloc.start()
    try:
        fids = zeta_tower_fidelities(N, S, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(abs(1.0 - f) for f in fids) <= 1e-12
    assert peak <= 56 * (2 * N * S + 1) * 2 ** N


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
    # the direct residuals on the zeta-states against the ad_{tau'} chain
    # oracle on the keyed hardcore basis
    rep = annihilator_report(N, S)
    assert rep["zeta"] <= 1e-12
    assert rep["eta"] <= 1e-12
    assert rep["epsilon"] <= 1e-12
    # a bare pair annihilator is not in the commutant: O(1) failure
    assert rep["generic"] > 1e-1
    hc = keyed(N, S, "hardcore")
    tp = sum(as_scipy(hc.monomial([(n, UP, True), (n, DOWN, False)])) for n in range(N)).tocsr()
    vac, depth = hc.vacuum_product(), int(round(2 * N * S)) + 1
    for kind in ("zeta", "eta", "epsilon"):
        assert annihilation_chain(reference_bilinear(hc, kind, 0, 1), tp, vac, depth) <= 1e-12
    generic = as_scipy(hc.monomial([(0, UP, False), (1, DOWN, False)]))
    assert annihilation_chain(generic, tp, vac, depth) > 1e-1


def test_zeta_annihilation_direct():
    res = annihilator_report(4, 0.5)
    assert max(res[kind] for kind in ("zeta", "eta", "epsilon")) <= 1e-12
    # the control is the direct norm of c_{0,up} c_{1,down} on the hardcore zeta-states
    hc, zstates = hardcore_zeta_states(4, 0.5)
    generic = as_scipy(hc.monomial([(0, UP, False), (1, DOWN, False)]))
    assert abs(res["generic"] - max(float(np.linalg.norm(generic @ z)) for z in zstates)) <= 1e-15


@pytest.mark.parametrize("N,S", [(N, 0.5) for N in range(3, 9)]
                         + [(N, 1.0) for N in range(3, 6)] + [(3, 1.5), (4, 1.5)])
def test_annihilator_report_matches_the_keyed_hardcore_oracle(N, S):
    got, want = annihilator_report(N, S), hardcore_annihilator_report(N, S)
    assert got.keys() == want.keys()
    assert all(abs(got[kind] - want[kind]) <= 1e-15 for kind in want), (got, want)


@settings(max_examples=60, deadline=None)
@given(two_s=st.integers(1, 6), a=st.integers(0, 3000), pair=st.booleans())
def test_hypergeometric_weights_sum_to_one_over_each_total(two_s, a, pair):
    # the shared weights at the widths of both callers: 2S (a tower step) and
    # 4S (two sites against the rest); each total m = j + k splits with weight 1
    b = 2 * two_s if pair else two_s
    w = next(hypergeometric_weights(b, [a]))
    assert w.shape == (b + 1, a + 1)
    total = np.zeros(a + b + 1)
    for k in range(b + 1):
        total[k:k + a + 1] += w[k]
    assert np.abs(total - 1.0).max() <= 1e-13


@pytest.mark.parametrize("a, b", [(9, 6), (200, 6), (10_000, 4)])
def test_hypergeometric_weights_are_the_exact_rationals(a, b):
    # the sums of log rising factorials were 3.6e-15, 9.9e-15 and 1.2e-14 off here;
    # (a + b)^b passes 2^53 at (10^4, 4), where the products are Python integers
    w = next(hypergeometric_weights(b, [a]))
    js = range(0, a + 1, max(1, a // 400))       # every j up to a = 400, a sample beyond
    exact = np.array([[float(Fraction(math.comb(b, k) * math.comb(a, j),
                                      math.comb(a + b, j + k))) for j in js] for k in range(b + 1)])
    assert np.all(np.abs(w[:, js] - exact) <= 2 * np.spacing(exact))


def test_both_bilinear_checks_at_ten_thousand_sites():
    # two sites and 10^4 + 1 weights, no (2S+1)^N array: at S=1/2 the control
    # is max_m sqrt(m (N - m) / (N (N - 1))), sqrt(N / (4 (N - 1))) at m = N/2
    N = 10_000
    tracemalloc.start()
    try:
        rep = annihilator_report(N, 0.5)
        dcp = decomposition_check(N, 0.5, 2 * math.pi / N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["zeta"] == rep["eta"] == rep["epsilon"] == 0.0
    assert abs(rep["generic"] - math.sqrt(N / (4 * (N - 1)))) <= 1e-15
    assert dcp <= 1e-14 and peak < 2 ** 22


def test_annihilator_report_needs_two_sites(monkeypatch):
    # library input: the bilinears act on sites 0 and 1, refused before any work
    monkeypatch.setattr(schwinger, "zeta_states", lambda N, S: pytest.fail("work started"))
    for N in (0, 1):
        with pytest.raises(InvalidInput, match=f"need N >= 2 sites, got N={N}"):
            annihilator_report(N, 0.5)


def test_symmetric_pair_combination_fails():
    # the flavor-symmetric pair annihilator does not kill the zeta-states
    N, S = 3, 0.5
    basis, zstates = zeta_states(N, S)
    worst = 0.0
    for z in zstates:
        out = np.zeros(basis.dim, dtype=complex)
        for ops in ([(0, UP, False), (1, DOWN, False)], [(0, DOWN, False), (1, UP, False)]):
            cols, rows, amp, change = basis._images(ops)
            assert list(change) == [-1, -1, 0]
            out[rows] += amp * z[cols]
        worst = max(worst, float(np.linalg.norm(out)))
    assert worst > 1e-1


@pytest.mark.parametrize("N,S", [(3, 0.5), (4, 0.5), (3, 1.0)])
def test_decomposition_equals_rotated_chain(N, S):
    q0 = 2.0 * math.pi / N
    assert decomposition_check(N, S, q0) <= 1e-12


@pytest.mark.parametrize("S", [0.5, 1.0, 1.5, 2.0])
def test_decomposition_check_fails_off_the_identity(monkeypatch, S):
    # the bond gap: the spin bond at q0 + 0.1 against the bilinears at q0
    assert decomposition_check(5, S, 0.7) <= 1e-14
    raw = schwinger._rotated_spin_hamiltonian
    with monkeypatch.context() as m:
        m.setattr(schwinger, "_rotated_spin_hamiltonian", lambda N, S, q0: raw(N, S, q0 + 0.1))
        assert decomposition_check(5, S, 0.7) > 1e-2
    # the telescoping: N = 2 has the one bond (0, 1), so a (Sz_0 - Sz_1) stays
    assert decomposition_check(2, S, 0.7) == (2 * S + 0.5) * math.sin(0.7) * S * 2


def test_identity_bond_sum():
    # (zeta_nm zeta_mn + eta+_nm eta_mn) / 4 = S_n . S_m + S/2 on the
    # constrained space, the scalar part of the decomposition: the composed
    # monomials of one bond at q0 = 0, where the current block vanishes
    n, m = 0, 1
    terms = schwinger._bond_monomials(n, m, 0.0)
    assert all(len(ops) == 4 for ops in terms)
    for N, S in [(3, 0.5), (3, 1.0)]:
        con = FockBasis(N, S)
        system = SpinSystem(S, N)
        sx, sy, sz, _, _ = local_spin_matrices(S)
        boson = sum(c * as_scipy(con.monomial(ops)) for ops, c in terms.items()).toarray()
        rhs = (two_site(sx, n, sx, m, system) + two_site(sy, n, sy, m, system)
               + two_site(sz, n, sz, m, system)).toarray()
        assert np.abs(boson - rhs - 0.5 * S * np.eye(con.dim)).max() <= 1e-13


@pytest.mark.parametrize("N,S", [(3, 0.5), (4, 0.5), (5, 0.5), (3, 1.0), (4, 1.0), (3, 1.5)])
@pytest.mark.parametrize("q0", ["2pi/N", 0.7])
def test_bilinear_form_matches_enlarged_basis_oracle(N, S, q0):
    # bond (0, 1)'s composed monomials on the two-site constrained states
    # against the products of bilinears on the enlarged basis, restricted by
    # its inclusion matrix; the oracle carries the -S cos(q0)/2 share
    q0 = 2.0 * math.pi / N if q0 == "2pi/N" else q0
    got = FockBasis(2, S).monomial_sum((c, ops) for ops, c in _bond_monomials(0, 1, q0).items())
    want = enlarged_bilinear_form(2, S, [(0, 1)], q0) + S * math.cos(q0) / 2.0 * np.eye(got.shape[0])
    assert np.abs(got.toarray() - want).max() <= 1e-13
    # the local-to-global step: on the d^N states the ring's bilinear form is
    # the rotated ring itself, its bonds' a (Sz_n - Sz_m) remainders cancelled
    bonds = [tuple(b) for b in chain_bonds(N, True)]
    ring = _rotated_spin_hamiltonian(N, S, q0).matrix.toarray()
    assert np.abs(enlarged_bilinear_form(N, S, bonds, q0) - ring).max() <= 1e-12


@pytest.mark.parametrize("kind", ["zeta", "eta", "epsilon", "O1", "O2"])
def test_bilinear_table_matches_the_written_out_sums(kind):
    # the (sign, ops) table behind the annihilator and the bond products,
    # summed on the keyed hardcore oracle, against the written-out bilinears
    basis = keyed(3, 1.0, "hardcore")
    for m, n in ((0, 1), (2, 0)):
        got = sum(sign * as_scipy(basis.monomial(ops)) for sign, ops in _monomials(kind, m, n))
        ref = reference_bilinear(basis, kind, m, n)
        assert np.abs((got - ref).toarray()).max() == 0.0


def test_guards():
    with pytest.raises(InvalidSpin):
        FockBasis(3, 0.7)
    with pytest.raises(TypeError):
        FockBasis(2, 0.5, mode="hardcore")      # one basis: the constrained states


def test_traced_names_stay():
    # the benchmark's tracer wraps FockBasis.monomial and reads the basis's .dim
    assert callable(FockBasis.monomial)
    basis = FockBasis(3, 0.5)
    assert type(basis.dim) is int and basis.dim == 8


@pytest.mark.parametrize("N,S", [(5, 0.5), (4, 1.0), (3, 1.5)])
def test_tau_prime_is_the_sum_with_zero_identity_slots_bit_for_bit(N, S):
    # the oracle lists a zero identity first: tau' is off the diagonal, so those
    # slots sum to stored zeros that coo_csr drops, and no entry of tau' moves
    basis = FockBasis(N, S)
    states = np.arange(basis.dim)
    parts = [(states, states, np.zeros(basis.dim))]
    for n in range(N):
        term = basis.monomial([(n, UP, True), (n, DOWN, False)])
        parts.append((term.rows(), term.indices, term.data))
    rows, cols, vals = (np.concatenate(column) for column in zip(*parts))
    _assert_same_csr(tau_prime(basis), spinops.coo_csr(rows, cols, vals, (basis.dim, basis.dim)))


def test_every_budget_check_stops_before_any_monomial(monkeypatch):
    # a budget between the basis's bytes and each later step's: the step's own
    # check stops it before any monomial is built
    calls = []
    monkeypatch.setattr(FockBasis, "monomial", lambda self, ops: calls.append(ops))
    N, S = 6, 0.5
    monkeypatch.setattr(spinops, "MEMORY_BUDGET", 2 ** 6 * (2 * N + 32))
    FockBasis(N, S)
    with pytest.raises(DimensionCap, match="the zeta tower of 7 states of"):
        zeta_tower_fidelities(N, S, 1)
    assert calls == []
    monkeypatch.setattr(spinops, "MEMORY_BUDGET", 2 ** 6 * (2 * N + 32) - 1)
    with pytest.raises(DimensionCap, match="the 64 states of the N=6 S=0.5 basis"):
        FockBasis(N, S)


# reference: the per-state loop over tuple occupations that FockBasis replaced

def _reference_images(states, ops):
    """(column, final occupation, amplitude) of every state ops does not annihilate."""
    out = []
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
        if not dead:
            out.append((j, tuple(tuple(site) for site in work), amp))
    return out


def _reference_monomial(states, ops):
    index = {s: i for i, s in enumerate(states)}
    hits = [(index[occ], j, amp) for j, occ, amp in _reference_images(states, ops) if occ in index]
    rows, cols, vals = zip(*hits) if hits else ((), (), ())
    dim = len(states)
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def _assert_same_csr(a, b):
    assert a.dtype == b.dtype and a.indices.dtype == b.indices.dtype
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def _strings(N, two_s, cap, rng):
    strings = [
        [],
        [(0, UP, True)] * (cap + 1),                  # creation past the site cap
        [(0, UP, True), (0, UP, False), (0, UP, False)],  # repeated factor
        [(N - 1, DOWN, False)] * (two_s + 1),         # annihilates past empty
        [(1, UP, False), (1, UP, True), (0, DOWN, True), (0, DOWN, True)],
        [(0, UP, True), (1, UP, False), (1, DOWN, True), (0, DOWN, False)],  # a hop
    ]
    for _ in range(25):
        strings.append([(int(rng.integers(N)), int(rng.integers(2)), bool(rng.integers(2)))
                        for _ in range(int(rng.integers(1, 6)))])
    return strings


@pytest.mark.parametrize("mode", ["constrained", "hardcore"])
@pytest.mark.parametrize("S", [0.5, 1.0, 1.5])
def test_vectorized_basis_matches_per_state_reference(mode, S):
    rng = np.random.default_rng(int(4 * S) + 10 * len(mode))
    two_s = int(round(2 * S))
    cap = two_s + SITE_CAP_SLACK[mode][0]
    for N in (2, 3, 4) if S < 1.5 else (2, 3):
        basis = FockBasis(N, S)
        assert basis.states.dtype == np.int8    # the amplitudes below stay float64
        con = [tuple(map(tuple, occ)) for occ in basis.states.tolist()]
        if mode == "constrained":
            for ops in _strings(N, two_s, cap, rng):
                _assert_same_csr(basis.monomial(ops), _reference_monomial(con, ops))
            vac = np.zeros(basis.dim, dtype=complex)
            vac[con.index(((0, two_s),) * N)] = 1.0
            got = basis.vacuum_product()
            assert got.dtype == vac.dtype and np.array_equal(got, vac)
            continue
        # the images the annihilator check keeps: those in the hardcore states
        ref = reference_states(N, S, "hardcore")
        hc, hardcore = keyed(N, S, "hardcore"), set(ref)
        assert np.array_equal(hc.states, np.array(ref).reshape(len(ref), N, 2))
        for ops in _strings(N, two_s, cap, rng):
            _assert_same_csr(hc.monomial(ops), _reference_monomial(ref, ops))
            cols, rows, amp, change = basis._images(ops)
            images = _reference_images(con, ops)
            assert list(cols) == [j for j, _, _ in images]
            assert np.array_equal(amp, [a for _, _, a in images])
            assert all(list(change) == [u + d - two_s for u, d in occ] for _, occ, _ in images)
            # the bilinears lower the global total by at most 2, inside the hardcore slack
            kept = change.max() <= 0 and sum(change) >= -SITE_CAP_SLACK["hardcore"][1]
            assert [occ in hardcore for _, occ, _ in images] == [kept] * len(images)
            if change.max() <= 0:
                assert ([_digits(int(r), N, two_s + 1) for r in rows]
                        == [[d for _, d in occ] for _, occ, _ in images])


@pytest.mark.parametrize("N,S", [(3, 0.5), (2, 1.0), (2, 1.5)])
def test_embed_into_matches_reference(N, S):
    # the oracle's inclusion of the constrained states, in spin-index order, in the enlarged basis
    small, big = FockBasis(N, S), keyed(N, S, "enlarged")
    index = {s: i for i, s in enumerate(reference_states(N, S, "enlarged"))}
    rows = [index[tuple(map(tuple, occ))] for occ in small.states.tolist()]
    ref = sp.csr_matrix((np.ones(small.dim), (rows, range(small.dim))),
                        shape=(big.dim, small.dim))
    _assert_same_csr(embed_into(small, big), ref)


def test_key_overflow_and_missing_states_raise():
    # 2^32 constrained states: the byte budget refuses them before any allocation,
    # where the int64 keys of the occupations used to overflow
    with pytest.raises(DimensionCap):
        FockBasis(32, 0.5)
    # enlarged states with a site total above 2S are not in the constrained basis
    with pytest.raises(DimensionMismatch):
        embed_into(keyed(2, 0.5, "enlarged"), keyed(2, 0.5, "constrained"))


def test_basis_over_the_memory_budget_raises_before_enumerating():
    # 2^26 constrained states: 3.25 GiB of occupations, and 2 GiB for one
    # monomial on them
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCap) as err:
            FockBasis(26, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == ("the 67,108,864 states of the N=26 S=0.5 basis and one monomial "
                              f"on them would take 5.25 GiB, over the {MEMORY_BUDGET / 2 ** 30:g} "
                              "GiB memory budget")
    assert peak < 2 ** 20


@pytest.mark.parametrize("N,S,q0", [(5, 0.5, 2 * math.pi / 5), (4, 1.0, 0.7)])
def test_decomposition_check_computes_each_bond_monomial_once(monkeypatch, N, S, q0):
    calls = []
    raw = FockBasis.monomial

    def counted(self, ops):
        calls.append((self.dim, tuple(ops)))
        return raw(self, ops)

    monkeypatch.setattr(FockBasis, "monomial", counted)
    assert decomposition_check(N, S, q0) <= 1e-12
    # 6 products of two bilinears, 4 composed four-factor monomials each; 2 of
    # O1_nm zeta_mn's are zeta_nm zeta_mn's, so 22 distinct, on bond (0, 1)'s
    # (2S+1)^2 states alone whatever N is
    assert len(calls) == 22 and len(set(calls)) == len(calls)
    assert all(dim == (2 * S + 1) ** 2 and len(ops) == 4 for dim, ops in calls)
