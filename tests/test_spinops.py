"""Spin operator and product-state layer."""

import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from spinops_reference import (as_scipy, coo_local_sum, coo_sum_csr, embed, listed_sum,
                               product_rotation, product_singular_values, two_site)

from scarlab import spinops
from scarlab.errors import (DimensionCap, DimensionMismatch, InvalidSpin,
                            SiteOutOfRange)
from scarlab.hamiltonian import chain_couplings, coupling_terms
from scarlab.spinops import (ManyBodyOperator, SiteAngles, SpinSystem,
                             all_down, all_up, basis_state,
                             coherent_product_state,
                             entanglement_entropy, expectation,
                             local_spin_matrices, local_sum, lowering,
                             paired_singular_values,
                             site_spin_expectations, tower)

RNG = np.random.default_rng(7)


@pytest.mark.parametrize("S", [0.5, 1.0, 1.5, 2.0])
def test_su2_algebra(S):
    sx, sy, sz, sp, sm = local_spin_matrices(S)
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-14)
    assert np.allclose(sy @ sz - sz @ sy, 1j * sx, atol=1e-14)
    assert np.allclose(sp, sx + 1j * sy, atol=1e-14)
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.allclose(casimir, S * (S + 1) * np.eye(int(2 * S + 1)), atol=1e-13)


def test_invalid_spin_rejected():
    with pytest.raises(InvalidSpin):
        SpinSystem(0.3, 4)
    with pytest.raises(InvalidSpin):
        SpinSystem(-0.5, 4)
    with pytest.raises(InvalidSpin):
        SpinSystem(0.5, 0)


def test_basis_and_polarized_states():
    system = SpinSystem(1.0, 3)
    up = all_up(system)
    down = all_down(system)
    sx, sy, sz, _, _ = local_spin_matrices(1.0)
    for n in range(3):
        sz_n = ManyBodyOperator(system, [((n,), sz)])
        assert expectation(sz_n, up).real == pytest.approx(1.0)
        assert expectation(sz_n, down).real == pytest.approx(-1.0)
    mid = basis_state(system, [1, 0, 2])
    exp = site_spin_expectations(mid)
    assert np.allclose(exp[:, 2], [0.0, 1.0, -1.0], atol=1e-14)


def test_coherent_state_expectations():
    system = SpinSystem(1.5, 4)
    theta = tuple(RNG.uniform(0.1, 3.0, 4))
    phi = tuple(RNG.uniform(-3.0, 3.0, 4))
    psi = coherent_product_state(SiteAngles(theta, phi), system)
    exp = site_spin_expectations(psi)
    for n in range(4):
        want = 1.5 * np.array([math.sin(theta[n]) * math.cos(phi[n]),
                               math.sin(theta[n]) * math.sin(phi[n]),
                               math.cos(theta[n])])
        assert np.allclose(exp[n], want, atol=1e-12)


def test_product_rotation_unitary_and_maps_up():
    system = SpinSystem(0.5, 5)
    theta = tuple(RNG.uniform(0.0, math.pi, 5))
    phi = tuple(RNG.uniform(-math.pi, math.pi, 5))
    angles = SiteAngles(theta, phi)
    dense = product_rotation(angles, system)
    assert np.allclose(dense.conj().T @ dense, np.eye(system.total_dim), atol=1e-12)
    got = dense @ all_up(system).amplitudes
    want = coherent_product_state(angles, system).amplitudes
    assert np.linalg.norm(got - want) <= 1e-12


def test_two_site_matches_kron_oracle():
    system = SpinSystem(0.5, 3)
    sx, sy, sz, _, _ = local_spin_matrices(0.5)
    # site 0 is the least-significant factor: full op = op_2 (x) op_1 (x) op_0
    got = two_site(sx, 0, sz, 2, system).toarray()
    want = np.kron(np.kron(sz, np.eye(2)), sx)
    assert np.allclose(got, want, atol=1e-15)


@pytest.mark.parametrize("S", [0.5, 1.0, 1.5])
def test_local_sum_matches_kron_oracle(S):
    system = SpinSystem(S, 4)
    ops = local_spin_matrices(S)[:3]
    M = RNG.normal(size=(3, 3))            # not symmetric
    # reversed and non-adjacent site pairs; sites[0] is the low local digit
    for u, v in [(0, 1), (3, 1), (2, 0), (0, 3)]:
        bond = sum(M[a, b] * np.kron(ops[b], ops[a]) for a in range(3) for b in range(3))
        want = sum(M[a, b] * two_site(ops[a], u, ops[b], v, system)
                   for a in range(3) for b in range(3))
        got = as_scipy(local_sum(system, [((u, v), bond)]))
        assert np.abs((got - want).toarray()).max() <= 1e-14
    d = system.local_dim
    A = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    got = as_scipy(local_sum(system, [((2,), A), ((0,), A.T), ((2,), A)]))
    want = 2.0 * embed(A, 2, system) + embed(A.T, 0, system)
    assert got.dtype == np.complex128
    assert np.abs((got - want).toarray()).max() <= 1e-14


def test_local_sum_dtype_and_guards():
    system = SpinSystem(1.0, 3)
    sx, sy, sz, _, _ = local_spin_matrices(1.0)
    assert local_sum(system, [((0, 2), np.kron(sx, sz))]).dtype == np.float64
    assert local_sum(system, [((0, 2), np.kron(sx, sy))]).dtype == np.complex128
    assert local_sum(system, []).nnz == 0
    with pytest.raises(SiteOutOfRange):
        local_sum(system, [((1, 1), np.kron(sz, sz))])
    with pytest.raises(SiteOutOfRange):
        local_sum(system, [((3,), sz)])
    with pytest.raises(DimensionMismatch):
        local_sum(system, [((0, 1), sz)])


def test_term_operator_checks_its_terms_at_construction():
    system = SpinSystem(1.0, 3)
    sx, sy, sz, _, _ = local_spin_matrices(1.0)
    with pytest.raises(SiteOutOfRange):
        ManyBodyOperator(system, [((1, 1), np.kron(sz, sz))])
    with pytest.raises(SiteOutOfRange):
        ManyBodyOperator(system, [((3,), sz)])
    with pytest.raises(DimensionMismatch):
        ManyBodyOperator(system, [((0, 1), sz)])
    with pytest.raises(SiteOutOfRange):
        lowering(system, [0.1, 0.2, 0.3, 0.4])
    # the dtype is chosen at construction, one cast per distinct op object
    real = ManyBodyOperator(system, [((0,), sx), ((2,), sx), ((1,), sz)])
    assert [op.dtype for _, op in real.terms] == [np.float64] * 3
    assert real.terms[0][1] is real.terms[1][1]
    mixed = ManyBodyOperator(system, [((0,), sx), ((1,), sy)])
    assert [op.dtype for _, op in mixed.terms] == [np.complex128] * 2
    assert real.matrix.dtype == np.float64 and mixed.matrix.dtype == np.complex128


@st.composite
def _term_lists(draw):
    """(system, terms) with 1-3 site terms on sparse dyadic matrices, so sums
    are exact: zero local rows, diagonal-only and complex terms, and copies
    on the same sites, reversed or negated."""
    S = draw(st.sampled_from([0.5, 1.0, 1.5]))
    d, N = int(2 * S + 1), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    complex_terms = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        sites = tuple(draw(st.permutations(range(N)))[:draw(st.integers(1, min(3, N)))])
        shape = (d ** len(sites),) * 2
        density = draw(st.sampled_from([0.1, 0.5, 1.0]))
        op = rng.choice([-2.0, -0.5, 0.5, 1.0], size=shape) * (rng.random(shape) < density)
        if complex_terms and draw(st.booleans()):
            op = op + 1j * rng.choice([-1.0, 0.0, 0.5], size=shape)
        if draw(st.booleans()):
            op[rng.random(shape[0]) < 0.5] = 0.0           # local rows that are all zero
        if draw(st.booleans()):
            op = np.diag(np.diag(op))
        terms.append((sites, op))
        k = len(sites)                   # op on the same sites listed backwards
        back = op.reshape((d,) * 2 * k).transpose(*range(k - 1, -1, -1),
                                                  *range(2 * k - 1, k - 1, -1)).reshape(shape)
        copy = draw(st.sampled_from(["none", "same", "reversed", "cancel"]))
        if copy != "none":
            terms.append({"same": (sites, op), "reversed": (sites[::-1], back),
                          "cancel": (sites[::-1], -back)}[copy])
    return SpinSystem(S, N), terms


def _same_arrays(got, want):
    """The three CSR arrays of got and want equal byte for byte, dtypes too."""
    assert got.dtype == want.dtype and got.shape == want.shape
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices), (got.data, want.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _scipy_within_roundoff(got, rows, cols, vals, shape):
    """got against scipy's COO -> CSR of the same triplets at every listed
    (row, col), 0 where one stores nothing: bit-identical where at most two
    addends meet, since IEEE addition commutes, and each of the real and
    imaginary parts within (k - 1) 2^-52 sum |addends| where k >= 3 meet,
    since scipy sums them in the order its row sort leaves."""
    want = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    want.eliminate_zeros()
    keys, inverse, k = np.unique(rows.astype(np.int64) * shape[1] + cols,
                                 return_inverse=True, return_counts=True)
    size = np.bincount(inverse, np.abs(vals), keys.size)
    at = []
    for A in (got, want):
        stored = np.repeat(np.arange(shape[0]), np.diff(A.indptr)) * shape[1] + A.indices
        out = np.zeros(keys.size, dtype=A.dtype)
        out[np.searchsorted(keys, stored)] = A.data
        at.append(out)
    few = k <= 2
    assert at[0].dtype == at[1].dtype and at[0][few].tobytes() == at[1][few].tobytes()
    gap, bound = at[0][~few] - at[1][~few], (k[~few] - 1) * 2.0 ** -52 * size[~few]
    assert np.all(np.abs(gap.real) <= bound) and np.all(np.abs(gap.imag) <= bound)


def _same_csr_as_coo_local_sum(system, terms):
    """local_sum's CSR, after checking its arrays byte for byte against the
    listed_sum of coo_local_sum's triplets, listed in local_sum's order, and
    within roundoff against scipy's sum of them."""
    got, triplets = local_sum(system, terms), coo_local_sum(system, terms)
    _same_arrays(got, listed_sum(*triplets, got.shape))
    _scipy_within_roundoff(got, *triplets, got.shape)
    return got


@settings(max_examples=300, deadline=None)
@given(case=_term_lists())
def test_local_sum_bit_identical_to_coo_assembler(case):
    got = _same_csr_as_coo_local_sum(*case)
    assert as_scipy(got).has_canonical_format


@pytest.mark.parametrize("field", [0, 1])
def test_local_sum_bit_identical_to_coo_assembler_across_row_blocks(field):
    """S=1 N=9 chain with a non-symmetric M and a field along x or y: 27 row
    blocks, rows longer than 16 entries, and the single flips of site n from
    its two bonds and its field summed as one entry, in term order."""
    system = SpinSystem(1.0, 9)
    terms = coupling_terms(*chain_couplings(9, RNG.normal(size=(3, 3))), 1.0)
    terms += [((n,), 0.3 * local_spin_matrices(1.0)[field]) for n in range(9)]
    _same_csr_as_coo_local_sum(system, terms)


@st.composite
def _random_term_lists(draw):
    """(system, terms) at d = 2-4 and N = 1-6 with random real or complex
    entries, so the order of a sum shows in its last bits: exact zeros,
    all-zero local rows, and copies of a term on the same sites, reversed,
    or reversed and negated (exact cancellation), up to three of one term
    so that three or more entries meet in rows of more than 16."""
    S = draw(st.sampled_from([0.5, 1.0, 1.5]))
    d, N = int(2 * S + 1), draw(st.integers(1, 6 if S < 1.5 else 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    complex_terms = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        sites = tuple(draw(st.permutations(range(N)))[:draw(st.integers(1, min(3, N)))])
        shape = (d ** len(sites),) * 2
        op = rng.normal(size=shape) * (rng.random(shape) < draw(st.sampled_from([0.2, 0.6, 1.0])))
        if complex_terms and draw(st.booleans()):
            op = op + 1j * rng.normal(size=shape) * (rng.random(shape) < 0.5)
        if draw(st.booleans()):
            op[rng.random(shape[0]) < 0.3] = 0.0            # local rows that are all zero
        k = len(sites)
        back = op.reshape((d,) * 2 * k).transpose(*range(k - 1, -1, -1),
                                                  *range(2 * k - 1, k - 1, -1)).reshape(shape)
        terms.append((sites, op))
        for _ in range(draw(st.integers(0, 2))):
            copy = draw(st.sampled_from(["same", "reversed", "cancel", "scaled"]))
            terms.append({"same": (sites, op), "reversed": (sites[::-1], back),
                          "cancel": (sites[::-1], -back), "scaled": (sites, 0.3 * op)}[copy])
    return SpinSystem(S, N), terms


@settings(max_examples=200, deadline=None)
@given(case=_random_term_lists())
def test_local_sum_bit_identical_to_scipy_coo_on_random_entries(case):
    # local_sum sums each entry's addends in the order coo_local_sum lists
    # them; scipy's sum of the same triplets, whose row sort may reorder
    # three or more addends in rows of more than 16, agrees within roundoff
    _same_csr_as_coo_local_sum(*case)


def test_coo_sum_is_scipys_coo_to_csr():
    # _coo_sum's sums, as a Csr built here, in listed order bit for bit, and
    # scipy's sum within roundoff
    rng = np.random.default_rng(12)
    for _ in range(200):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 40)))
        n = int(rng.integers(0, 300))
        rows, cols = rng.integers(0, shape[0], n), rng.integers(0, shape[1], n)
        vals = rng.normal(size=n) * (rng.random(n) < 0.9)
        if rng.random() < 0.5:
            vals = vals + 1j * rng.normal(size=n)
        got = coo_sum_csr(rows, cols, vals, shape)
        _same_arrays(got, listed_sum(rows, cols, vals, shape))
        _scipy_within_roundoff(got, rows, cols, vals, shape)


@settings(max_examples=6, deadline=None)
@given(field=st.sampled_from([0, 1]), seed=st.integers(0, 2 ** 32 - 1))
def test_long_rows_sum_three_or_more_addends_in_listed_order(field, seed):
    """S=1 N=8 chain with a non-symmetric M, a field along x or y and
    randomly scaled copies of its terms: rows of more than 16 entries with 3
    or more addends at one column, where a sort that is not stable would
    change the order of the sum."""
    rng = np.random.default_rng(seed)
    N = 8
    system = SpinSystem(1.0, N)
    terms = coupling_terms(*chain_couplings(N, rng.normal(size=(3, 3))), 1.0)
    terms += [((n,), 0.3 * local_spin_matrices(1.0)[field]) for n in range(N)]
    terms += [(sites, rng.normal() * op) for sites, op in terms if rng.random() < 0.3]
    rows, cols, vals = coo_local_sum(system, terms)
    got, shape = local_sum(system, terms), (system.total_dim,) * 2
    _, first, k = np.unique(rows.astype(np.int64) * shape[1] + cols,
                            return_index=True, return_counts=True)
    assert np.any(np.diff(got.indptr)[rows[first[k >= 3]]] > 16)
    _same_arrays(got, listed_sum(rows, cols, vals, shape))
    # each entry's negated sum listed after its addends cancels it exactly
    gone = coo_sum_csr(np.concatenate([rows, got.rows()]), np.concatenate([cols, got.indices]),
                       np.concatenate([vals, -got.data]), shape)
    assert gone.nnz == 0
    # a shuffled listing is summed in its own order
    p = rng.permutation(rows.size)
    _same_arrays(coo_sum_csr(rows[p], cols[p], vals[p], shape),
                 listed_sum(rows[p], cols[p], vals[p], shape))


@settings(max_examples=100, deadline=None)
@given(case=_random_term_lists(), seed=st.integers(0, 2 ** 32 - 1))
def test_csr_product_diagonal_and_dense_form_match_scipy(case, seed):
    A = local_sum(*case)
    want = as_scipy(A)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=A.shape[1])
    for v in (x, x + 1j * rng.normal(size=x.size)):
        got, ref = A @ v, want @ v
        assert got.dtype == ref.dtype
        bound = 1e-15 * np.linalg.norm(A.data) * np.linalg.norm(v)
        assert np.abs(got - ref).max(initial=0.0) <= bound and np.array_equal(got, ref)
    assert np.array_equal(A.toarray(), want.toarray())
    assert np.array_equal(A.diagonal(), want.diagonal())
    assert A.nnz == want.nnz and A.shape == want.shape


@pytest.mark.parametrize("S,N", [(1.0, 10), (0.5, 16)])
def test_local_sum_peak_memory_within_half_again_its_csr(S, N):
    """The scratch of local_sum stays a fraction of the CSR it returns."""
    system = SpinSystem(S, N)
    terms = coupling_terms(*chain_couplings(N, np.diag([0.3, 1.0, 0.7])), S)
    tracemalloc.start()
    try:
        H = local_sum(system, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (H.data.nbytes + H.indices.nbytes + H.indptr.nbytes)


def test_matvec_bit_identical_to_the_complex_product():
    system = SpinSystem(1.0, 5)
    terms = coupling_terms(*chain_couplings(5, np.diag(RNG.normal(size=3))), 1.0)
    real = local_sum(system, terms)
    cplx = local_sum(system, [((0,), local_spin_matrices(1.0)[1])] + terms)
    assert (real.dtype, cplx.dtype) == (np.float64, np.complex128)
    x = RNG.normal(size=system.total_dim) + 1j * RNG.normal(size=system.total_dim)
    for A in (real, cplx):
        for v in (x, x.real):
            got, want = A @ v, as_scipy(A).astype(np.result_type(A.dtype, v.dtype)) @ v
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_entanglement_entropy():
    system = SpinSystem(0.5, 2)
    prod = all_up(system)
    assert entanglement_entropy(prod, 0) == pytest.approx(0.0, abs=1e-12)
    bell = (basis_state(system, [0, 1]).amplitudes
            + basis_state(system, [1, 0]).amplitudes) / math.sqrt(2.0)
    from scarlab.spinops import StateVector
    assert entanglement_entropy(StateVector(system, bell), 0) == pytest.approx(
        math.log(2.0), abs=1e-12)


def test_dimension_guards():
    system = SpinSystem(0.5, 2)
    other = SpinSystem(0.5, 3)
    with pytest.raises(DimensionMismatch):
        all_up(system).overlap(all_up(other))


@pytest.mark.parametrize("S,N,size", [(0.5, 3000, "2^3000"), (1.0, 16, "3^16"),
                                      (2.5, 10, "6^10")])
def test_dimension_cap_names_the_size_as_a_power(monkeypatch, S, N, size):
    # a budget of one complex 3^15-amplitude state: 3^15 fits, 3^16 and 6^10 do not
    monkeypatch.setattr(spinops, "MEMORY_BUDGET", 16 * 3 ** 15)
    SpinSystem(1.0, 15)
    with pytest.raises(DimensionCap) as err:
        SpinSystem(S, N)
    need = Decimal(16 * round(2 * S + 1) ** N) / 2 ** 30
    assert str(err.value) == (f"(2S+1)^N = {size} amplitudes would take {need:.4g} GiB, "
                              "over the 0.2138 GiB memory budget")


def _local_rotation_reference(S, theta, phi):
    """Reference: one site's exp(-i phi Sz) exp(-i theta Sy), from its own eigh(Sy)."""
    sx, sy, sz, _, _ = local_spin_matrices(S)
    evals, evecs = np.linalg.eigh(sy)
    rot_y = (evecs * np.exp(-1j * theta * evals)) @ evecs.conj().T
    rot_z = np.diag(np.exp(-1j * phi * np.diag(sz).real))
    return rot_z @ rot_y


def _coherent_state_kron(theta, phi, system):
    """Reference: the per-site rotation applied to |S, S>, joined by np.kron."""
    up = np.zeros(system.local_dim, dtype=complex)
    up[0] = 1.0
    full = np.array([1.0 + 0.0j])
    for n in range(system.N - 1, -1, -1):   # site 0 least significant
        full = np.kron(full, _local_rotation_reference(system.S, theta[n], phi[n]) @ up)
    return full


ANGLE = st.one_of(st.sampled_from([0.0, -0.0, math.pi, -math.pi / 2]),
                  st.floats(-50.0, 50.0, allow_nan=False))


@settings(max_examples=80, deadline=None)
@given(S=st.sampled_from([0.5, 1.0, 1.5, 2.5]), N=st.integers(1, 6), G=st.integers(1, 5),
       data=st.data())
def test_batched_states_bit_identical_to_kron_reference(S, N, G, data):
    system = SpinSystem(S, N)
    theta = data.draw(st.lists(st.lists(ANGLE, min_size=N, max_size=N), min_size=G, max_size=G))
    phi = data.draw(st.lists(st.lists(ANGLE, min_size=N, max_size=N), min_size=G, max_size=G))
    for g in range(G):
        got = coherent_product_state(SiteAngles(tuple(theta[g]), tuple(phi[g])), system)
        assert got.amplitudes.tobytes() == _coherent_state_kron(theta[g], phi[g], system).tobytes()


def _khatri_rao(vecs):
    """(d^N, G) explicit matrix whose column g is the product of the site
    vectors vecs[g, :] (site 0 least significant)."""
    cols = np.ones((vecs.shape[0], 1), dtype=complex)
    for n in range(vecs.shape[1] - 1, -1, -1):
        cols = (cols[:, :, None] * vecs[:, n, None, :]).reshape(len(vecs), -1)
    return cols.T


def _check_product_singular_values(d, N, G, distinct, seed):
    """Random unit site vectors, columns repeating with period `distinct`
    (so ranks below min(d^N, G) occur too), against the explicit SVD."""
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((distinct, N, d)) + 1j * rng.standard_normal((distinct, N, d))
    vecs = (vecs / np.linalg.norm(vecs, axis=2, keepdims=True))[np.arange(G) % distinct]
    want = np.linalg.svd(_khatri_rao(vecs), compute_uv=False)
    got = product_singular_values(vecs)
    assert got.shape == want.shape == (min(d ** N, G),)
    assert np.abs(got - want).max() <= 1e-12 * want[0]
    assert np.sum(got > 1e-8 * got[0]) == np.sum(want > 1e-8 * want[0])


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), N=st.integers(1, 6), data=st.data())
def test_product_singular_values_match_dense_svd(d, N, data):
    # G runs up to d^N + 5, and at most 64 so the explicit matrix stays small
    G = data.draw(st.integers(1, min(d ** N + 5, 64)), label="G")
    _check_product_singular_values(d, N, G, data.draw(st.integers(1, G), label="distinct"),
                                   data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))


@pytest.mark.parametrize("d,N,G,distinct", [(2, 1, 1, 1), (4, 1, 9, 9), (2, 3, 13, 13),
                                            (3, 2, 14, 5), (3, 4, 64, 64)])
def test_product_singular_values_at_the_edges(d, N, G, distinct):
    # N = 1, G = 1, G > d^N (d^N caps the rank) and repeated columns
    _check_product_singular_values(d, N, G, distinct, seed=G)


def _check_paired_singular_values(d, N, G, distinct, seed):
    """Random unit site vectors at G points, repeating with period `distinct`,
    and their mirrors J conj(v), each site times a random unit phase: the real
    sweep against the complex oracle on the whole 2G-column family."""
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((distinct, N, d)) + 1j * rng.standard_normal((distinct, N, d))
    vecs = (vecs / np.linalg.norm(vecs, axis=2, keepdims=True))[np.arange(G) % distinct]
    phases = np.exp(1j * rng.uniform(-math.pi, math.pi, (G, N, 1)))
    want = product_singular_values(np.concatenate([vecs, phases * vecs[..., ::-1].conj()]))
    got = paired_singular_values(vecs)
    k = len(got)
    assert 1 <= k <= len(want)
    # the kept values agree, and the dropped ones lie far below the 1e-8 cut
    assert np.abs(got - want[:k]).max() <= 1e-12 * want[0]
    assert np.all(want[k:] <= 1e-12 * want[0])
    assert np.all(got[1:] <= got[:-1]) and got[-1] > 1e-15 * got[0]
    assert np.sum(got > 1e-8 * got[0]) == np.sum(want > 1e-8 * want[0])


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([2, 3, 4, 5]), N=st.integers(1, 6), data=st.data())
def test_paired_singular_values_match_the_complex_sweep(d, N, data):
    # 2G columns, G at most 32, so the oracle's family stays within 64
    G = data.draw(st.integers(1, 32), label="G")
    _check_paired_singular_values(d, N, G, data.draw(st.integers(1, G), label="distinct"),
                                  data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))


@pytest.mark.parametrize("d,N,G,distinct", [(2, 1, 1, 1), (5, 1, 9, 9), (2, 3, 13, 13),
                                            (3, 2, 14, 5), (3, 4, 32, 32), (2, 6, 32, 3)])
def test_paired_singular_values_at_the_edges(d, N, G, distinct):
    # N = 1, G = 1, 2G > d^N (d^N caps the rank) and repeated columns
    _check_paired_singular_values(d, N, G, distinct, seed=G)


@pytest.mark.parametrize("S,N", [(0.5, 5), (1.5, 3)])
def test_product_rotation_bit_identical_to_kron_reference(S, N):
    system = SpinSystem(S, N)
    theta = RNG.uniform(0.0, math.pi, N)
    phi = RNG.uniform(-math.pi, math.pi, N)
    want = np.array([[1.0 + 0.0j]])
    for n in range(N - 1, -1, -1):
        want = np.kron(want, _local_rotation_reference(S, theta[n], phi[n]))
    got = product_rotation(SiteAngles.make(theta, phi), system)
    assert np.array_equal(got, want)


def test_batched_states_check_shapes():
    system = SpinSystem(1.0, 3)
    with pytest.raises(DimensionMismatch):
        coherent_product_state(SiteAngles((0.1,) * 2, (0.0,) * 2), system)
    with pytest.raises(DimensionMismatch):
        coherent_product_state(SiteAngles((0.1,) * 3, (0.0,) * 2), system)


@pytest.mark.parametrize("S,N", [(0.5, 5), (1.0, 3), (1.5, 2)])
def test_tower_is_the_normalized_matrix_powers(S, N):
    system = SpinSystem(S, N)
    lower = lowering(system, RNG.uniform(-3.0, 3.0, N)).matrix
    start = all_up(system).amplitudes
    steps = int(round(2 * N * S))
    states = list(tower(lower, start, steps))
    assert len(states) == steps + 1
    for m, state in enumerate(states):
        want = np.linalg.matrix_power(lower.toarray(), m) @ start
        assert np.abs(state - want / np.linalg.norm(want)).max() <= 1e-12
    # 2NS lowerings take |up...up> to |down...down>
    assert abs(abs(np.vdot(all_down(system).amplitudes, states[-1])) - 1.0) <= 1e-12
