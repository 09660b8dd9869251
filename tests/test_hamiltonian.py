"""Hamiltonian builders and the rotated-frame vanishing conditions."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

import elliptic_reference as ref
from hamiltonian_reference import chain_bonds, chain_terms, graph_terms
from spinops_reference import (as_scipy, column0_conditions, product_rotation,
                               rotated_hamiltonian, stub_everywhere, two_site)
from scarlab import spinops
from scarlab.algebra import lambda_op
from scarlab.elliptic import commensurate_q, jacobi, jacobi_fraction
from scarlab.errors import InvalidSpin
from scarlab.frames import CsseCouplings
from scarlab.hamiltonian import (_bond_matrix, build_csse_chain, build_on_graph, build_xyz_chain,
                                 chain_couplings, coupling_terms, graph_couplings,
                                 vanishing_conditions)
from scarlab.lattice import (CSSE, GENERATORS, SU2, generate, honeycomb_su2, kagome_su2, lieb,
                             nnn_chain, square_shifted, trimer_brickwall)
from scarlab.lattice import chain as chain_graph
from scarlab.scar import ScarSpec, gz_angles
from scarlab.schwinger import _rotated_spin_hamiltonian
from scarlab.spinops import (ManyBodyOperator, SiteAngles, SpinSystem, all_up, basis_state,
                             local_spin_matrices, local_sum, tau)

RNG = np.random.default_rng(99)


def test_xyz_chain_hermitian_and_bond_count():
    H = as_scipy(build_xyz_chain(5, 0.5, 0.7, 1.0, -0.3).matrix)
    assert abs(H - H.conj().T).max() <= 1e-14
    # oracle: explicit bond sum
    system = SpinSystem(0.5, 5)
    sx, sy, sz, _, _ = local_spin_matrices(0.5)
    want = None
    for n in range(5):
        m = (n + 1) % 5
        t = (0.7 * two_site(sx, n, sx, m, system)
             + 1.0 * two_site(sy, n, sy, m, system)
             - 0.3 * two_site(sz, n, sz, m, system))
        want = t if want is None else want + t
    assert np.abs((H - want).toarray()).max() <= 1e-14


def test_open_chain_has_no_wrap_bond():
    H_open = build_xyz_chain(3, 0.5, 1.0, 1.0, 1.0, periodic=False)
    H_per = build_xyz_chain(3, 0.5, 1.0, 1.0, 1.0, periodic=True)
    system = SpinSystem(0.5, 3)
    sx, sy, sz, _, _ = local_spin_matrices(0.5)
    wrap = (two_site(sx, 2, sx, 0, system) + two_site(sy, 2, sy, 0, system)
            + two_site(sz, 2, sz, 0, system))
    assert np.abs((as_scipy(H_per.matrix) - as_scipy(H_open.matrix) - wrap).toarray()).max() <= 1e-14


def test_csse_chain_offdiagonal_terms():
    c = CsseCouplings(J1=0.2, J2=-0.4, J3=0.6, J12=0.1, J13=0.0, J23=-0.2)
    H = as_scipy(build_csse_chain(3, 0.5, c, periodic=False).matrix)
    assert abs(H - H.conj().T).max() <= 1e-14
    system = SpinSystem(0.5, 3)
    sx, sy, sz, _, _ = local_spin_matrices(0.5)
    ops = (sx, sy, sz)
    M = c.matrix()
    want = None
    for n in range(2):
        for a in range(3):
            for b in range(3):
                if M[a, b] == 0.0:
                    continue
                t = M[a, b] * two_site(ops[a], n, ops[b], n + 1, system)
                want = t if want is None else want + t
    assert np.abs((H - want).toarray()).max() <= 1e-14


def test_graph_chain_matches_xyz_chain():
    q = commensurate_q(1, 5, 0.6)
    sn, cn, dn = jacobi_fraction(q.fraction, q.modulus)
    H_graph = build_on_graph(chain_graph(5), 0.5, q)
    H_chain = build_xyz_chain(5, 0.5, dn, 1.0, cn)
    assert np.abs((as_scipy(H_graph.matrix) - as_scipy(H_chain.matrix)).toarray()).max() <= 1e-13


def test_graph_builder_matches_two_site_sum():
    # kagome_su2 mixes isotropic SU(2) bonds with elliptic CSSE bonds
    g = kagome_su2(2, 2)
    assert {e.kind for e in g.edges} == {SU2, CSSE}
    q = commensurate_q(1, 4, 0.6)
    H = build_on_graph(g, 0.5, q)
    system = SpinSystem(0.5, g.num_vertices)
    ops = local_spin_matrices(0.5)[:3]
    want = 0.0
    for e in g.edges:
        if e.kind == SU2:
            J = (e.J, e.J, e.J)
        else:
            _, cn, dn = jacobi_fraction(e.r * q.fraction, q.modulus)
            J = (e.J * dn, e.J, e.J * cn)
        for a in range(3):
            want = want + J[a] * two_site(ops[a], e.u, ops[a], e.v, system)
    assert abs(as_scipy(H.matrix) - want).max() <= 1e-13


def _per_edge_terms(g, S, q):
    """Reference: one bond matrix per edge, from a per-edge elliptic evaluation."""
    terms = []
    for e in g.edges:
        if e.kind == SU2:
            M = e.J * np.eye(3)
        else:
            _, cn, dn = ref.jacobi_fraction(e.r * q.fraction, q.modulus)
            M = e.J * np.diag([dn, 1.0, cn])
        terms.append(((e.u, e.v), _bond_matrix(S, M)))
    return terms


def test_graph_terms_equal_the_per_edge_bond_matrices():
    # one bond matrix per distinct coupling matrix, the terms still in edge order
    q = commensurate_q(1, 6, 0.45)
    for g, S in ((kagome_su2(2, 2, J=0.7, Jprime=-1.3), 0.5), (nnn_chain(12, Jnnn=0.4), 1.0)):
        want = _per_edge_terms(g, S, q)
        got = coupling_terms(g.u, g.v, graph_couplings(g, q), S)
        assert len({id(bond) for _, bond in got}) < len(got)
        assert [sites for sites, _ in got] == [sites for sites, _ in want]
        assert all(type(n) is int for sites, _ in got for n in sites)
        for (_, a), (_, b) in zip(got, want):
            assert a.tobytes() == b.tobytes()


def test_build_on_graph_csr_bit_identical_to_per_edge_bond_matrices():
    # SU(2) and CSSE bonds, r > 1 multipliers, negative and zero J
    q = commensurate_q(1, 6, 0.45)
    for g, S in ((kagome_su2(2, 2, J=0.7, Jprime=-1.3), 0.5), (nnn_chain(12, Jnnn=0.4), 1.0),
                 (honeycomb_su2(4, 2), 1.0), (lieb(2, 2), 0.5), (square_shifted(4, 3), 0.5),
                 (trimer_brickwall(3, 3), 0.5), (nnn_chain(8, Jnnn=0.0), 0.5)):
        got = build_on_graph(g, S, q).matrix
        want = local_sum(SpinSystem(S, g.num_vertices), _per_edge_terms(g, S, q))
        assert got.dtype == want.dtype
        for attr in ("data", "indices", "indptr"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()


def _assert_same_csr(got, want):
    assert got.dtype == want.dtype
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_same_terms(got, want):
    """Equal sites and op bytes, term by term, with one op object per distinct op."""
    assert [sites for sites, _ in got] == [sites for sites, _ in want]
    assert all(type(n) is int for sites, _ in got for n in sites)
    assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(got, want))
    distinct = {op.tobytes() for _, op in want}
    assert len({id(op) for _, op in got}) == len(distinct)


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("N", [1, 2, 3, 5, 8])
def test_chain_builders_equal_the_chain_terms_byte_for_byte(N, periodic):
    # XYZ (real) and CSSE (complex) chains through the coupling table, against
    # the chain's own bond numbering: none at N = 1, one bond at N = 2
    S, c = 1.0, CsseCouplings(J1=0.3, J2=0.8, J3=0.1, J12=0.2, J13=-0.15, J23=0.25)
    for H, M in ((build_xyz_chain(N, S, 0.3, 1.0, -0.7, periodic), np.diag([0.3, 1.0, -0.7])),
                 (build_csse_chain(N, S, c, periodic), c.matrix())):
        want = chain_terms(N, S, M, periodic)
        _assert_same_terms(coupling_terms(*chain_couplings(N, M, periodic), S), want)
        _assert_same_csr(H.matrix, local_sum(SpinSystem(S, N), want))


SMALLEST_DIMS = {"chain": (3,), "square": (3, 3), "square_shifted": (3, 3), "lieb": (2, 2),
                 "triangular_su2": (3, 3), "kagome_su2": (2, 2), "honeycomb_su2": (4, 2),
                 "trimer_ladder": (3,),
                 "trimer_brickwall": (3, 3), "nnn_chain": (5,)}


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_build_on_graph_equals_the_graph_terms_byte_for_byte(kind):
    # every generator at its smallest size, SU(2) bonds and r > 1 multipliers included
    g, q = generate(kind, *SMALLEST_DIMS[kind]), commensurate_q(1, 6, 0.45)
    want = graph_terms(g, 0.5, q)
    _assert_same_terms(coupling_terms(g.u, g.v, graph_couplings(g, q), 0.5), want)
    _assert_same_csr(build_on_graph(g, 0.5, q).matrix,
                     local_sum(SpinSystem(0.5, g.num_vertices), want))


@pytest.mark.parametrize("N,S", [(3, 0.5), (4, 1.0), (5, 0.5)])
def test_rotated_spin_hamiltonian_equals_the_chain_terms_byte_for_byte(N, S):
    # Schwinger's rotated ring: an antisymmetric M, one bond matrix for every bond
    q0 = 2.0 * math.pi / N
    M = math.cos(q0) * np.eye(3)
    M[0, 1], M[1, 0] = -math.sin(q0), math.sin(q0)
    H, want = _rotated_spin_hamiltonian(N, S, q0), chain_terms(N, S, M)
    _assert_same_terms(H.terms, want)
    _assert_same_csr(H.matrix, local_sum(SpinSystem(S, N), want))


def _term_builds():
    """(builder call, its system, its terms written out here) for every
    builder of a term operator."""
    q, q0 = commensurate_q(1, 6, 0.45), 2.0 * math.pi / 5
    c = CsseCouplings(J1=0.3, J2=0.8, J3=0.1, J12=0.2, J13=-0.15, J23=0.25)
    g = kagome_su2(2, 2, J=0.7, Jprime=-1.3)
    _, _, sz, _, sm = local_spin_matrices(1.0)
    lam = [((n, (n + s) % 5), s * 1j * math.sin(q0) * np.exp(1j * (n + 1) * q0)
            * np.kron(sz, sm)) for n in range(5) for s in (+1, -1)]
    return [
        (lambda: build_xyz_chain(5, 1.0, 0.3, 1.0, 0.7), SpinSystem(1.0, 5),
         chain_terms(5, 1.0, np.diag([0.3, 1.0, 0.7]))),
        (lambda: build_csse_chain(4, 0.5, c, periodic=False), SpinSystem(0.5, 4),
         chain_terms(4, 0.5, c.matrix(), periodic=False)),
        (lambda: build_on_graph(g, 0.5, q), SpinSystem(0.5, 12), _per_edge_terms(g, 0.5, q)),
        (lambda: tau(6, 1.0, q0, sign=-1), SpinSystem(1.0, 6),
         [((n,), np.exp(-1j * (n + 1) * q0) * sm) for n in range(6)]),
        (lambda: lambda_op(5, 1.0, q0), SpinSystem(1.0, 5), lam),
    ]


@pytest.mark.parametrize("case", range(5))
def test_term_operators_assemble_their_local_sum_on_first_use(monkeypatch, case):
    build, system, terms = _term_builds()[case]
    want = local_sum(system, terms)

    def no_matrix(*args, **kwargs):
        raise AssertionError("assembled at construction")
    with monkeypatch.context() as m:
        stub_everywhere(m, {spinops.local_sum: no_matrix})
        H = build()
    assert H.system == system and len(H.terms) == len(terms)
    got = H.matrix
    assert got is H.matrix
    _assert_same_csr(got, want)


def test_graph_couplings_are_the_per_edge_matrices():
    q = commensurate_q(1, 6, 0.45)
    for g in (nnn_chain(12, Jnnn=0.4), kagome_su2(2, 2, J=0.7, Jprime=-1.3)):
        M = graph_couplings(g, q)
        assert M.shape == (g.num_edges, 3, 3)
        for m, e in zip(M, g.edges):
            _, cn, dn = ref.jacobi_fraction(e.r * q.fraction, q.modulus)
            want = e.J * (np.eye(3) if e.kind == SU2 else np.diag([dn, 1.0, cn]))
            assert m.tobytes() == (want + 0.0).tobytes()     # +0.0: no -0.0 off the diagonal


def test_builder_dtypes():
    # real in the Sz basis unless a coupling pairs Sy with Sx or Sz
    q = commensurate_q(1, 4, 0.6)
    assert build_xyz_chain(4, 1.0, 0.3, 1.0, -0.5).matrix.dtype == np.float64
    assert build_on_graph(kagome_su2(2, 2), 0.5, q).matrix.dtype == np.float64
    c = CsseCouplings(J1=0.2, J2=-0.4, J3=0.6, J12=0.1, J13=0.0, J23=0.0)
    assert build_csse_chain(4, 0.5, c).matrix.dtype == np.complex128


def test_rotated_hamiltonian_is_isospectral():
    H = build_xyz_chain(4, 0.5, 0.8, 1.0, 0.3)
    angles = SiteAngles(tuple(RNG.uniform(0, math.pi, 4)),
                        tuple(RNG.uniform(-math.pi, math.pi, 4)))
    Hr = rotated_hamiltonian(H, angles)
    e0 = np.linalg.eigvalsh(H.matrix.toarray())
    e1 = np.linalg.eigvalsh(Hr)
    assert np.abs(e0 - e1).max() <= 1e-11


def test_vanishing_conditions_at_scar_angles():
    N, S, p, kappa, gamma = 6, 1.0, 1, 0.6, 0.4
    q = commensurate_q(p, N, kappa)
    sn, cn, dn = jacobi_fraction(q.fraction, q.modulus)
    spec = ScarSpec.make(+1, p, gamma, kappa, N)
    a2, a1 = vanishing_conditions(N, S, np.diag([dn, 1.0, cn]), gz_angles(N, spec))
    assert np.abs(a2).max() <= 1e-11
    assert np.abs(a1).max() <= 1e-11
    with pytest.raises(InvalidSpin):     # no SpinSystem is built, so S is checked here
        vanishing_conditions(N, 0.7, np.diag([dn, 1.0, cn]), gz_angles(N, spec))


def test_vanishing_conditions_sharpness():
    # detuning q by 0.05 must light up the magnon amplitudes
    N, S, p, kappa, gamma = 6, 1.0, 1, 0.6, 0.4
    q = commensurate_q(p, N, kappa)
    sn, cn, dn = jacobi_fraction(q.fraction, q.modulus)
    spec = ScarSpec.make(+1, p, gamma, kappa, N)
    thetas, phis = [], []
    for n in range(N):
        snn, cnn, dnn = jacobi((n + 1) * (q.value + 0.05), kappa)
        uz = spec.gamma * dnn
        thetas.append(math.acos(max(-1.0, min(1.0, uz))))
        phis.append(math.atan2(spec.beta * snn, spec.alpha * cnn))
    a2, a1 = vanishing_conditions(N, S, np.diag([dn, 1.0, cn]),
                                  SiteAngles(tuple(thetas), tuple(phis)))
    assert max(np.abs(a2).max(), np.abs(a1).max()) > 1e-4


def _random_operator(system, rng):
    """A random complex operator: one term on every site and one on every ring bond."""
    def local(k):
        shape = (system.local_dim ** k,) * 2
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    terms = [((n,), local(1)) for n in range(system.N)]
    return ManyBodyOperator(system, terms + [(b, local(2)) for b in chain_bonds(system.N, True)])


def _random_angles(N, rng):
    return SiteAngles.make(rng.uniform(0.0, math.pi, N), rng.uniform(-math.pi, math.pi, N))


@pytest.mark.parametrize("N,S", [(1, 0.5), (2, 1.0), (3, 0.5), (3, 1.5), (4, 1.0)])
def test_vanishing_conditions_are_overlaps_with_flipped_states(N, S):
    # the amplitudes were overlaps of basis_state vectors with H'|up...up>;
    # they are read from column 0 of H' now (at N = 1 both flips hit site 0)
    rng = np.random.default_rng(int(10 * N + 2 * S))
    system = SpinSystem(S, N)
    H_rot = rotated_hamiltonian(_random_operator(system, rng), _random_angles(N, rng))
    w = H_rot @ all_up(system).amplitudes
    want2, want1 = np.zeros(N, dtype=complex), np.zeros(N, dtype=complex)
    lowered = 2.0 * S
    for n in range(N):
        flip = [0] * N
        flip[n] = 1
        want1[n] = np.sqrt(lowered) * np.vdot(basis_state(system, flip).amplitudes, w)
        flip[(n + 1) % N] = 1
        want2[n] = lowered * np.vdot(basis_state(system, flip).amplitudes, w)
    a2, a1 = column0_conditions(H_rot, system)
    assert a1.tobytes() == want1.tobytes() and a2.tobytes() == want2.tobytes()
    assert np.abs(want1).min() > 1e-3 and np.abs(want2).min() > 1e-3


@pytest.mark.parametrize("case", ["xyz", "csse", "random"])
@pytest.mark.parametrize("helicity", [+1, -1])
def test_rotated_hamiltonian_matches_the_sparse_product(case, helicity):
    rng = np.random.default_rng(5 + helicity)
    H = {"xyz": lambda: build_xyz_chain(5, 1.0, 0.8, 1.0, -0.3),
         "csse": lambda: build_csse_chain(4, 1.5, CsseCouplings(J1=0.2, J2=-0.4, J3=0.6,
                                                                J12=0.1, J23=-0.2)),
         "random": lambda: _random_operator(SpinSystem(0.5, 6), rng)}[case]()
    angles = _random_angles(H.system.N, rng)
    got = rotated_hamiltonian(H, angles, helicity)
    # the sparse product the rotated frame was built from
    V = sp.csr_matrix(product_rotation(
        SiteAngles(angles.theta, tuple(helicity * p for p in angles.phi)), H.system))
    want = (V.conj().T @ as_scipy(H.matrix) @ V).toarray()
    assert isinstance(got, np.ndarray) and got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * abs(as_scipy(H.matrix)).max()
