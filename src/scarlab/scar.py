"""Helical and elliptically deformed (GZ-type) scar states.

The central object is a zero-entanglement product state whose site spins
follow Jacobi elliptic functions,

    <Sx_n> = alpha S cn(q_n),  <Sy_n> = +/- beta S sn(q_n),  <Sz_n> = gamma S dn(q_n),

with alpha = sqrt(1-gamma^2), beta = sqrt(1-gamma^2+kappa^2 gamma^2).  On a
chain the site phases are q_n = (n+1) q; on a graph they come from the
sigma-flow propagation of the lattice module.  The kappa -> 0 limit is the
planar helical scar, whose tower structure and binomial expansion are also
provided here.  The eigenstate test is local: local_residual sums the
one-flip amplitudes per site and the two-flip amplitudes per bond of a
product state, with no Hilbert-space vector; residual is its ED oracle.
The Sz current is local too: local_sz_current reads the terms of H and the
product state's site vectors, with no state vector and no CSR (Jepsen et
al., Nat. Phys. 18, 899 (2022), measure such currents of helix states).
span_rank ranks the family over gamma from its site vectors alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import CommensurateQ, _pow, commensurate_q, jacobi_fraction, jacobi_table
from .errors import DimensionMismatch, IncommensurateQ, InvalidInput, ScarlabError
from .lattice import ScarGraph, assign_site_phases, vertex_flow
from .spinops import (ManyBodyOperator, SiteAngles, SpinSystem, StateVector,
                      all_up, coherent_product_state, coherent_product_states,
                      coherent_site_vectors, local_spin_matrices, matvec,
                      product_singular_values, tau, tower)


@dataclass(frozen=True)
class ScarSpec:
    helicity: int
    p: int
    gamma: float
    kappa: float
    q: CommensurateQ

    def __post_init__(self):
        _check_family(self.helicity, [self.gamma])

    @classmethod
    def make(cls, helicity: int, p: int, gamma: float, kappa: float,
             denominator: int) -> "ScarSpec":
        return cls(helicity=helicity, p=p, gamma=float(gamma), kappa=float(kappa),
                   q=commensurate_q(p, denominator, kappa))

    @property
    def alpha(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.gamma ** 2))

    @property
    def beta(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.gamma ** 2
                             + (self.kappa * self.gamma) ** 2))


def _check_family(helicity: int, gammas) -> None:
    """The checks of a ScarSpec, for one helicity and each gamma of a family."""
    if helicity not in (-1, +1):
        raise InvalidInput("helicity must be +1 or -1")
    for gamma in gammas:
        if abs(gamma) > 1.0:
            raise InvalidInput(f"|gamma| must be <= 1, got {gamma}")


# math.acos and math.atan2 element by element, like elliptic's _pow for
# x ** 2: numpy's arccos and arctan2 do not always agree with libm.
_acos = np.frompyfunc(math.acos, 1, 1)
_atan2 = np.frompyfunc(math.atan2, 2, 1)


def _table_angles(helicity: int, kappa: float, gammas, table):
    """(G, N) theta and phi over a jacobi_table of the site phases, row g at
    gammas[g]: per element the operations of ScarSpec.alpha and .beta and of
    site_angles, bit for bit (fmax and fmin are Python's max and min, NaN too)."""
    winding, index, (sn, cn, dn) = table
    gamma = np.asarray(gammas, dtype=float)[:, None]
    rest = 1.0 - _pow(gamma, 2).astype(float)
    alpha = np.sqrt(np.fmax(0.0, rest))
    beta = np.sqrt(np.fmax(0.0, rest + _pow(kappa * gamma, 2).astype(float)))
    ux, uy = alpha * cn, beta * sn
    two_pi = 2.0 * math.pi
    local = np.where((np.abs(ux) > 0) | (np.abs(uy) > 0),
                     _atan2(uy, ux).astype(float) % two_pi, 0.0)
    theta = _acos(np.fmax(-1.0, np.fmin(1.0, gamma * dn))).astype(float)
    return theta[:, index], helicity * (two_pi * winding + local[:, index])


def site_angles(spec: ScarSpec, phases) -> SiteAngles:
    """Bloch angles realizing the elliptic expectations at given site phases.

    phases are exact Fractions of 4K(kappa), not reduced modulo a period.
    phi_n uses the two-argument arctangent of (<Sy>, <Sx>), which keeps the
    quadrant, lifted continuously across periods: the planar vector
    (cn, sn) winds once per 4K, and for half-integer S the resulting 2 pi
    increments of phi_n carry physical minus signs, so the winding from the
    exact rational tag is kept rather than wrapped away.  theta_n = arccos of
    the Sz expectation over S.  The elliptic functions, math.acos and
    math.atan2 run once per distinct reduced phase, then a gather per site:
    the one-gamma row of _table_angles.
    """
    theta, phi = _table_angles(spec.helicity, spec.kappa, [spec.gamma],
                               jacobi_table(phases, spec.q.modulus))
    return SiteAngles(tuple(theta[0].tolist()), tuple(phi[0].tolist()))


def chain_phases(N: int, q: CommensurateQ) -> list:
    """Site phases q_n = (n+1) q as exact Fractions of 4K, windings retained."""
    return [(n + 1) * q.fraction for n in range(N)]


def gz_angles(N: int, spec: ScarSpec, graph: ScarGraph | None = None) -> SiteAngles:
    """Bloch angles of the scar on a chain of N sites (default) or on a
    rule-satisfying graph of N vertices."""
    if graph is None:
        if spec.q.denominator != N:
            raise IncommensurateQ(f"chain of {N} sites needs q = 4pK/{N}, "
                                  f"got denominator {spec.q.denominator}")
        phases = chain_phases(N, spec.q)
    else:
        if graph.num_vertices != N:
            raise DimensionMismatch("graph order != number of spins")
        phases = assign_site_phases(graph, spec.q)
    return site_angles(spec, phases)


def gz_state(system: SpinSystem, spec: ScarSpec,
             graph: ScarGraph | None = None) -> StateVector:
    """Product scar state on a chain (default) or on a rule-satisfying graph."""
    return coherent_product_state(gz_angles(system.N, spec, graph), system)


def gz_energy(N: int, S: float, q: CommensurateQ) -> float:
    """Scar energy of the periodic chain.

    E = N S^2 cn(q) dn(q) + kappa^2 S^2 sn^2(q) sum_n sn(n q) sn(n q + q);
    the prefactor of the second term is pinned by the expectation-value
    cross-check in the tests.
    """
    kappa = q.modulus.kappa
    _, index, table = jacobi_table([n * q.fraction for n in range(1, N + 2)], q.modulus)
    sn, cn, dn = (f[index].tolist() for f in table)     # at n q, n = 1..N+1
    acc = 0.0
    for n in range(N):
        acc += sn[n] * sn[n + 1]
    return N * S * S * cn[0] * dn[0] + (kappa * S * sn[0]) ** 2 * acc


def residual(H: ManyBodyOperator, psi: StateVector) -> float:
    """Eigenstate defect ||H psi - <H> psi||_2 for a normalized psi, by ED
    (the oracle local_residual is tested against)."""
    if psi.system != H.system:
        raise DimensionMismatch("operator and state on different systems")
    hpsi = matvec(H.matrix, psi.amplitudes)
    e = np.vdot(psi.amplitudes, hpsi)
    return float(np.linalg.norm(hpsi - e * psi.amplitudes))


def flip_amplitudes(u, v, M, S: float, angles: SiteAngles):
    """(c, d): the components of H psi - <H> psi for a spin-coherent product psi.

    H = sum_b sum_ij M[b, i, j] S^i_{u_b} S^j_{v_b} over bonds b of distinct
    site pairs.  In the frame (e1, e2, n) of site w, with n its Bloch vector,
    S^i |psi_w> = S n_i |psi_w> + m_i |flip_w>, m = sqrt(S/2) (e1 + i e2).  So
    H psi - <H> psi is a sum of orthonormal states: site w flipped, amplitude
    c[w], the sum over the bonds at w of S m_u.M.n_v (w = u) or S n_u.M.m_v
    (w = v); both ends of bond b flipped, amplitude d[b] = m_u.M.m_v.
    """
    theta, phi = np.asarray(angles.theta), np.asarray(angles.phi)
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    n = np.stack([st * cp, st * sp, ct], axis=1)
    m = math.sqrt(S / 2) * np.stack([ct * cp - 1j * sp, ct * sp + 1j * cp, -st + 0j], axis=1)
    u, v, M = np.asarray(u, dtype=np.intp), np.asarray(v, dtype=np.intp), np.asarray(M)
    Mn, Mm = np.einsum("bij,bj->bi", M, n[v]), np.einsum("bij,bj->bi", M, m[v])
    c = np.zeros(len(theta), dtype=complex)
    np.add.at(c, u, S * np.einsum("bi,bi->b", m[u], Mn))
    np.add.at(c, v, S * np.einsum("bi,bi->b", n[u], Mm))
    return c, np.einsum("bi,bi->b", m[u], Mm)


def local_residual(u, v, M, S: float, angles: SiteAngles) -> float:
    """||H psi - <H> psi||_2 = sqrt(sum |c|^2 + sum |d|^2) of flip_amplitudes:
    O(bonds), with no Hilbert-space vector."""
    c, d = flip_amplitudes(u, v, M, S, angles)
    return float(np.sqrt(np.vdot(c, c).real + np.vdot(d, d).real))


@dataclass
class ScarTower:
    system: SpinSystem
    states: list
    helicity: int
    q0: float
    p: int


def helical_tower(N: int, S: float, helicity: int, p: int) -> ScarTower:
    """States tau^m |up...up>, m = 0..2NS, tau = sum_n e^{+/- i (n+1) q0} S-_n.

    q0 = 2 pi p / N.  Each state is normalized; they live in distinct total-Sz
    sectors and are translation eigenstates with momentum -/+ m q0.
    """
    system = SpinSystem(S, N)
    q0 = 2.0 * math.pi * p / N
    lower = tau(N, S, q0, sign=helicity).matrix
    states = [StateVector(system, v) for v in
              tower(lower, all_up(system).amplitudes, int(round(2 * N * S)))]
    return ScarTower(system=system, states=states, helicity=helicity, q0=q0, p=p)


def helical_expansion(tower: ScarTower, theta: float) -> StateVector:
    """Binomial superposition sum_m sqrt(C(M,m)) cos^{M-m}(t/2) sin^m(t/2) S^(m)."""
    M = len(tower.states) - 1
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    amps = np.zeros(tower.system.total_dim, dtype=complex)
    for m, state in enumerate(tower.states):
        amps += math.sqrt(math.comb(M, m)) * c ** (M - m) * s ** m * state.amplitudes
    return StateVector(tower.system, amps).normalized()


def projections(N: int, S: float, p: int, kappa: float, gamma: float,
                helicity: int = +1):
    """Weights of the elliptic scar in the two helical towers.

    The same-helicity projection sums all tower states; the opposite-helicity
    one skips the states the towers can share: state m of the two towers has
    momenta -/+ 2 pi m p / N, equal modulo 2 pi when 2 m p / N is an integer,
    i.e. m a multiple of N / gcd(2p, N) (including the fully polarized ends).
    """
    return projection_table(N, S, p, kappa, [gamma], helicity)[0]


def projection_table(N: int, S: float, p: int, kappa: float, gammas,
                     helicity: int = +1) -> list:
    """(P+, P-) of `projections` at every gamma; the towers depend on N, S and
    p only and the Jacobi table of the chain phases on kappa only, so each is
    built once."""
    system = SpinSystem(S, N)
    q = commensurate_q(p, N, kappa)
    _check_family(helicity, gammas)
    thetas, phis = _table_angles(helicity, float(kappa), gammas,
                                 jacobi_table(chain_phases(N, q), q.modulus))
    same = helical_tower(N, S, helicity, p)
    oppo = helical_tower(N, S, -helicity, p)
    shared = N // math.gcd(2 * p, N)
    two_ns = len(same.states) - 1
    table = []
    for theta, phi in zip(thetas, phis):
        psi = StateVector(system, coherent_product_states(system, theta[None], phi[None])[0])
        p_same = sum(abs(st.overlap(psi)) ** 2 for st in same.states)
        p_oppo = 0.0
        for m in range(1, two_ns):
            if m % shared == 0:
                continue
            p_oppo += abs(oppo.states[m].overlap(psi)) ** 2
        table.append((float(p_same), float(p_oppo)))
    return table


def shared_state_overlaps(N: int, S: float, p: int):
    """Overlap matrix of the towers' states at multiples of N / gcd(2p, N) (reported only)."""
    same = helical_tower(N, S, +1, p)
    oppo = helical_tower(N, S, -1, p)
    idx = [m for m in range(len(same.states)) if m % (N // math.gcd(2 * p, N)) == 0]
    mat = np.array([[oppo.states[j].overlap(same.states[i]) for j in idx] for i in idx])
    return idx, mat


def _chebyshev_grid(count: int, lo: float = -0.99, hi: float = 0.99):
    k = np.arange(count)
    nodes = np.cos((2 * k + 1) * np.pi / (2 * count))
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes


def span_rank(N: int, S: float, kappa: float, helicity: int = +1, p: int = 1,
              gamma_grid=None) -> int:
    """Dimension of the span of the scar family over gamma.

    Rank of the matrix of gz_state columns, singular values thresholded at
    1e-8 * sigma_max; a doubled grid must reproduce the rank, otherwise the
    sampling is declared unstable.  Each grid's angles are one _table_angles
    call, and its singular values come from product_singular_values on the
    site vectors, in O(N d G^3) with no (2S+1)^N state.  SpinSystem(S, N)
    still bounds the sizes to (2S+1)^N <= MATFREE_DIM_CAP: the sweep's cost
    has no guard of its own.
    """
    system = SpinSystem(S, N)
    min_pts = int(round(4 * N * S)) + 4
    q = commensurate_q(p, N, kappa)
    table = jacobi_table(chain_phases(N, q), q.modulus)

    def rank_for(grid):
        theta, phi = _table_angles(helicity, float(kappa), grid, table)
        sv = product_singular_values(coherent_site_vectors(system.S, theta, phi))
        return int(np.sum(sv > 1e-8 * sv[0]))

    if gamma_grid is None:
        # twice the minimum: borderline singular values converge by then,
        # so the doubling audit compares converged spectra
        gamma_grid = _chebyshev_grid(2 * min_pts)
    else:
        gamma_grid = np.asarray(gamma_grid, dtype=float)
        if gamma_grid.size < min_pts:
            raise ScarlabError(f"gamma grid needs at least {min_pts} points")
    _check_family(helicity, gamma_grid)
    r1 = rank_for(gamma_grid)
    r2 = rank_for(_chebyshev_grid(2 * len(gamma_grid)))
    if r1 != r2:
        raise ScarlabError(f"span rank unstable under grid doubling: {r1} vs {r2}")
    return r1


def local_sz_current(g: ScarGraph, system: SpinSystem, spec: ScarSpec,
                     H: ManyBodyOperator) -> np.ndarray:
    """<i[H, Sz_u]> on the graph scar state, one value per vertex, from H's terms.

    On a product state only the terms h_t on sites s_t that hold u contribute:
    with u = s_t[k], <i[h_t, Sz_u]> = i phi_t^dag (h_t Z_k - Z_k h_t) phi_t,
    phi_t the product of the coherent site vectors on s_t and Z_k the Sz of
    local digit k.  The terms are batched per distinct op object, so this
    builds neither the (2S+1)^N state nor H's matrix, in O(terms).  Returns
    the real part, which for Hermitian H is the whole value.
    """
    if H.system != system:
        raise DimensionMismatch("operator and state on different systems")
    if H.terms is None:
        raise InvalidInput("local_sz_current reads the local terms of H, and this H was "
                           "made from a matrix; build it with ManyBodyOperator.from_terms")
    angles = gz_angles(system.N, spec, graph=g)
    vecs = coherent_site_vectors(system.S, angles.theta, angles.phi)
    m, d = np.diag(local_spin_matrices(system.S)[2]).real, system.local_dim
    batches = {}
    for sites, op in H.terms:
        batches.setdefault(id(op), (op, []))[1].append(sites)
    current = np.zeros(system.N)
    for op, sites in batches.values():
        sites = np.array(sites, dtype=np.intp)
        t, k = sites.shape
        phi = np.ones((t, 1), dtype=complex)
        for j in range(k - 1, -1, -1):
            phi = (phi[:, :, None] * vecs[sites[:, j], None, :]).reshape(t, -1)
        for j in range(k):
            z = m[np.arange(d ** k) // d ** j % d]
            val = 1j * np.einsum("ti,ij,tj->t", phi.conj(), op * z - z[:, None] * op, phi)
            current += np.bincount(sites[:, j], weights=val.real, minlength=system.N)
    return current


def predicted_sz_current(g: ScarGraph, system: SpinSystem, spec: ScarSpec) -> np.ndarray:
    """Closed form -alpha beta S^2 dn(q_n) sn(q) sum_m sigma_nm per vertex."""
    _, index, (_, _, dn) = jacobi_table(assign_site_phases(g, spec.q), spec.q.modulus)
    sn_q, _, _ = jacobi_fraction(spec.q.fraction, spec.q.modulus)
    S = system.S
    return -spec.alpha * spec.beta * S * S * dn[index] * sn_q * vertex_flow(g)
