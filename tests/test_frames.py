"""Frame reduction of the full symmetric exchange matrix to XYZ form.

Oracles: numpy eigendecomposition of the 3x3 coupling matrix — the reduction
is a rotation, so (Jx, Jy, Jz) must be the matrix spectrum as a set — and the
multi-start Newton search the closed form replaced (tests/frames_reference.py).
"""

import json

import frames_reference as ref
import numpy as np
import pytest

from scarlab import frames
from scarlab.errors import NoRootFound
from scarlab.frames import (CsseCouplings, angle_equations, primed_matrix,
                            solve_frame_angles, xyz_reduction)
from scarlab.hamiltonian import build_csse_chain, build_xyz_chain

RNG = np.random.default_rng(515)


def random_couplings():
    J1, J2, J3, J12, J13, J23 = RNG.uniform(-1.0, 1.0, 6)
    return CsseCouplings(J1=J1, J2=J2, J3=J3, J12=J12, J13=J13, J23=J23)


def test_angle_equations_vanish_at_roots():
    for _ in range(20):
        c = random_couplings()
        for psi, phi in solve_frame_angles(c):
            f1, f2 = angle_equations(c, psi, phi)
            assert abs(f1) <= 1e-12 and abs(f2) <= 1e-12


def test_primed_matrix_kills_xz_yz_entries():
    for _ in range(10):
        c = random_couplings()
        psi, phi = solve_frame_angles(c)[0]
        mp = primed_matrix(c, psi, phi)
        assert abs(mp[0, 2]) <= 1e-12 and abs(mp[1, 2]) <= 1e-12


def test_xyz_matches_matrix_spectrum():
    for _ in range(20):
        c = random_couplings()
        sol = xyz_reduction(c)
        assert sol.residual <= 1e-12
        got = np.sort(np.array(sol.xyz))
        want = np.sort(np.linalg.eigvalsh(c.matrix()))
        assert np.abs(got - want).max() <= 1e-10


def test_rotation_diagonalizes_and_branch():
    for _ in range(10):
        c = random_couplings()
        sol = xyz_reduction(c)
        G = sol.rotation()
        diag = G.T @ c.matrix() @ G
        assert np.abs(diag - np.diag(sol.xyz)).max() <= 1e-10
        jx, jy, _ = sol.xyz
        assert jy >= jx - 1e-12


def test_chain_spectra_match():
    # the many-body spectrum is rotation invariant bond by bond
    for _ in range(5):
        c = random_couplings()
        sol = xyz_reduction(c)
        jx, jy, jz = sol.xyz
        e_full = np.linalg.eigvalsh(build_csse_chain(4, 0.5, c).matrix.toarray())
        e_xyz = np.linalg.eigvalsh(build_xyz_chain(4, 0.5, jx, jy, jz).matrix.toarray())
        assert np.abs(e_full - e_xyz).max() <= 1e-8


def test_json_round_trip():
    c = CsseCouplings(J1=0.3, J2=-0.2, J3=0.7, J12=0.15, J13=-0.05, J23=0.1)
    text = json.dumps({"J1": 0.3, "J2": -0.2, "J3": 0.7,
                       "J12": 0.15, "J13": -0.05, "J23": 0.1})
    c2 = CsseCouplings.from_json(text)
    assert np.allclose(c.matrix(), c2.matrix(), atol=0)


def test_isotropic_couplings():
    c = CsseCouplings(J1=0.5, J2=0.5, J3=0.5, J12=0.0, J13=0.0, J23=0.0)
    sol = xyz_reduction(c)
    assert np.allclose(sol.xyz, [0.5, 0.5, 0.5], atol=1e-12)


def _from_matrix(m):
    return CsseCouplings(J1=m[0, 0], J2=m[1, 1], J3=m[2, 2],
                         J12=m[0, 1], J13=m[0, 2], J23=m[1, 2])


def _random_rotation(rng):
    qmat, rmat = np.linalg.qr(rng.normal(size=(3, 3)))
    return qmat * np.sign(np.diag(rmat))


def _oracle_cases():
    """(couplings, generic) pairs: 400 random sets, J1 = J2 on every fifth, then
    diagonal, isotropic and doubly degenerate matrices.  A generic M has three
    isolated roots; a degenerate or diagonal one has a continuum the Newton samples."""
    rng = np.random.default_rng(1602)
    cases = []
    for i in range(400):
        J = rng.uniform(-1.0, 1.0, 6)
        if i % 5 == 0:
            J[1] = J[0]
        cases.append((CsseCouplings(*J), True))
    for _ in range(8):
        cases.append((CsseCouplings(*rng.uniform(-1.0, 1.0, 3)), False))
    cases.append((CsseCouplings(J1=0.4, J2=0.4, J3=-0.3), False))
    cases.append((CsseCouplings(J1=0.5, J2=0.5, J3=0.5), False))
    # a double eigenvalue whose plane holds e_z: J3 equals an eigenvalue of the xy block
    J1, J2, J12 = rng.uniform(-1.0, 1.0, 3)
    cases.append((CsseCouplings(J1=J1, J2=J2, J12=J12,
                                J3=np.linalg.eigvalsh([[J1, J12], [J12, J2]])[0]), False))
    return cases


def test_closed_form_matches_newton_oracle(monkeypatch):
    for c, generic in _oracle_cases():
        got, want = solve_frame_angles(c), ref.solve_frame_angles(c)
        assert np.abs(np.subtract(got[0], want[0])).max() <= 1e-13, c
        if generic:
            assert len(got) == len(want) == 3, c
            assert np.abs(np.subtract(got, want)).max() <= 1e-13, c
        else:
            assert len(got) == 3 and len(want) > 3, c
        sol = xyz_reduction(c)
        monkeypatch.setattr(frames, "solve_frame_angles", lambda _c, roots=want: roots)
        oracle = xyz_reduction(c)
        monkeypatch.undo()
        scale = max(1.0, float(np.abs(c.matrix()).max()))
        assert np.abs(np.subtract(sol.xyz, oracle.xyz)).max() <= 1e-14 * scale, c


def test_one_root_per_eigen_axis_at_gimbal_lock():
    # a diagonal M puts the x eigen-axis at phi = pi/2 with psi free; psi is taken as 0
    c = CsseCouplings(J1=0.9, J2=-0.2, J3=0.4)
    assert solve_frame_angles(c) == [(0.0, 0.0), (0.0, np.pi / 2), (np.pi / 2, 0.0)]


def test_doubly_degenerate_spectrum_gives_valid_roots():
    # the double eigenvalue's plane is a continuum of eigen-axes: eigh picks two of
    # them, so only the roots' validity and the coupling set are compared
    rng = np.random.default_rng(1603)
    for _ in range(20):
        rot = _random_rotation(rng)
        c = _from_matrix(rot @ np.diag([0.3, 0.3, -0.7]) @ rot.T)
        roots = solve_frame_angles(c)
        assert len(roots) == 3
        for psi, phi in roots:
            assert np.abs(angle_equations(c, psi, phi)).max() <= 1e-14
        assert np.abs(np.sort(xyz_reduction(c).xyz) - [-0.7, 0.3, 0.3]).max() <= 1e-14


@pytest.mark.parametrize("scale", [1e4, 1e5])
def test_large_couplings_reduce(scale):
    rng = np.random.default_rng(int(scale))
    for _ in range(40):
        c = CsseCouplings(*rng.uniform(-scale, scale, 6))
        sol = xyz_reduction(c)
        want = np.linalg.eigvalsh(c.matrix())
        assert np.abs(np.sort(sol.xyz) - want).max() <= 1e-14 * scale
        assert sol.residual <= 1e-14 * scale


def test_overflowing_angle_equations_raise():
    # J2 - J3 overflows to inf in angle_equations, so no eigen-axis passes the root filter
    with pytest.raises(NoRootFound):
        xyz_reduction(CsseCouplings(J1=0.0, J2=1e308, J3=-1e308))
