"""Reduce a centrosymmetric spin-exchange (CSSE) coupling to XYZ form.

The CSSE bond is the symmetric 3x3 matrix

    M = [[J1, J12, J13], [J12, J2, J23], [J13, J23, J3]],

and the reduction is a sequence of SO(3) frame rotations Rx(psi), Ry(phi),
Rz(theta) that diagonalizes M.  (psi, phi) turns an eigen-axis of M onto z in
closed form, which zeroes the xz and yz couplings; theta then kills the
remaining xy coupling.  The eigenvalues of M cross-check the whole procedure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidInput, NoRootFound

_ROOT_TOL = 1e-12


@dataclass(frozen=True)
class CsseCouplings:
    J1: float
    J2: float
    J3: float
    J12: float = 0.0
    J13: float = 0.0
    J23: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite(self.matrix())):
            raise InvalidInput(f"couplings must be finite, got {self}")

    @classmethod
    def from_json(cls, text: str) -> "CsseCouplings":
        doc, names = json.loads(text), [f.name for f in fields(cls)]
        if not (isinstance(doc, dict) and set(doc) <= set(names)
                and all(type(v) in (int, float) for v in doc.values())):
            raise InvalidInput(f"couplings file: expected an object of numbers keyed by "
                               f"{', '.join(names)}, got {doc!r:.80}")
        return cls(**{k: float(doc.get(k, 0.0)) for k in names})

    def matrix(self) -> np.ndarray:
        return np.array([[self.J1, self.J12, self.J13],
                         [self.J12, self.J2, self.J23],
                         [self.J13, self.J23, self.J3]])


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def angle_equations(c: CsseCouplings, psi: float, phi: float) -> tuple[float, float]:
    """The two conditions that remove the xz and yz couplings after Rx, Ry."""
    sp, cp = math.sin(psi), math.cos(psi)
    s2p, c2p = math.sin(2 * psi), math.cos(2 * psi)
    sf, cf = math.sin(phi), math.cos(phi)
    s2f, c2f = math.sin(2 * phi), math.cos(2 * phi)
    f1 = (c.J13 * sp - c.J12 * cp) * sf + (0.5 * (c.J2 - c.J3) * s2p + c.J23 * c2p) * cf
    f2 = (0.5 * s2f) * (-c.J1 + c.J2 * sp * sp + c.J3 * cp * cp) \
        + (c.J12 * sp + c.J13 * cp) * c2f + 0.5 * c.J23 * s2p * s2f
    return f1, f2


def primed_couplings(c: CsseCouplings, psi: float, phi: float) -> tuple[float, float, float, float]:
    """(J'x, J'y, J'z, J'xy) after the Rx(psi), Ry(phi) rotations (closed form)."""
    sp, cp = math.sin(psi), math.cos(psi)
    s2p = math.sin(2 * psi)
    sf, cf = math.sin(phi), math.cos(phi)
    s2f = math.sin(2 * phi)
    jx = (c.J1 * cf * cf + c.J2 * sf * sf * sp * sp + c.J3 * sf * sf * cp * cp
          + c.J12 * s2f * sp + c.J13 * s2f * cp + c.J23 * sf * sf * s2p)
    jy = c.J2 * cp * cp + c.J3 * sp * sp - c.J23 * s2p
    jz = (c.J1 * sf * sf + c.J2 * cf * cf * sp * sp + c.J3 * cf * cf * cp * cp
          - c.J12 * s2f * sp - c.J13 * s2f * cp + c.J23 * cf * cf * s2p)
    jxy = (c.J12 * cf * cp - c.J13 * cf * sp + c.J23 * sf * math.cos(2 * psi)
           + 0.5 * (c.J2 - c.J3) * sf * s2p)
    return jx, jy, jz, jxy


def primed_matrix(c: CsseCouplings, psi: float, phi: float) -> np.ndarray:
    """Conjugated coupling matrix; equals the closed forms on the x/y/z/xy slots."""
    rot = rot_y(phi) @ rot_x(psi)
    return rot @ c.matrix() @ rot.T


def _canonicalize(psi: float, phi: float) -> tuple[float, float]:
    """Map a root into [0, pi)^2 using the (psi+pi, pi-phi) and phi+pi symmetries."""
    psi = psi % (2 * math.pi)
    if psi >= math.pi - 1e-12:
        psi -= math.pi
        phi = math.pi - phi
    if psi < 0.0:
        psi = 0.0
    phi = phi % math.pi
    if phi > math.pi - 1e-12:
        phi = 0.0
    return psi, phi


def solve_frame_angles(c: CsseCouplings) -> list[tuple[float, float]]:
    """All (psi, phi) roots in [0, pi)^2 of the angle equations, one per eigen-axis of M.

    Ry(phi) Rx(psi) maps +-(-sin phi, sin psi cos phi, cos psi cos phi) to e_z; at
    gimbal lock (an axis along e_x) psi is free and taken as 0.  Roots with residual
    above 1e-12 max(1, max|M|) are dropped; the smallest psi^2 + phi^2 comes first.
    """
    m = c.matrix()
    tol = _ROOT_TOL * max(1.0, float(np.abs(m).max()))
    axes = [_canonicalize(math.atan2(v[1], v[2]), math.atan2(-v[0], math.hypot(v[1], v[2])))
            for v in np.linalg.eigh(m)[1].T]
    roots = [r for r in axes if max(map(abs, angle_equations(c, *r))) <= tol]
    if not roots:
        raise NoRootFound("no eigen-axis of M satisfies the angle equations")
    return sorted(roots, key=lambda r: (r[0] * r[0] + r[1] * r[1], r))


@dataclass(frozen=True)
class FrameSolution:
    psi: float
    phi: float
    theta: float
    primed: tuple[float, float, float, float]
    xyz: tuple[float, float, float]
    residual: float

    def rotation(self) -> np.ndarray:
        """Composed lab-from-xyz rotation G with G^T M G = diag(Jx, Jy, Jz)."""
        return rot_x(self.psi).T @ rot_y(self.phi).T @ rot_z(self.theta)


def xyz_reduction(c: CsseCouplings) -> FrameSolution:
    """Full CSSE -> XYZ reduction; Jy >= Jx by choice of the theta branch."""
    psi, phi = solve_frame_angles(c)[0]
    jxp, jyp, jzp, jxyp = primed_couplings(c, psi, phi)
    theta = 0.5 * math.atan2(2.0 * jxyp, jxp - jyp)
    mp = primed_matrix(c, psi, phi)
    rz = rot_z(theta)
    mz = rz.T @ mp @ rz
    if mz[0, 0] > mz[1, 1]:              # enforce Jy >= Jx
        theta += 0.5 * math.pi
        rz = rot_z(theta)
        mz = rz.T @ mp @ rz
    jx, jy, jz = float(mz[0, 0]), float(mz[1, 1]), float(mz[2, 2])
    off = max(abs(mz[0, 1]), abs(mz[0, 2]), abs(mz[1, 2]))
    f1, f2 = angle_equations(c, psi, phi)
    return FrameSolution(psi=psi, phi=phi, theta=theta,
                         primed=(jxp, jyp, jzp, jxyp), xyz=(jx, jy, jz),
                         residual=float(max(abs(f1), abs(f2), off)))
