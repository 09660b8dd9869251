"""Multi-start Newton search that `scarlab.frames` replaced with the eigen-axes
of M, kept as the oracle of the closed form.

solve_frame_angles is the root search as it was: 65 starts, up to 60 damped
Newton steps each with a differenced Jacobian, the absolute 1e-12 root filter.
On a generic M its root list equals `scarlab.frames.solve_frame_angles`.  At
gimbal lock (an eigen-axis along x, psi free) it returns a sample of the
continuum that depends on its start grid, so only the first root compares.
"""

import math

from scarlab.errors import NoRootFound
from scarlab.frames import CsseCouplings, _canonicalize, angle_equations

_ROOT_TOL = 1e-12


def solve_frame_angles(c: CsseCouplings, grid: int = 8) -> list[tuple[float, float]]:
    """All distinct (psi, phi) roots in [0, pi)^2 of the angle equations.

    Multi-start Newton with a numerically differenced Jacobian; roots are kept
    only if the residual re-evaluates below 1e-12.  Sorted by psi^2 + phi^2 so
    the first entry is the canonical root.
    """
    roots: list[tuple[float, float]] = []
    h = 1e-7
    starts = [(math.pi * (i + 0.5) / grid, math.pi * (j + 0.5) / grid)
              for i in range(grid) for j in range(grid)]
    starts.insert(0, (0.0, 0.0))
    for psi0, phi0 in starts:
        psi, phi = psi0, phi0
        converged = False
        for _ in range(60):
            f1, f2 = angle_equations(c, psi, phi)
            if math.hypot(f1, f2) < 1e-14:
                converged = True
                break
            j11 = (angle_equations(c, psi + h, phi)[0] - angle_equations(c, psi - h, phi)[0]) / (2 * h)
            j12 = (angle_equations(c, psi, phi + h)[0] - angle_equations(c, psi, phi - h)[0]) / (2 * h)
            j21 = (angle_equations(c, psi + h, phi)[1] - angle_equations(c, psi - h, phi)[1]) / (2 * h)
            j22 = (angle_equations(c, psi, phi + h)[1] - angle_equations(c, psi, phi - h)[1]) / (2 * h)
            det = j11 * j22 - j12 * j21
            if abs(det) < 1e-14:
                break
            dpsi = (f1 * j22 - f2 * j12) / det
            dphi = (f2 * j11 - f1 * j21) / det
            step = math.hypot(dpsi, dphi)
            if step > 1.0:               # damp wild Newton steps
                dpsi, dphi = dpsi / step, dphi / step
            psi, phi = psi - dpsi, phi - dphi
            if step < 1e-15:
                converged = True
                break
        if not converged:
            continue
        cpsi, cphi = _canonicalize(psi, phi)
        f1, f2 = angle_equations(c, cpsi, cphi)
        if max(abs(f1), abs(f2)) > _ROOT_TOL:
            continue
        if not any(abs(cpsi - r[0]) < 1e-7 and abs(cphi - r[1]) < 1e-7 for r in roots):
            roots.append((cpsi, cphi))
    if not roots:
        raise NoRootFound("no (psi, phi) root found from any start point")
    roots.sort(key=lambda r: (r[0] * r[0] + r[1] * r[1], r))
    return roots
