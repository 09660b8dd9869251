"""Scalar AGM/Landen evaluation that `scarlab.elliptic` replaced with its array
kernel, kept as the bit-identity oracle.

complete_K, _agm_scheme, _jacobi_core, _jacobi_reduced and jacobi_fraction
are the scalar path as it was, one Python float at a time.  complete_K_array and
jacobi_array (and every scalar name built on them) must agree with these bit
for bit.
"""

import math
from fractions import Fraction

from scarlab.elliptic import EllipticModulus
from scarlab.errors import ModulusOutOfRange

_AGM_TOL = 1e-16      # convergence threshold on the modulus sequence c_n


def _check_modulus(kappa: float) -> None:
    if not 0.0 <= kappa < 1.0:
        raise ModulusOutOfRange(f"kappa must lie in [0, 1), got {kappa}")


def complete_K(kappa: float) -> float:
    """Complete elliptic integral of the first kind, K(kappa) = pi/(2*AGM(1, kappa'))."""
    _check_modulus(kappa)
    a, b = 1.0, math.sqrt(1.0 - kappa * kappa)
    for _ in range(64):
        if abs(a - b) <= _AGM_TOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b)


def modulus(kappa: float) -> EllipticModulus:
    """EllipticModulus.from_kappa with the reference K."""
    _check_modulus(kappa)
    return EllipticModulus(kappa=float(kappa), kappa_prime=math.sqrt(1.0 - kappa * kappa),
                           quarter_period=complete_K(kappa))


def _agm_scheme(kappa: float):
    """Descending AGM sequence (a_n, c_n) down to c_n < 1e-16."""
    a, b, c = 1.0, math.sqrt(1.0 - kappa * kappa), kappa
    seq_a, seq_c = [a], [c]
    for _ in range(64):
        if c <= _AGM_TOL:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        seq_a.append(a)
        seq_c.append(c)
    return seq_a, seq_c


def _jacobi_core(u: float, kappa: float):
    """sn, cn, dn for u already reduced into [0, K]; AGM amplitude back-substitution."""
    seq_a, seq_c = _agm_scheme(kappa)
    n = len(seq_a) - 1
    phi = (2 ** n) * seq_a[n] * u
    for i in range(n, 0, -1):
        phi = 0.5 * (phi + math.asin(max(-1.0, min(1.0, seq_c[i] / seq_a[i] * math.sin(phi)))))
    sn = math.sin(phi)
    cn = math.cos(phi)
    dn = math.sqrt(max(0.0, 1.0 - (kappa * sn) ** 2))
    return sn, cn, dn


def _jacobi_reduced(u: float, modulus: EllipticModulus) -> tuple[float, float, float]:
    """Reduce u modulo 4K, fold into [0, K] by the half/quarter-period symmetries."""
    K = modulus.quarter_period
    t = math.fmod(u, 4.0 * K)
    if t < 0.0:
        t += 4.0 * K
    sign_sn = sign_cn = 1.0
    if t >= 2.0 * K:          # sn(u+2K) = -sn, cn(u+2K) = -cn, dn unchanged
        t -= 2.0 * K
        sign_sn = sign_cn = -1.0
    if t > K:                 # sn(2K-u) = sn, cn(2K-u) = -cn, dn unchanged
        t = 2.0 * K - t
        sign_cn = -sign_cn
    sn, cn, dn = _jacobi_core(t, modulus.kappa)
    return sign_sn * sn, sign_cn * cn, dn


def jacobi_fraction(frac: Fraction, modulus: EllipticModulus) -> tuple[float, float, float]:
    """(sn, cn, dn) at u = 4K * frac, reducing on the exact rational tag."""
    r = frac - math.floor(frac)
    u = 4.0 * modulus.quarter_period * float(r)
    return _jacobi_reduced(u, modulus)
