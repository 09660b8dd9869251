"""Jacobi elliptic functions and elliptic integrals on the real line.

Everything is evaluated with the arithmetic-geometric mean (AGM) /
descending-Landen scheme: the complete integral K(kappa) is pi/(2*AGM(1, kappa')),
and sn/cn/dn come from the AGM amplitude back-substitution.  The incomplete
integral F(phi, kappa) is Carlson's symmetric R_F, evaluated by duplication to
double rounding at a fixed, small cost even as kappa -> 1; it is the inverse
map used to recover q from XYZ couplings.

complete_K_array and jacobi_array evaluate many points in one numpy pass and
reproduce the scalar functions bit for bit; the scalar functions stay the
cheaper path for a single point.

The modulus convention is kappa (not the parameter m = kappa^2) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (InvalidInput, ModulusOutOfRange, OrderingViolated,
                     PoleAtQuarterPeriod, ScarlabError)

_AGM_TOL = 1e-16      # convergence threshold on the modulus sequence c_n
_SC_POLE_TOL = 1e-12  # |cn| below this counts as a quarter-period pole


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


@dataclass(frozen=True)
class EllipticModulus:
    """kappa together with its complement and quarter period K(kappa)."""

    kappa: float
    kappa_prime: float
    quarter_period: float

    @classmethod
    def from_kappa(cls, kappa: float) -> "EllipticModulus":
        _check_modulus(kappa)
        return cls(kappa=float(kappa),
                   kappa_prime=math.sqrt(1.0 - kappa * kappa),
                   quarter_period=complete_K(kappa))


@dataclass(frozen=True)
class CommensurateQ:
    """q = 4 p K(kappa) / denom with the exact rational tag p/denom retained."""

    p: int
    denominator: int
    modulus: EllipticModulus
    value: float

    @classmethod
    def make(cls, p: int, denominator: int, kappa: float) -> "CommensurateQ":
        if denominator < 1:
            raise InvalidInput("denominator must be >= 1")
        mod = EllipticModulus.from_kappa(kappa)
        value = 4.0 * p * mod.quarter_period / denominator
        return cls(p=int(p), denominator=int(denominator), modulus=mod, value=value)

    @property
    def fraction(self) -> Fraction:
        """Exact q / (4K)."""
        return Fraction(self.p, self.denominator)


def commensurate_q(p: int, denom: int, kappa: float) -> CommensurateQ:
    return CommensurateQ.make(p, denom, kappa)


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


def jacobi(u: float, kappa: float) -> tuple[float, float, float]:
    """Simultaneous (sn, cn, dn) at real argument u, modulus kappa."""
    mod = EllipticModulus.from_kappa(kappa)
    return _jacobi_reduced(u, mod)


def jacobi_fraction(frac: Fraction, modulus: EllipticModulus) -> tuple[float, float, float]:
    """(sn, cn, dn) at u = 4K * frac, reducing on the exact rational tag.

    The tag is wrapped modulo 1 before touching floats, so many-period
    arguments lose no precision.
    """
    r = frac - math.floor(frac)
    u = 4.0 * modulus.quarter_period * float(r)
    return _jacobi_reduced(u, modulus)


# The array kernel below repeats the scalar path operation for operation, so
# each element is bit-identical to complete_K / _jacobi_reduced.  numpy's
# sin, cos and sqrt agree with libm bit for bit; numpy's arcsin and x*x do
# not always agree with math.asin and x ** 2 (libm pow), so those two run
# element by element through the Python functions.
_asin = np.frompyfunc(math.asin, 1, 1)
_pow = np.frompyfunc(pow, 2, 1)


def _modulus_array(kappa) -> np.ndarray:
    kappa = np.asarray(kappa, dtype=float)
    ok = (kappa >= 0.0) & (kappa < 1.0)
    if not ok.all():
        raise ModulusOutOfRange(f"kappa must lie in [0, 1), got {kappa[~ok].flat[0]}")
    return kappa


def complete_K_array(kappa) -> np.ndarray:
    """complete_K elementwise over an array of moduli, bit for bit."""
    kappa = _modulus_array(kappa)
    a, b = np.ones_like(kappa), np.sqrt(1.0 - kappa * kappa)
    # |a - b| <= 1e-16 a is below one ulp, so a == b, and further steps
    # leave a converged element unchanged: no per-element stop is needed
    for _ in range(64):
        if np.all(np.abs(a - b) <= _AGM_TOL * a):
            break
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return math.pi / (a + b)


def jacobi_array(u, kappa, K) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sn, cn, dn) arrays over broadcast u, kappa and K = complete_K_array(kappa).

    Element for element bit-identical to _jacobi_reduced: the 4K/2K/K
    reduction is applied by masks, the descending AGM runs to a stop index
    n per element, and the amplitude back-substitution step i is applied
    only where i <= n.
    """
    u, kappa, K = np.broadcast_arrays(np.asarray(u, dtype=float), _modulus_array(kappa),
                                      np.asarray(K, dtype=float))
    shape = u.shape
    u, kappa, K = u.ravel(), kappa.ravel(), K.ravel()
    t = np.fmod(u, 4.0 * K)
    t = np.where(t < 0.0, t + 4.0 * K, t)
    half = t >= 2.0 * K                 # sn(u+2K) = -sn, cn(u+2K) = -cn, dn unchanged
    t = np.where(half, t - 2.0 * K, t)
    sign_sn = np.where(half, -1.0, 1.0)
    fold = t > K                        # sn(2K-u) = sn, cn(2K-u) = -cn, dn unchanged
    t = np.where(fold, 2.0 * K - t, t)
    sign_cn = np.where(fold, -sign_sn, sign_sn)

    a, b, c = np.ones_like(kappa), np.sqrt(1.0 - kappa * kappa), kappa
    n = np.zeros(kappa.shape, dtype=int)
    ratios = []                         # c_i / a_i at AGM step i = 1, 2, ...
    for _ in range(64):
        going = ~(c <= _AGM_TOL)        # a stopped element keeps its a, b, c
        if not going.any():
            break
        a, b, c = (np.where(going, new, old) for new, old in
                   ((0.5 * (a + b), a), (np.sqrt(a * b), b), (0.5 * (a - b), c)))
        n += going
        ratios.append(c / a)
    phi = np.ldexp(a, n) * t            # (2 ** n) * a_n * t
    for i in range(len(ratios), 0, -1):
        on = n >= i
        s = np.clip(ratios[i - 1][on] * np.sin(phi[on]), -1.0, 1.0)
        phi[on] = 0.5 * (phi[on] + _asin(s).astype(float))
    sn, cn = np.sin(phi), np.cos(phi)
    dn = np.sqrt(np.maximum(0.0, 1.0 - _pow(kappa * sn, 2).astype(float)))
    return tuple(x.reshape(shape) for x in (sign_sn * sn, sign_cn * cn, dn))


def jacobi_sc(u: float, kappa: float) -> float:
    """sc(u, kappa) = sn/cn; raises at the quarter-period poles."""
    sn, cn, _ = jacobi(u, kappa)
    if abs(cn) < _SC_POLE_TOL:
        raise PoleAtQuarterPeriod(f"cn({u}, {kappa}) = {cn:.2e}; u is at an odd multiple of K")
    return sn / cn


_RF_Q_SCALE = (3.0 * 2.0 ** -53) ** (-1.0 / 6.0)   # Carlson's (3r)^(-1/6), r = double eps


def _carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's symmetric integral R_F(x, y, z) by duplication.

    x, y, z >= 0 with at most one of them zero.  Iterates until the spread
    of the arguments is below double rounding, then sums the fifth-order
    series (Carlson, Numer. Algorithms 10, 13 (1995)).
    """
    a0 = a = (x + y + z) / 3.0
    q = _RF_Q_SCALE * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    scale = 1.0                      # 4^-m after m duplications
    x0, y0 = x, y
    while q * scale >= abs(a):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        scale *= 0.25
    X = (a0 - x0) * scale / a
    Y = (a0 - y0) * scale / a
    Z = -X - Y
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(a)


def incomplete_F(phi: float, kappa: float) -> float:
    """Incomplete elliptic integral of the first kind F(phi, kappa).

    With phi = n pi + r, |r| <= pi/2:  F = 2 n K + sin r R_F(cos^2 r, 1 - kappa^2 sin^2 r, 1).
    """
    _check_modulus(kappa)
    n = round(phi / math.pi)
    r = phi - n * math.pi
    s, c = math.sin(r), math.cos(r)
    F = s * _carlson_rf(c * c, 1.0 - (kappa * s) ** 2, 1.0) if s else 0.0
    return 2.0 * n * complete_K(kappa) + F if n else F


def solve_q_kappa(Jx: float, Jy: float, Jz: float) -> tuple[float, EllipticModulus]:
    """Invert dn(q) = Jx/Jy, cn(q) = Jz/Jy, kappa^2 = (Jy^2-Jx^2)/(Jy^2-Jz^2).

    Requires the ordering Jy >= Jx > Jz with Jy > 0.  The returned pair is
    re-checked against the defining relations to 1e-12.
    """
    if not (Jy >= Jx > Jz) or Jy <= 0.0:
        raise OrderingViolated(f"need Jy >= Jx > Jz with Jy > 0, got ({Jx}, {Jy}, {Jz})")
    kappa2 = (Jy * Jy - Jx * Jx) / (Jy * Jy - Jz * Jz)
    kappa = math.sqrt(max(0.0, kappa2))
    mod = EllipticModulus.from_kappa(kappa)
    q = incomplete_F(math.acos(Jz / Jy), kappa)
    _, cn, dn = _jacobi_reduced(q, mod)
    if abs(dn - Jx / Jy) > 1e-12 or abs(cn - Jz / Jy) > 1e-12:
        raise ScarlabError(
            f"q-kappa inversion inconsistent: dn residual {dn - Jx / Jy:.2e}, "
            f"cn residual {cn - Jz / Jy:.2e}")
    return q, mod
