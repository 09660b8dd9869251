"""Jacobi elliptic functions and elliptic integrals on the real line.

Everything is evaluated with the arithmetic-geometric mean (AGM) /
descending-Landen scheme: the complete integral K(kappa) is pi/(2*AGM(1, kappa')),
and sn/cn/dn come from the AGM amplitude back-substitution.  The incomplete
integral F(phi, kappa) is Carlson's symmetric R_F, evaluated by duplication to
double rounding at a fixed, small cost even as kappa -> 1; it is the inverse
map used to recover q from XYZ couplings.

There is one AGM/Landen kernel, complete_K_array and jacobi_array, one numpy
pass over whole arrays.  The scalar names (complete_K, jacobi, ...) are 0-d
calls of it returning Python floats; a 0-d call costs 0.03-0.25 ms, so a
caller with many points makes one call (jacobi_table for exact rational tags).

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


def complete_K(kappa: float) -> float:
    """Complete elliptic integral of the first kind, K(kappa) = pi/(2*AGM(1, kappa'))."""
    return float(complete_K_array(kappa))


@dataclass(frozen=True)
class EllipticModulus:
    """kappa together with its complement and quarter period K(kappa)."""

    kappa: float
    kappa_prime: float
    quarter_period: float

    @classmethod
    def from_kappa(cls, kappa: float) -> "EllipticModulus":
        K = complete_K(kappa)       # rejects kappa outside [0, 1)
        return cls(kappa=float(kappa), kappa_prime=math.sqrt(1.0 - kappa * kappa),
                   quarter_period=K)


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


def _jacobi_reduced(u: float, modulus: EllipticModulus) -> tuple[float, float, float]:
    """(sn, cn, dn) at one real u, as floats: a 0-d jacobi_array call."""
    return tuple(float(f) for f in jacobi_array(u, modulus.kappa, modulus.quarter_period))


def jacobi(u: float, kappa: float) -> tuple[float, float, float]:
    """Simultaneous (sn, cn, dn) at real argument u, modulus kappa."""
    return _jacobi_reduced(u, EllipticModulus.from_kappa(kappa))


def jacobi_fraction(frac: Fraction, modulus: EllipticModulus) -> tuple[float, float, float]:
    """(sn, cn, dn) at u = 4K * frac, reducing on the exact rational tag.

    The tag is wrapped modulo 1 before touching floats, so many-period
    arguments lose no precision.
    """
    u = 4.0 * modulus.quarter_period * float(frac - math.floor(frac))
    return _jacobi_reduced(u, modulus)


def jacobi_table(fracs, modulus: EllipticModulus):
    """jacobi_fraction at many exact tags: (winding, index, (sn, cn, dn) arrays).

    The tags go over one common denominator L as integer numerators n:
    winding = n // L per tag, and index points at the distinct reduced tag
    (n % L) / L, where the elliptic functions are evaluated once, in one
    jacobi_array call on u = 4K * (r / L), the operations of jacobi_fraction.
    """
    dens = [f.denominator for f in fracs]
    L = math.lcm(*set(dens))
    num = np.array([f.numerator * (L // d) for f, d in zip(fracs, dens)], dtype=np.int64)
    winding, reduced = np.divmod(num, L)
    distinct, index = np.unique(reduced, return_inverse=True)
    K = modulus.quarter_period
    u = 4.0 * K * np.array([r / L for r in distinct.tolist()])
    return winding, index, jacobi_array(u, modulus.kappa, K)


# Per element the kernel repeats the operations of the scalar reference in
# tests/elliptic_reference.py, bit for bit.  numpy's sin, cos and sqrt agree
# with libm; numpy's arcsin and x*x do not always agree with math.asin and
# x ** 2 (libm pow), so those two run element by element through Python.
_asin = np.frompyfunc(math.asin, 1, 1)
_pow = np.frompyfunc(pow, 2, 1)


def _modulus_array(kappa) -> np.ndarray:
    kappa = np.asarray(kappa, dtype=float)
    ok = (kappa >= 0.0) & (kappa < 1.0)
    if not ok.all():
        raise ModulusOutOfRange(f"kappa must lie in [0, 1), got {kappa[~ok].flat[0]}")
    return kappa


def complete_K_array(kappa) -> np.ndarray:
    """K(kappa) = pi/(2*AGM(1, kappa')) elementwise over an array of moduli."""
    kappa = _modulus_array(kappa)
    a, b = np.ones_like(kappa), np.sqrt(1.0 - kappa * kappa)
    # stop at the fixed point of the step: about one modulus in four (0.6
    # among them) settles with b one ulp below a and never reaches a == b
    for _ in range(64):
        a_next, b_next = 0.5 * (a + b), np.sqrt(a * b)
        if np.array_equal(a_next, a) and np.array_equal(b_next, b):
            break
        a, b = a_next, b_next
    return math.pi / (a + b)


def jacobi_array(u, kappa, K) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sn, cn, dn) arrays over broadcast u, kappa and K = complete_K_array(kappa).

    The 4K/2K/K reduction is applied by masks, the descending AGM runs to a
    stop index n per element, and the amplitude back-substitution step i is
    applied only where i <= n.
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


def _incomplete_F(phi: float, kappa: float, K: float) -> float:
    """F(phi, kappa) given K = K(kappa)."""
    n = round(phi / math.pi)
    r = phi - n * math.pi
    s, c = math.sin(r), math.cos(r)
    F = s * _carlson_rf(c * c, 1.0 - (kappa * s) ** 2, 1.0) if s else 0.0
    return 2.0 * n * K + F if n else F


def incomplete_F(phi: float, kappa: float) -> float:
    """Incomplete elliptic integral of the first kind F(phi, kappa).

    With phi = n pi + r, |r| <= pi/2:  F = 2 n K + sin r R_F(cos^2 r, 1 - kappa^2 sin^2 r, 1).
    """
    return _incomplete_F(phi, kappa, complete_K(kappa))


def solve_q_kappa_array(Jx, Jy, Jz):
    """(q, kappa, K, cn(q), dn(q)) arrays for couplings ordered Jy >= Jx > Jz, Jy > 0.

    kappa^2 = (Jy^2-Jx^2)/(Jy^2-Jz^2) and q = F(arccos(Jz/Jy), kappa), with
    one complete_K_array and one jacobi_array call for all elements; the
    inversion is exact where dn(q) = Jx/Jy and cn(q) = Jz/Jy.
    """
    Jx, Jy, Jz = (np.asarray(J, dtype=float) for J in (Jx, Jy, Jz))
    kappa = np.sqrt(np.maximum(0.0, (Jy * Jy - Jx * Jx) / (Jy * Jy - Jz * Jz)))
    K = complete_K_array(kappa)
    q = np.array([_incomplete_F(math.acos(z / y), k, KK) for z, y, k, KK in
                  zip(*(x.ravel().tolist() for x in (Jz, Jy, kappa, K)))]).reshape(K.shape)
    _, cn, dn = jacobi_array(q, kappa, K)
    return q, kappa, K, cn, dn


def solve_q_kappa(Jx: float, Jy: float, Jz: float) -> tuple[float, EllipticModulus]:
    """Invert dn(q) = Jx/Jy, cn(q) = Jz/Jy, kappa^2 = (Jy^2-Jx^2)/(Jy^2-Jz^2).

    Requires the ordering Jy >= Jx > Jz with Jy > 0.  The returned pair is
    re-checked against the defining relations to 1e-12.
    """
    if not (Jy >= Jx > Jz) or Jy <= 0.0:
        raise OrderingViolated(f"need Jy >= Jx > Jz with Jy > 0, got ({Jx}, {Jy}, {Jz})")
    q, kappa, K, cn, dn = (float(x) for x in solve_q_kappa_array(Jx, Jy, Jz))
    if abs(dn - Jx / Jy) > 1e-12 or abs(cn - Jz / Jy) > 1e-12:
        raise ScarlabError(
            f"q-kappa inversion inconsistent: dn residual {dn - Jx / Jy:.2e}, "
            f"cn residual {cn - Jz / Jy:.2e}")
    return q, EllipticModulus(kappa=kappa, kappa_prime=math.sqrt(1.0 - kappa * kappa),
                              quarter_period=K)
