"""Elliptic layer against the mpmath oracle and the classical identities."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elliptic_reference as ref
from scarlab.elliptic import (EllipticModulus, commensurate_q, complete_K,
                              complete_K_array, incomplete_F, jacobi, jacobi_array,
                              jacobi_fraction, jacobi_sc, solve_q_kappa)
from scarlab.errors import (ModulusOutOfRange, OrderingViolated,
                            PoleAtQuarterPeriod)
from scarlab.scar import gz_energy

RNG = np.random.default_rng(20240811)


def mp_jacobi(u, kappa):
    m = kappa * kappa
    return (float(mpmath.ellipfun("sn", u, m=m)),
            float(mpmath.ellipfun("cn", u, m=m)),
            float(mpmath.ellipfun("dn", u, m=m)))


def test_complete_K_against_mpmath():
    for kappa in (0.0, 0.1, 0.5, 0.9, 0.99):
        assert complete_K(kappa) == pytest.approx(
            float(mpmath.ellipk(kappa * kappa)), abs=1e-13)


def test_jacobi_against_mpmath():
    for _ in range(300):
        kappa = float(RNG.uniform(0.0, 0.97))
        u = float(RNG.uniform(-25.0, 25.0))
        got = jacobi(u, kappa)
        want = mp_jacobi(u, kappa)
        assert np.allclose(got, want, atol=5e-13)


def test_identities_random_points():
    for _ in range(2000):
        kappa = float(RNG.uniform(0.0, 0.95))
        u = float(RNG.uniform(-30.0, 30.0))
        sn, cn, dn = jacobi(u, kappa)
        assert abs(sn * sn + cn * cn - 1.0) <= 1e-11
        assert abs(dn * dn + kappa * kappa * sn * sn - 1.0) <= 1e-11


def test_periodicity_4K():
    for _ in range(500):
        kappa = float(RNG.uniform(0.0, 0.95))
        u = float(RNG.uniform(-10.0, 10.0))
        a = np.array(jacobi(u, kappa))
        b = np.array(jacobi(u + 4.0 * complete_K(kappa), kappa))
        assert np.abs(a - b).max() <= 1e-11


def test_addition_identity():
    # sn(u+v) = (sn u cn v dn v + sn v cn u dn u) / (1 - k^2 sn^2 u sn^2 v)
    for _ in range(500):
        kappa = float(RNG.uniform(0.0, 0.95))
        u, v = RNG.uniform(-5.0, 5.0, 2)
        snu, cnu, dnu = jacobi(u, kappa)
        snv, cnv, dnv = jacobi(v, kappa)
        denom = 1.0 - (kappa * snu * snv) ** 2
        want = (snu * cnv * dnv + snv * cnu * dnu) / denom
        got, _, _ = jacobi(u + v, kappa)
        assert abs(got - want) <= 1e-11


def test_trig_limit():
    for u in np.linspace(-3, 3, 17):
        sn, cn, dn = jacobi(float(u), 0.0)
        assert sn == pytest.approx(math.sin(u), abs=1e-14)
        assert cn == pytest.approx(math.cos(u), abs=1e-14)
        assert dn == pytest.approx(1.0, abs=1e-14)


def test_commensurate_q_exact_fraction():
    q = commensurate_q(3, 7, 0.6)
    assert q.fraction == Fraction(3, 7)
    assert q.value == pytest.approx(4.0 * 3 * complete_K(0.6) / 7, rel=1e-15)


def test_jacobi_fraction_special_points():
    # multiples of K land exactly on the lattice points of the functions
    mod = EllipticModulus.from_kappa(0.8)
    sn, cn, dn = jacobi_fraction(Fraction(1, 4), mod)   # u = K
    assert sn == pytest.approx(1.0, abs=1e-14)
    assert cn == pytest.approx(0.0, abs=1e-14)
    assert dn == pytest.approx(mod.kappa_prime, abs=1e-13)
    sn, cn, dn = jacobi_fraction(Fraction(1, 2), mod)   # u = 2K
    assert sn == pytest.approx(0.0, abs=1e-13)
    assert cn == pytest.approx(-1.0, abs=1e-13)


def test_jacobi_fraction_matches_float_eval():
    mod = EllipticModulus.from_kappa(0.55)
    for num in range(-9, 10):
        frac = Fraction(num, 9)
        u = 4.0 * mod.quarter_period * float(frac)
        assert np.allclose(jacobi_fraction(frac, mod), jacobi(u, mod.kappa),
                           atol=1e-11)


def test_incomplete_F_against_mpmath():
    for _ in range(100):
        kappa = float(RNG.uniform(0.0, 0.95))
        phi = float(RNG.uniform(0.0, math.pi / 2))
        assert incomplete_F(phi, kappa) == pytest.approx(
            float(mpmath.ellipf(phi, kappa * kappa)), abs=1e-12)


def test_incomplete_F_beyond_quarter_period_and_near_unit_modulus():
    # phi outside [0, pi/2] goes through F(n pi + r) = 2 n K + F(r)
    for _ in range(100):
        kappa = float(RNG.uniform(0.9, 0.99999))
        phi = float(RNG.uniform(-2.0 * math.pi, 2.0 * math.pi))
        want = float(mpmath.ellipf(phi, kappa * kappa))
        assert incomplete_F(phi, kappa) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_solve_q_kappa_near_unit_modulus():
    # kappa = 0.9997: the inversion must return, with residuals at rounding level
    jx, jy, jz = 0.19690911936288535, 0.9898076994458243, -0.1954703025328386
    q, mod = solve_q_kappa(jx, jy, jz)
    assert mod.kappa > 0.9996
    _, cn, dn = jacobi(q, mod.kappa)
    assert abs(dn - jx / jy) <= 1e-12
    assert abs(cn - jz / jy) <= 1e-12


def test_solve_q_kappa_roundtrip():
    count = 0
    while count < 50:
        vals = np.sort(RNG.uniform(-1.0, 1.0, 3))
        jz, jx, jy = float(vals[0]), float(vals[1]), float(vals[2])
        # kappa^2 = (Jy^2-Jx^2)/(Jy^2-Jz^2) <= 1 needs |Jz| < Jx
        if jy <= 0 or jx <= 0 or jx - jz < 1e-3 or jy - jx < 1e-6 or abs(jz) >= jx:
            continue
        q, mod = solve_q_kappa(jx, jy, jz)
        _, cn, dn = jacobi(q, mod.kappa)
        assert abs(dn - jx / jy) <= 1e-10
        assert abs(cn - jz / jy) <= 1e-10
        count += 1


def test_solve_q_kappa_rejects_bad_ordering():
    with pytest.raises(OrderingViolated):
        solve_q_kappa(0.9, 0.5, 0.1)


def test_modulus_range_guard():
    with pytest.raises(ModulusOutOfRange):
        EllipticModulus.from_kappa(1.0)
    with pytest.raises(ModulusOutOfRange):
        EllipticModulus.from_kappa(-0.1)
    for bad in (1.0, -0.1, float("nan")):
        with pytest.raises(ModulusOutOfRange):
            complete_K_array([0.5, bad])
        with pytest.raises(ModulusOutOfRange):
            jacobi_array([0.1, 0.2], [0.5, bad], [complete_K(0.5)] * 2)


_KAPPA = st.one_of(st.just(0.0), st.floats(0.0, 0.999))
# an argument in [-1e3, 1e3], +-0.0, or an exact integer multiple of K(kappa)
_ARG = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]),
                 st.integers(-400, 400).map(lambda k: ("K", k)))


@settings(max_examples=200, deadline=None)
@given(points=st.lists(st.tuples(_KAPPA, _ARG), min_size=1, max_size=12))
def test_array_kernel_bit_identical_to_scalar_path(points):
    kappas = [kappa for kappa, _ in points]
    Ks = [ref.complete_K(kappa) for kappa in kappas]
    us = [arg[1] * K if isinstance(arg, tuple) else arg for (_, arg), K in zip(points, Ks)]
    got_K = complete_K_array(kappas)
    assert got_K.tobytes() == np.array(Ks).tobytes()
    got = jacobi_array(us, kappas, got_K)
    want = np.array([ref._jacobi_reduced(u, ref.modulus(kappa))
                     for u, kappa in zip(us, kappas)]).reshape(-1, 3)
    for j in range(3):
        assert got[j].tobytes() == want[:, j].copy().tobytes()
    # the public scalar names are 0-d calls of the same kernel
    assert np.array([complete_K(kappa) for kappa in kappas]).tobytes() == np.array(Ks).tobytes()
    public = np.array([jacobi(u, kappa) for u, kappa in zip(us, kappas)]).reshape(-1, 3)
    assert public.tobytes() == want.tobytes()


def test_array_kernel_broadcasts_a_scalar_modulus():
    kappa = 0.7
    K = complete_K(kappa)
    us = np.linspace(-3.0 * K, 5.0 * K, 33)
    got = jacobi_array(us, kappa, K)
    assert np.shape(jacobi_array(0.25, kappa, K)[0]) == ()
    mod = ref.modulus(kappa)
    want = np.array([ref._jacobi_reduced(u, mod) for u in us.tolist()])
    assert np.array(got).T.tobytes() == want.tobytes()


def test_scalar_names_return_python_floats():
    # numpy 2 prints np.float64 as np.float64(...), and the CSVs write repr()
    mod = EllipticModulus.from_kappa(0.6)
    q, qmod = solve_q_kappa(0.8, 1.0, 0.3)
    values = [complete_K(0.6), *jacobi(1.3, 0.6), *jacobi_fraction(Fraction(3, 7), mod),
              jacobi_sc(0.4, 0.6), incomplete_F(2.0, 0.6), q,
              mod.kappa, mod.kappa_prime, mod.quarter_period,
              qmod.kappa, qmod.kappa_prime, qmod.quarter_period,
              gz_energy(5, 1.0, commensurate_q(1, 5, 0.6))]
    assert [type(v) for v in values] == [float] * len(values)


def test_sc_pole_guard():
    kappa = 0.4
    with pytest.raises(PoleAtQuarterPeriod):
        jacobi_sc(complete_K(kappa), kappa)
