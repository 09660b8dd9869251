"""Diagonalization utilities, degeneracy counting, and the scan."""

import json

import numpy as np
import pytest
from spectra_reference import translation_sectors

from scarlab import spectra, spinops
from scarlab.elliptic import commensurate_q, jacobi_fraction
from scarlab.errors import DimensionCap, InvalidInput, NotTranslationInvariant
from scarlab.frames import CsseCouplings
from scarlab.hamiltonian import build_csse_chain, build_xyz_chain
from scarlab.scar import gz_energy
from scarlab.spectra import (DegeneracyScan, degeneracy_at, full_spectrum, is_special_q,
                             scan_degeneracy)


def test_full_spectrum_matches_numpy():
    H = build_xyz_chain(4, 0.5, 0.7, 1.0, 0.2)
    evals, evecs = full_spectrum(H)
    want = np.linalg.eigvalsh(H.matrix.toarray())
    assert np.abs(evals - want).max() <= 1e-12
    recon = evecs @ np.diag(evals) @ evecs.conj().T
    assert np.abs(recon - H.matrix.toarray()).max() <= 1e-10


def test_full_spectrum_dimension_cap():
    H = build_xyz_chain(8, 1.5, 1.0, 1.0, 1.0)   # V of dim 4^8 = 65536 is 64 GiB complex
    with pytest.raises(DimensionCap, match="eigenvector matrix"):
        full_spectrum(H, vectors=True)


@pytest.mark.parametrize("periodic,vectors,point", [
    # an open chain with J12 has neither T nor P: every row of H is built
    (False, False, "the CSR of"),
    (True, False, "the symmetry tables of"),
    (False, False, "a dense block of"),          # no translation: blocks of 64 states
    (True, True, "the 256 x 256 eigenvector matrix"),
    # the Ising ring's E = 0 level: the 140 states with four domain walls
    (True, "window", "the 256 x 140 eigenvector matrix"),
], ids=["csr", "tables", "block", "vectors", "window"])
def test_every_budget_check_stops_before_any_solve(monkeypatch, periodic, vectors, point):
    couplings = (0.0, 0.0, 0.7) if vectors == "window" else (0.3, 1.0, 0.7)

    def chain():
        if point == "the CSR of":
            return build_csse_chain(8, 0.5, CsseCouplings(0.3, 1.0, 0.7, J12=0.2), periodic=False)
        return build_xyz_chain(8, 0.5, *couplings, periodic=periodic)

    def spectrum(H):
        return full_spectrum(H, E=0.0) if vectors == "window" else full_spectrum(H, vectors)

    checks = []                                  # (what, bytes) of every check, in order
    real = spinops.check_bytes

    def spy(nbytes, what):
        checks.append((what, nbytes))
        real(nbytes, what)
    for module in (spinops, spectra):
        monkeypatch.setattr(module, "check_bytes", spy)
    spectrum(chain())
    at = next(j for j, (what, _) in enumerate(checks) if what.startswith(point))
    need = int(checks[at][1])
    assert all(nbytes < need for _, nbytes in checks[:at])   # this check is the first to fail

    def no_solve(*args, **kwargs):
        raise AssertionError("a block was built or solved, or V written, before the budget check")
    monkeypatch.setattr(spinops, "MEMORY_BUDGET", need - 1)
    if vectors == "window":
        # the window's columns are counted once every block is solved: V is checked
        # before it is written, and its scatter is the one np.ix_ call of the window path
        monkeypatch.setattr(np, "ix_", no_solve)
    else:
        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, no_solve)
        monkeypatch.setattr(spectra, "_dense_block", no_solve)
    H = chain()
    with pytest.raises(DimensionCap, match=f"^{point}"):
        spectrum(H)


def test_degeneracy_counting_and_gap_audit():
    evals = np.array([-1.0, 0.0, 0.0, 0.0, 0.5, 2.0])
    res = degeneracy_at(evals, 0.0, tol=1e-6)
    assert res.count == 3
    assert res.gap == pytest.approx(0.5)
    assert res.resolved
    crowded = degeneracy_at(np.array([0.0, 1e-7, 1.0]), 0.0, tol=1e-6)
    # 1e-7 falls inside tol and the nearest excluded level (1.0) is far
    assert crowded.count == 2 and crowded.resolved
    tight = degeneracy_at(np.array([0.0, 5e-6, 1.0]), 0.0, tol=1e-6)
    assert tight.count == 1 and not tight.resolved


def test_scar_degeneracy_counts():
    kappa = 0.8
    for (N, S, p, want) in [(5, 1.0, 1, 20), (6, 1.0, 1, 24)]:
        q = commensurate_q(p, N, kappa)
        sn, cn, dn = jacobi_fraction(q.fraction, q.modulus)
        H = build_xyz_chain(N, S, dn, 1.0, cn)
        evals = full_spectrum(H, vectors=False)
        res = degeneracy_at(evals, gz_energy(N, S, q))
        assert res.count == want and res.resolved


def test_translation_sectors_partition_spectrum():
    N, S = 6, 0.5
    H = build_xyz_chain(N, S, 0.8, 1.0, 0.4)
    sectors = translation_sectors(H, N)
    merged = np.sort(np.concatenate(list(sectors.values())))
    full = full_spectrum(H, vectors=False)
    assert len(merged) == len(full)
    assert np.abs(merged - full).max() <= 1e-10


def test_translation_sectors_reject_open_chain():
    H = build_xyz_chain(5, 0.5, 1.0, 1.0, 0.5, periodic=False)
    with pytest.raises(NotTranslationInvariant):
        translation_sectors(H, 5)


def test_scar_states_split_across_momentum_sectors():
    # the degenerate scar multiplet spreads evenly over all momenta
    N, S, p, kappa = 5, 1.0, 1, 0.8
    q = commensurate_q(p, N, kappa)
    sn, cn, dn = jacobi_fraction(q.fraction, q.modulus)
    H = build_xyz_chain(N, S, dn, 1.0, cn)
    E = gz_energy(N, S, q)
    sectors = translation_sectors(H, N)
    counts = {k: degeneracy_at(ev, E).count for k, ev in sectors.items()}
    assert sum(counts.values()) == int(round(4 * N * S))
    assert max(counts.values()) < int(round(4 * N * S))


def test_is_special_q():
    # q = 4pK/N is a multiple of K exactly when N divides 4p
    assert is_special_q(1, 4)
    assert is_special_q(1, 2)
    assert is_special_q(3, 6)
    assert not is_special_q(1, 5)
    assert not is_special_q(1, 6)
    assert not is_special_q(2, 7)


def test_scan_rows_and_csv_format():
    scan = scan_degeneracy([0.5], [4, 5], 0.8, [1])
    rows = scan.table()
    assert list(DegeneracyScan.HEADER) == ["S", "N", "p", "kappa", "E", "count", "expected",
                                           "flag"]
    assert len(rows) == 2 and all(len(r) == len(DegeneracyScan.HEADER) for r in rows)
    by_n = {int(r[1]): r for r in rows}
    # N=4 at p=1 is the special commensurability q = K
    assert "special-q" in by_n[4][7]
    assert int(by_n[5][5]) == int(by_n[5][6]) == 10
    assert by_n[5][7] == ""
    # rerun is identical, E written as its repr
    again = scan_degeneracy([0.5], [4, 5], 0.8, [1]).table()
    assert again == rows and all(isinstance(r[4], str) for r in rows)
    doc = json.loads(json.dumps(scan.summary()))
    assert doc["gap_audit_factor"] == 10.0
    assert doc["tol_scale"] == spectra.TOL_SCALE and doc["rows"] == 2


def test_scan_isolates_row_failures():
    # a block over the memory budget must become an error row, not an exception
    scan = scan_degeneracy([2.5], [8], 0.8, [1])
    assert len(scan.rows) == 1
    assert scan.rows[0].flag.startswith("error:")
    # its largest block holds dim / 4N states or more: the row stops before H (dim 1.68M)
    assert scan.rows[0].flag == "error:DimensionCap"
    assert scan.rows[0].dim == 6 ** 8


def _no_chain(*args, **kwargs):
    raise AssertionError("H was built before the memory budget was checked")


@pytest.mark.parametrize("S,N,budget", [
    (2.5, 8, None),
    (2.5, 9, None),                               # dim 10.1M: H alone would be 5.3 GB
    (0.5, 8, 80 * 8 * 8 - 1),                     # dim / 4N = 8 states, one byte short
], ids=["S5/2-N8", "S5/2-N9", "S1/2-N8-low-budget"])
def test_scan_stops_rows_over_the_budget_before_h_is_built(monkeypatch, S, N, budget):
    monkeypatch.setattr(spectra, "build_xyz_chain", _no_chain)
    if budget is not None:
        monkeypatch.setattr(spinops, "MEMORY_BUDGET", budget)
    scan = scan_degeneracy([S], [N], 0.8, [1])
    assert scan.rows[0].flag == "error:DimensionCap"
    assert scan.rows[0].dim == round(2 * S + 1) ** N


def test_scan_skips_the_bound_where_jx_equals_jy(monkeypatch):
    # q = 2K at 4p/N = 2 gives dn = 1: Jx = Jy conserves Sz, so S=1 N=6 has more than 4N
    # blocks, the largest of 21 states, below dim / 4N = 30.4; the row goes on to build H
    monkeypatch.setattr(spectra, "build_xyz_chain", _no_chain)
    monkeypatch.setattr(spinops, "MEMORY_BUDGET", 80 * 31 * 31 - 1)
    with pytest.raises(AssertionError, match="H was built"):
        scan_degeneracy([1.0], [6], 0.6, [3])


def test_scan_bound_on_the_largest_block_holds():
    # the scan stops a row when dim / 4N states are over the budget; wherever that
    # bound is applied (Jx = dn != 1), some block of the solve is at least that large
    applied = 0
    for S, N in [(0.5, n) for n in range(3, 11)] + [(1.0, 5), (1.0, 6), (1.5, 5)]:
        for p in (1, 2, 3):
            q = commensurate_q(p, N, 0.6)
            dn = jacobi_fraction(q.fraction, q.modulus)[2]
            row = scan_degeneracy([S], [N], 0.6, [p]).rows[0]
            if 1.0 - dn > 1e-12:
                applied += 1
                assert max(row.solved_blocks + row.copied_blocks) >= row.dim / (4 * N)
    assert applied >= 25


@pytest.mark.parametrize("N_range", [[0], [1], [2], [-2, -1, 0, 1, 2, 3], [5, 2], range(1, 4)])
def test_scan_rejects_rings_below_three_sites_before_any_row(monkeypatch, N_range):
    # N = 0 divided by zero in is_special_q, and N = 1 wrote a special-q;deviates row
    def no_row(*args, **kwargs):
        raise AssertionError("a row was computed before the input check")
    monkeypatch.setattr(spectra, "is_special_q", no_row)
    with pytest.raises(InvalidInput, match=r"needs rings of N >= 3 sites, got N="):
        scan_degeneracy([0.5], N_range, 0.6, [1])


def test_scan_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in a builder")
    monkeypatch.setattr(spectra, "build_xyz_chain", broken)
    with pytest.raises(TypeError):
        scan_degeneracy([0.5], [5], 0.8, [1])


def test_scan_records_how_each_row_was_computed():
    scan = scan_degeneracy([0.5], [5], 0.8, [1])
    rec = json.loads(json.dumps(scan.summary()))["records"][0]
    assert rec["dim"] == 32 and rec["dtype"] == "float64"
    assert rec["blocks"] == [16, 16]            # the two Sz-parity sectors
    assert rec["count"] == 10 and rec["flag"] == ""
    evals = full_spectrum(build_xyz_chain(5, 0.5, *_scar_couplings(5, 0.8)), vectors=False)
    assert rec["tol"] == pytest.approx(spectra.TOL_SCALE * (evals[-1] - evals[0]))
    assert rec["gap"] >= 10.0 * rec["tol"]


def test_degeneracy_default_and_explicit_tol():
    evals = np.array([-2.0, 0.0, 1e-5, 2.0])
    strict = degeneracy_at(evals, 0.0)
    assert strict.tol == pytest.approx(4.0 * spectra.TOL_SCALE) and strict.count == 1
    loose = degeneracy_at(evals, 0.0, tol=4e-5)
    assert loose.tol == 4e-5 and loose.count == 2


def _scar_couplings(N, kappa):
    q = commensurate_q(1, N, kappa)
    _, cn, dn = jacobi_fraction(q.fraction, q.modulus)
    return dn, 1.0, cn
