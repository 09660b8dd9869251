"""Command-line interface: exit codes, outputs, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest
from spinops_reference import stub_everywhere

from scarlab import spinops
from scarlab.cli import (EXIT_INVALID, EXIT_NUMERICAL, EXIT_OK, EXIT_PHYSICS,
                         main)


def run(args):
    return main(args)


def test_elliptic_subcommand(tmp_path):
    out = str(tmp_path)
    assert run(["--out", out, "elliptic", "--points", "200"]) == EXIT_OK
    assert (tmp_path / "elliptic.csv").exists()
    doc = json.loads((tmp_path / "elliptic.json").read_text())
    assert doc["version"]
    assert doc["config"]["points"] == 200


def test_elliptic_subcommand_seed_with_near_unit_modulus(tmp_path):
    # seed 202 draws a coupling triple with kappa close to 1
    assert run(["--out", str(tmp_path), "elliptic", "--points=2000",
                "--seed=202"]) == EXIT_OK


def test_frame_subcommand(tmp_path):
    out = str(tmp_path)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"J1": 0.3, "J2": -0.2, "J3": 0.7,
                                "J12": 0.15, "J13": -0.05, "J23": 0.1}))
    assert run(["--out", out, "frame", "--couplings", str(path)]) == EXIT_OK


def test_scar_verify_chain(tmp_path, capsys):
    out = str(tmp_path)
    code = run(["--out", out, "scar-verify", "--lattice", "chain",
                "--N", "6", "--S", "1", "--p", "1", "--kappa", "0.8",
                "--gamma", "0.5", "--helicity", "+"])
    assert code == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_degeneracy_scan_csv(tmp_path):
    out = str(tmp_path)
    assert run(["--out", out, "degeneracy-scan", "--S", "1",
                "--N", "4..5", "--kappa", "0.8", "--p", "1"]) == EXIT_OK
    body1 = (tmp_path / "degeneracy_scan.csv").read_bytes()
    assert run(["--out", out, "degeneracy-scan", "--S", "1",
                "--N", "4..5", "--kappa", "0.8", "--p", "1"]) == EXIT_OK
    assert (tmp_path / "degeneracy_scan.csv").read_bytes() == body1
    doc = json.loads((tmp_path / "degeneracy_scan.json").read_text())
    assert doc["config"]["kappa"] == 0.8
    assert set(doc) == {"tol_scale", "gap_audit_factor", "memory_budget", "rows", "records",
                        "config", "version", "timestamp"}
    assert doc["memory_budget"] == spinops.MEMORY_BUDGET
    assert doc["rows"] == len(doc["records"]) == 2
    # the bytes of the largest block, as checked against the budget: five complex arrays
    for rec in doc["records"]:
        assert rec["largest_block_bytes"] == 80 * max(rec["solved_blocks"] + rec["copied_blocks"]) ** 2


def test_projections_subcommand(tmp_path):
    out = str(tmp_path)
    assert run(["--out", out, "projections", "--N", "6", "--S", "1",
                "--p", "1", "--kappa", "0.8"]) == EXIT_OK


def test_projections_skips_every_shared_state(tmp_path):
    # at p = 2, N = 4, 2mp/N is an integer for every m: the towers share every
    # state, and counting them in P- would break P+ + P- <= 1
    assert run(["--out", str(tmp_path), "projections", "--N", "4", "--S", "1/2",
                "--p", "2", "--kappa", "0.5", "--gammas", "0.2"]) == EXIT_OK
    row = (tmp_path / "projections.csv").read_text().splitlines()[1].split(",")
    assert float(row[1]) + float(row[2]) <= 1.0 + 1e-12


def test_projections_at_n24_builds_no_tower_and_no_state(tmp_path, capsys, monkeypatch):
    # two towers of 25 states of 2^24 amplitudes were 12.5 GiB: this exited 2 at the
    # memory budget; the closed form reads the site vectors alone
    from scarlab import scar

    def no_work(*args, **kwargs):
        raise AssertionError("projections built a tower, an operator or a (2S+1)^N state")
    stub_everywhere(monkeypatch, {scar.helical_tower: no_work, spinops.tower: no_work,
                                  spinops.local_sum: no_work,
                                  spinops.coherent_product_state: no_work})
    assert run(["--out", str(tmp_path), "projections", "--N", "24", "--S", "1/2"]) == EXIT_OK
    assert capsys.readouterr().out.count("PASS: ") == 1
    assert len((tmp_path / "projections.csv").read_text().splitlines()) == 10


@pytest.mark.parametrize("N", ["0", "-3"])
def test_projections_needs_a_site(tmp_path, capsys, N):
    assert run(["--out", str(tmp_path), "projections", "--N", N, "--S", "1/2"]) == EXIT_INVALID
    cap = capsys.readouterr()
    assert cap.err == f"invalid input: need at least one site, got N={N}\n" and not cap.out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["scar-verify", "--N", "6", "--gamma", "nan"],
                                  ["projections", "--N", "6", "--gammas", "0.2,nan"],
                                  ["projections", "--N", "6", "--gammas", "inf"]])
def test_a_non_finite_gamma_is_invalid_input(tmp_path, capsys, argv):
    # NaN passed |gamma| > 1 and was clamped to theta = 0: scar-verify passed on
    # the all-up state and wrote gamma=nan
    assert run(["--out", str(tmp_path), *argv]) == EXIT_INVALID
    cap = capsys.readouterr()
    assert cap.err.startswith("invalid input: |gamma| must be <= 1, got ")
    assert len(cap.err.splitlines()) == 1 and not cap.out
    assert not list(tmp_path.iterdir())


def test_negative_comma_list_values(tmp_path):
    out = str(tmp_path)
    assert run(["--out", out, "projections", "--N", "5", "--S", "1",
                "--kappa", "0.5", "--gammas", "-0.6,0.2"]) == EXIT_OK
    body = (tmp_path / "projections.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in body[1:]] == ["-0.6", "0.2"]
    assert run(["--out", out, "frame", "--J1", "-0.3", "--J2", "0.8",
                "--J3", "0.1", "--J12", "-.2"]) == EXIT_OK


def test_lattice_generate_and_check(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["--out", out, "lattice-generate", "--kind", "honeycomb_su2",
                "--dims", "4,2"]) == EXIT_OK
    graph = tmp_path / "honeycomb_su2.json"
    assert graph.exists()
    assert run(["--out", out, "lattice-check", "--graph", str(graph)]) == EXIT_OK
    assert "classification" in capsys.readouterr().out


def test_readme_lattice_example_checks_both_rules(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["--out", out, "lattice-generate", "--kind", "square_shifted",
                "--dims", "4,3", "--shift", "1"]) == EXIT_OK
    capsys.readouterr()
    assert run(["--out", out, "lattice-check", "--graph", str(tmp_path / "square_shifted.json"),
                "--p", "1", "--denominator", "4", "--kappa", "0.5"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split("  ")[0] for ln in lines if "rule" in ln] == \
        ["PASS: vertex rule", "PASS: circuit rule"]


def test_lattice_dims_count_must_match_generator(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["--out", out, "lattice-generate", "--kind", "square",
                "--dims", "4,4,3"]) == EXIT_INVALID
    assert not (tmp_path / "square.json").exists()
    assert "takes 2 dims, got 3" in capsys.readouterr().err
    assert run(["--out", out, "scar-verify", "--lattice", "square",
                "--dims", "3"]) == EXIT_INVALID
    assert "takes 2 dims, got 1" in capsys.readouterr().err


def test_disconnected_brickwall_is_checked_band_by_band(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["--out", out, "lattice-generate", "--kind", "trimer_brickwall",
                "--dims", "3,6"]) == EXIT_OK
    code = run(["--out", out, "lattice-check", "--graph", str(tmp_path / "trimer_brickwall.json"),
                "--p", "1", "--denominator", "3"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == ["PASS: vertex rule  (all zero)",
                          "PASS: circuit rule  (q = 4pK(kappa)/d for integer p and any divisor"
                          " d of 3)",
                          "INFO: classification  (LatticeIndependent)"]


def test_schwinger_subcommand(tmp_path):
    assert run(["--out", str(tmp_path), "schwinger-check", "--N", "3",
                "--S", "1/2", "--p", "1"]) == EXIT_OK


def test_invalid_inputs(tmp_path):
    assert run(["--out", str(tmp_path), "lattice-check",
                "--graph", str(tmp_path / "missing.json")]) == EXIT_INVALID
    assert run(["no-such-command"]) == EXIT_INVALID


def test_zero_denominator_spin_is_invalid_input(tmp_path):
    assert run(["--out", str(tmp_path), "scar-verify", "--S", "1/0"]) == EXIT_INVALID
    assert run(["--out", str(tmp_path), "degeneracy-scan", "--S", "1/0",
                "--N", "4"]) == EXIT_INVALID


def test_empty_size_range_is_invalid_input(tmp_path):
    assert run(["--out", str(tmp_path), "degeneracy-scan", "--S", "1",
                "--N", "7..4"]) == EXIT_INVALID
    assert not (tmp_path / "degeneracy_scan.csv").exists()


def test_physics_failure_exit_code(tmp_path):
    # an impossible residual tolerance must fail as physics, not crash
    code = run(["--out", str(tmp_path), "scar-verify", "--lattice", "chain",
                "--N", "5", "--S", "1/2", "--p", "1", "--kappa", "0.5",
                "--gamma", "0.3", "--tol", "1e-30"])
    assert code == EXIT_PHYSICS


def test_thread_cap_env(tmp_path, monkeypatch):
    from scarlab import cli
    monkeypatch.setenv("SCARLAB_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    cli._apply_thread_cap()
    assert os.environ["OMP_NUM_THREADS"] == "2"


def test_schwinger_check_needs_a_ring(tmp_path, capsys):
    for n in ("1", "2"):
        assert run(["--out", str(tmp_path), "schwinger-check", "--N", n,
                    "--S", "1/2"]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("invalid input:") and f"N={n}" in err
        assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "schwinger_check.csv").exists()


def test_shift_on_an_unshifted_lattice_is_invalid_input(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "lattice-generate", "--kind", "square", "--dims", "3,3",
                "--shift", "1"]) == EXIT_INVALID
    assert capsys.readouterr().err == \
        "invalid input: --shift applies to square_shifted only, not 'square'\n"
    assert not (tmp_path / "square.json").exists()


def test_algebra_check_needs_a_ring(tmp_path, capsys):
    for n in ("1", "2"):
        assert run(["--out", str(tmp_path), "algebra-check", "--N", n, "--S", "1/2",
                    "--kappas", "0.1"]) == EXIT_INVALID
        assert capsys.readouterr().err == \
            f"invalid input: algebra-check needs a ring of N >= 3 sites, got N={n}\n"
    assert not (tmp_path / "algebra_check.csv").exists()


def test_schwinger_check_over_the_memory_budget_is_a_numerical_failure(tmp_path, capsys,
                                                                      monkeypatch):
    # the decomposition's dense (2S+1)^2 x (2S+1)^2 bond arrays, charged at 64 B
    # an entry, run first: at S=50 they are refused before any line, any file
    # and any monomial
    from scarlab.schwinger import FockBasis
    calls = []
    monkeypatch.setattr(FockBasis, "monomial", lambda self, ops: calls.append(ops))
    budget = f"over the {spinops.MEMORY_BUDGET / 2 ** 30:g} GiB memory budget"
    assert run(["--out", str(tmp_path), "schwinger-check", "--N", "3", "--S", "50"]) == EXIT_NUMERICAL
    cap = capsys.readouterr()
    assert cap.err == ("numerical failure: the dense 10,201 x 10,201 bond arrays of the S=50.0 "
                       f"decomposition would take 6.202 GiB, {budget}\n") and not cap.out
    assert calls == [] and not list(tmp_path.iterdir())


def test_schwinger_check_runs_past_the_old_decomposition_budget(tmp_path, capsys, monkeypatch):
    # a budget that a sum of the ring's 22 N monomials on the (2S+1)^N states,
    # at 32 B a listed entry, would not fit: the decomposition holds no d^N
    # array (at S=1/2 N=19 it held 6.5 GiB)
    N = 11
    monkeypatch.setattr(spinops, "MEMORY_BUDGET", 56 * (N + 1) * 2 ** N)
    assert 32 * (22 * N + 1) * 2 ** N > spinops.MEMORY_BUDGET
    assert run(["--out", str(tmp_path), "schwinger-check", "--N", str(N), "--S", "1/2"]) == EXIT_OK
    assert capsys.readouterr().out.count("PASS: ") == 4


def test_schwinger_check_runs_under_a_budget_below_one_zeta_tower(tmp_path, capsys, monkeypatch):
    # 64 KiB, under the 0.12 MiB that the zeta tower of 9 states of 2^8
    # amplitudes was charged: the fidelity holds no (2S+1)^N array
    monkeypatch.setattr(spinops, "MEMORY_BUDGET", 2 ** 16)
    assert run(["--out", str(tmp_path), "schwinger-check", "--N", "8", "--S", "1/2"]) == EXIT_OK
    cap = capsys.readouterr()
    assert cap.out.count("PASS: ") == 4 and not cap.err


@pytest.mark.parametrize("N,S", [("2000", "1/2"), ("500", "1")])
def test_schwinger_check_at_thousands_of_sites(tmp_path, capsys, N, S):
    # (2S+1)^N = 2^2000 and 3^500: the fidelity is a product of N site
    # polynomials, and the bilinear checks run on sites 0 and 1
    assert run(["--out", str(tmp_path), "schwinger-check", "--N", N, "--S", S]) == EXIT_OK
    assert capsys.readouterr().out.count("PASS: ") == 4
    rows = dict(line.split(",") for line in (tmp_path / "schwinger_check.csv").read_text().split())
    assert float(rows["tower_fidelity_dev"]) <= 1e-12


def test_schwinger_check_needs_a_nonzero_spin(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "schwinger-check", "--N", "4", "--S", "0"]) == EXIT_INVALID
    cap = capsys.readouterr()
    assert cap.err == "invalid input: schwinger-check needs S >= 1/2, got S=0\n" and not cap.out
    assert not (tmp_path / "schwinger_check.csv").exists()


@pytest.mark.parametrize("argv", [
    ["algebra-check", "--N", "4", "--kappas", "0.1"],
    ["projections", "--N", "4"],
    ["scar-verify", "--N", "4"],
    ["degeneracy-scan", "--N", "4"],
    ["span", "--N", "4"],
])
def test_every_spin_subcommand_needs_a_nonzero_spin(tmp_path, capsys, argv):
    # at S = 0 every spin operator vanishes, so the checks would pass vacuously
    assert run(["--out", str(tmp_path), *argv, "--S", "0"]) == EXIT_INVALID
    cap = capsys.readouterr()
    assert cap.err == f"invalid input: {argv[0]} needs S >= 1/2, got S=0\n" and not cap.out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["schwinger-check", "--N", "3", "--S", "0.7"],
                                  ["degeneracy-scan", "--S", "1/2,0.7", "--N", "5"]])
def test_every_spin_must_be_a_half_integer(tmp_path, capsys, argv):
    # refused as invalid input before any work: the scan once wrote an
    # error:InvalidSpin row and exited 1
    assert run(["--out", str(tmp_path), *argv]) == EXIT_INVALID
    cap = capsys.readouterr()
    assert cap.err == "invalid input: 2S must be a non-negative integer, got S=0.7\n"
    assert not cap.out and not list(tmp_path.iterdir())


def test_degeneracy_scan_csv_is_the_behaviour_contract(tmp_path):
    # every refactor keeps this scan's CSV byte for byte
    assert run(["--out", str(tmp_path), "degeneracy-scan", "--S", "1/2,1", "--N", "3..7",
                "--kappa", "0.6", "--p", "1"]) == EXIT_OK
    digest = hashlib.sha256((tmp_path / "degeneracy_scan.csv").read_bytes()).hexdigest()
    assert digest == "ecfe508c6cea9cc1b663de80d805b88de921bd22be3155d3331c268d969b879e"


def test_unknown_lattice_kind_is_invalid_input(tmp_path, capsys):
    # modified_honeycomb was square behind a dims check, and is no kind any more
    out = str(tmp_path)
    for kind in ("nosuch", "modified_honeycomb"):
        assert run(["--out", out, "lattice-generate", "--kind", kind,
                    "--dims", "6"]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"unknown lattice kind '{kind}'" in err and "square_shifted" in err
        assert not (tmp_path / f"{kind}.json").exists()
        assert run(["--out", out, "scar-verify", "--lattice", kind]) == EXIT_INVALID
        assert f"unknown lattice kind '{kind}'" in capsys.readouterr().err


def test_lattice_check_circuit_rule_options(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["--out", out, "lattice-generate", "--kind", "square_shifted",
                "--dims", "4,3", "--shift", "1"]) == EXIT_OK
    graph = str(tmp_path / "square_shifted.json")
    capsys.readouterr()
    for lone in (["--p", "1"], ["--denominator", "4"]):
        assert run(["--out", out, "lattice-check", "--graph", graph, *lone]) == EXIT_INVALID
        assert "needs both --p and --denominator" in capsys.readouterr().err
    assert run(["--out", out, "lattice-check", "--graph", graph]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split("  ")[0] for ln in lines if "rule" in ln] == \
        ["PASS: vertex rule", "INFO: circuit rule"]
    assert "not checked: needs --p and --denominator" in lines[1]


@pytest.mark.parametrize("kappa", ["nan", "1.5"])
def test_lattice_check_checks_kappa_before_any_line(tmp_path, capsys, kappa):
    # it printed "PASS: vertex rule" before it exited 3
    assert run(["--out", str(tmp_path), "lattice-generate", "--kind", "square",
                "--dims", "3,3"]) == EXIT_OK
    capsys.readouterr()
    out = str(tmp_path / "check")
    assert run(["--out", out, "lattice-check", "--graph", str(tmp_path / "square.json"),
                "--p", "1", "--denominator", "3", "--kappa", kappa]) == EXIT_INVALID
    cap = capsys.readouterr()
    assert cap.err == f"invalid input: kappa must lie in [0, 1), got {kappa}\n" and not cap.out
    assert not os.path.exists(out)


def _edited_graph(tmp_path, edit, records=True):
    """Write square 3x3 as a graph file after edit(doc) changed its document.

    The document is the per-record layout older graph files have, or with
    records=False the column layout lattice-generate writes.
    """
    assert run(["--out", str(tmp_path), "lattice-generate", "--kind", "square",
                "--dims", "3,3"]) == EXIT_OK
    path = tmp_path / "square.json"
    doc = json.loads(path.read_text())
    if records:
        cols = doc["edges"]
        doc["edges"] = [dict(zip(cols, rec)) for rec in zip(*cols.values())]
    edit(doc)
    path.write_text(json.dumps(doc))
    return str(path)


def _check_graph(tmp_path, capsys, graph):
    capsys.readouterr()
    code = run(["--out", str(tmp_path), "lattice-check", "--graph", graph,
                "--p", "1", "--denominator", "3"])
    return code, capsys.readouterr()


def test_non_integral_graph_value_is_invalid_input(tmp_path, capsys):
    graph = _edited_graph(tmp_path, lambda doc: doc["edges"][0].update(v=1.7))
    code, cap = _check_graph(tmp_path, capsys, graph)
    assert code == EXIT_INVALID and "PASS" not in cap.out
    assert cap.err == "invalid input: graph file: every 'v' must be an integer\n"


def test_duplicate_edge_in_graph_file_is_invalid_input(tmp_path, capsys):
    graph = _edited_graph(tmp_path, lambda doc: doc["edges"].append(dict(doc["edges"][0])))
    code, cap = _check_graph(tmp_path, capsys, graph)
    assert code == EXIT_INVALID and cap.err == "invalid input: duplicate edge (0, 1)\n"


def test_self_loop_in_graph_file_is_invalid_input(tmp_path, capsys):
    graph = _edited_graph(tmp_path, lambda doc: doc["edges"][0].update(v=0))
    code, cap = _check_graph(tmp_path, capsys, graph)
    assert code == EXIT_INVALID and cap.err == "invalid input: self-loop at vertex 0\n"


def test_non_integral_graph_column_value_is_invalid_input(tmp_path, capsys):
    for value in (1.7, "2", None):
        graph = _edited_graph(tmp_path, lambda doc: doc["edges"]["v"].__setitem__(0, value),
                              records=False)
        code, cap = _check_graph(tmp_path, capsys, graph)
        assert code == EXIT_INVALID and "PASS" not in cap.out
        assert cap.err == "invalid input: graph file: every 'v' must be an integer\n"


def test_duplicate_edge_in_graph_columns_is_invalid_input(tmp_path, capsys):
    def duplicate_first(doc):
        for col in doc["edges"].values():
            col.append(col[0])
    graph = _edited_graph(tmp_path, duplicate_first, records=False)
    code, cap = _check_graph(tmp_path, capsys, graph)
    assert code == EXIT_INVALID and cap.err == "invalid input: duplicate edge (0, 1)\n"


def test_self_loop_in_graph_columns_is_invalid_input(tmp_path, capsys):
    graph = _edited_graph(tmp_path, lambda doc: doc["edges"]["v"].__setitem__(0, 0),
                          records=False)
    code, cap = _check_graph(tmp_path, capsys, graph)
    assert code == EXIT_INVALID and cap.err == "invalid input: self-loop at vertex 0\n"


def _drop(key):
    return lambda doc: doc["edges"].pop(key)


def _set(key, value):
    return lambda doc: doc["edges"].__setitem__(key, value)


@pytest.mark.parametrize("edit, message", [
    (_drop("u"), "the 'edges' object has no 'u' column"),
    (_drop("v"), "the 'edges' object has no 'v' column"),
    (_drop("sigma"), "the 'edges' object has no 'sigma' column"),
    (_drop("kind"), "the 'edges' object has no 'kind' column"),
    (lambda doc: doc["edges"]["J"].pop(), "edge column 'J' has 17 entries, 'u' has 18"),
    (lambda doc: doc["edges"]["u"].append(0), "edge column 'v' has 18 entries, 'u' has 19"),
    (_set("r", 1), "edge column 'r' must be a list"),
    (_set("kind", "csse"), "edge column 'kind' must be a list"),
    (_set("crossing", [0, 0] * 9), "every 'crossing' must be a list of two integers"),
    (lambda doc: doc["edges"]["crossing"].__setitem__(3, [0, 0, 0]),
     "every 'crossing' must be a list of two integers"),
    (lambda doc: doc["edges"]["crossing"].__setitem__(3, [0.5, 0]),
     "every 'crossing' must be an integer"),
    (lambda doc: doc["edges"]["sigma"].__setitem__(3, 1.7), "every 'sigma' must be an integer"),
    (lambda doc: doc["edges"]["r"].__setitem__(3, "2"), "every 'r' must be an integer"),
    (lambda doc: doc["edges"]["u"].__setitem__(3, None), "every 'u' must be an integer"),
    (lambda doc: doc["edges"]["J"].__setitem__(3, None), "every 'J' must be a number, got None"),
])
def test_malformed_graph_columns_are_invalid_input(tmp_path, capsys, edit, message):
    graph = _edited_graph(tmp_path, edit, records=False)
    for argv in (["lattice-check", "--graph", graph],
                 ["scar-verify", "--graph", graph, "--denominator", "3"]):
        capsys.readouterr()
        assert run(["--out", str(tmp_path), *argv]) == EXIT_INVALID, argv
        assert capsys.readouterr().err == f"invalid input: graph file: {message}\n", argv


def test_unsupported_dims_is_invalid_input(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "lattice-generate", "--kind", "square",
                "--dims", "2,2"]) == EXIT_INVALID
    assert "square torus needs Nx, Ny >= 3" in capsys.readouterr().err
    assert not (tmp_path / "square.json").exists()


def _one_invalid_input_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("invalid input:") and len(err.strip().splitlines()) == 1


def _no_graph_built(*args, **kwargs):
    raise AssertionError("a lattice was generated before the input check")


@pytest.mark.parametrize("bad", [["--kappa", "1.5"], ["--S", "0.3"], ["--gamma", "1.5"],
                                 ["--denominator", "0"]])
def test_scar_verify_parameter_out_of_range_is_invalid_input(tmp_path, capsys, monkeypatch,
                                                             bad):
    out = str(tmp_path)
    assert run(["--out", out, "scar-verify", *bad]) == EXIT_INVALID
    assert _one_invalid_input_line(capsys)
    monkeypatch.setattr("scarlab.lattice.generate", _no_graph_built)
    # the bad value comes last, so it overrides the lattice's --denominator
    assert run(["--out", out, "scar-verify", "--lattice", "square", "--dims", "3,3",
                "--denominator", "3", *bad]) == EXIT_INVALID
    assert _one_invalid_input_line(capsys)
    assert not (tmp_path / "scar_verify.csv").exists()


def test_scar_verify_chain_denominator_must_be_n(tmp_path, capsys, monkeypatch):
    def no_state(*args, **kwargs):
        raise AssertionError("a state was built before the input check")
    monkeypatch.setattr("scarlab.spinops.coherent_product_state", no_state)
    monkeypatch.setattr("scarlab.scar.coherent_product_state", no_state)
    assert run(["--out", str(tmp_path), "scar-verify", "--N", "6",
                "--denominator", "5"]) == EXIT_INVALID
    assert _one_invalid_input_line(capsys)
    assert not (tmp_path / "scar_verify.csv").exists()


def test_scar_verify_chain_takes_its_size_from_dims(tmp_path):
    # --dims was ignored on the chain: the N = 6 chain was verified, its row written
    rows = []
    for size in (["--dims", "5"], ["--N", "5"]):
        out = tmp_path / size[0][2:]
        assert run(["--out", str(out), "scar-verify", "--lattice", "chain", *size,
                    "--kappa", "0.4", "--gamma", "0.3"]) == EXIT_OK
        rows.append((out / "scar_verify.csv").read_text())
    assert rows[0] == rows[1] and rows[0].splitlines()[1].split(",")[1] == "5"


def test_scar_verify_writes_its_row_when_the_circuit_rule_fails(tmp_path, capsys):
    # the failing run wrote no CSV, so the passing run's file read as its result
    out = str(tmp_path)
    square = ["--out", out, "scar-verify", "--lattice", "square", "--dims", "4,4"]
    assert run([*square, "--denominator", "4"]) == EXIT_OK
    capsys.readouterr()
    assert run([*square, "--denominator", "5"]) == EXIT_PHYSICS
    assert [line.split("  ")[0] for line in capsys.readouterr().out.splitlines()] == [
        "FAIL: circuit rule"]
    assert (tmp_path / "scar_verify.csv").read_text().splitlines()[1:] == [
        "0.5,16,1,0.0,0.0,1,nan"]
    assert json.loads((tmp_path / "scar_verify.json").read_text())["config"]["denominator"] == 5


def test_scar_verify_defaults_a_graph_denominator_to_its_windings(tmp_path, capsys):
    # a graph took --N's default of 6, so square 4x4 failed its circuit rule
    out = tmp_path / "square"
    assert run(["--out", str(out), "scar-verify", "--lattice", "square",
                "--dims", "4,4"]) == EXIT_OK
    assert "PASS: circuit rule" in capsys.readouterr().out
    assert json.loads((out / "scar_verify.json").read_text())["config"]["denominator"] == 4
    # an SU(2) triangle winds nowhere, so it takes its vertex count
    bond = {"sigma": 0, "kind": "su2"}
    graph = _raw_graph_file(tmp_path, json.dumps({"vertices": 3, "edges": [
        dict(bond, u=0, v=1), dict(bond, u=1, v=2), dict(bond, u=2, v=0)]}))
    out = tmp_path / "triangle"
    assert run(["--out", str(out), "scar-verify", "--graph", graph]) == EXIT_OK
    assert json.loads((out / "scar_verify.json").read_text())["config"]["denominator"] == 3
    # the chain's default is its size, recorded as well
    out = tmp_path / "chain"
    assert run(["--out", str(out), "scar-verify", "--N", "5"]) == EXIT_OK
    assert json.loads((out / "scar_verify.json").read_text())["config"]["denominator"] == 5


def _raw_graph_file(tmp_path, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    return str(path)


def test_malformed_graph_file_shapes_are_invalid_input(tmp_path, capsys):
    edge = {"u": 0, "v": 1, "sigma": 1, "kind": "csse"}
    docs = {"top-level array": "[1, 2]",
            "edge record not an object": json.dumps({"vertices": 2, "edges": [[0, 1]]}),
            "non-list crossing": json.dumps({"vertices": 2,
                                             "edges": [dict(edge, crossing=5)]}),
            "non-object boundary": json.dumps({"vertices": 2, "edges": [edge],
                                               "boundary": 5})}
    for what, text in docs.items():
        graph = _raw_graph_file(tmp_path, text)
        for argv in (["lattice-check", "--graph", graph],
                     ["scar-verify", "--graph", graph, "--denominator", "2"]):
            assert run(["--out", str(tmp_path), *argv]) == EXIT_INVALID, (what, argv)
            assert _one_invalid_input_line(capsys), what


def test_elliptic_csv_holds_numbers(tmp_path):
    assert run(["--out", str(tmp_path), "elliptic", "--points", "50", "--seed", "0"]) == EXIT_OK
    lines = (tmp_path / "elliptic.csv").read_text().splitlines()
    assert lines[0] == "check,max_residual"
    assert [ln.split(",")[0] for ln in lines[1:]] == \
        ["sn2cn2", "dn2k2sn2", "periodicity", "roundtrip"]
    for ln in lines[1:]:
        value = ln.split(",")[1]
        assert repr(float(value)) == value


# elliptic.csv bodies at 20,000 points as the per-point scalar loop wrote them
_ELLIPTIC_BODIES = {
    0: "check,max_residual\n"
       "sn2cn2,2.220446049250313e-16\n"
       "dn2k2sn2,2.220446049250313e-16\n"
       "periodicity,1.8041124150158794e-15\n"
       "roundtrip,2.740863092043355e-16\n",
    202: "check,max_residual\n"
         "sn2cn2,2.220446049250313e-16\n"
         "dn2k2sn2,2.220446049250313e-16\n"
         "periodicity,1.790234627208065e-15\n"
         "roundtrip,1.6237011735142914e-15\n",
}


@pytest.mark.parametrize("seed", sorted(_ELLIPTIC_BODIES))
def test_elliptic_csv_body_is_pinned(tmp_path, seed):
    assert run(["--out", str(tmp_path), "elliptic", "--points", "20000",
                "--seed", str(seed)]) == EXIT_OK
    assert (tmp_path / "elliptic.csv").read_text() == _ELLIPTIC_BODIES[seed]


@pytest.mark.parametrize("points", ["0", "-5"])
def test_elliptic_needs_at_least_one_point(tmp_path, capsys, points):
    assert run(["--out", str(tmp_path), "elliptic", f"--points={points}"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err == f"invalid input: --points must be >= 1, got {points}\n"
    assert not (tmp_path / "elliptic.csv").exists()


def test_degeneracy_scan_fails_error_rows_behind_special_q(tmp_path, capsys):
    # 4p/N = 1 makes the row special-q; S=5/2 N=8 stops before H is built, as its largest
    # block of dim / 4N = 52,488 states or more is over the memory budget
    assert run(["--out", str(tmp_path), "degeneracy-scan", "--S", "5/2", "--N", "8",
                "--kappa", "0.6", "--p", "2"]) == EXIT_PHYSICS
    assert "FAIL: S=2.5 N=8 p=2  (special-q;error:DimensionCap)" in capsys.readouterr().out
    assert (tmp_path / "degeneracy_scan.csv").read_text().splitlines()[1] == \
        "2.5,8,2,0.6,nan,0,80,special-q;error:DimensionCap"


def test_degeneracy_scan_accepts_p_divisible_by_n_and_flags_it(tmp_path):
    # p = 0 is 0 (mod N) for every N: the rows run, special-q and off the 4NS count
    assert run(["--out", str(tmp_path), "degeneracy-scan", "--S", "1/2", "--N", "4..5",
                "--p", "0", "--kappa", "0.5"]) == EXIT_OK
    rows = (tmp_path / "degeneracy_scan.csv").read_text().splitlines()[1:]
    assert [row.split(",")[5:] for row in rows] == [["5", "8", "special-q;deviates"],
                                                   ["6", "10", "special-q;deviates"]]


def test_span_accepts_p_equal_to_n(tmp_path):
    assert run(["--out", str(tmp_path), "span", "--N", "5", "--S", "1/2", "--p", "5",
                "--kappas", "0.0,0.5"]) == EXIT_OK
    assert (tmp_path / "span.csv").read_text().splitlines() == ["kappa,rank", "0.0,6", "0.5,6"]


@pytest.mark.parametrize("kappa", ["-0.6", "1.0", "nan"])
def test_degeneracy_scan_rejects_modulus_outside_unit_interval(tmp_path, capsys, kappa):
    assert run(["--out", str(tmp_path), "degeneracy-scan", "--S", "1/2", "--N", "4",
                "--kappa", kappa, "--p", "1"]) == EXIT_INVALID
    assert _one_invalid_input_line(capsys)
    assert not (tmp_path / "degeneracy_scan.csv").exists()


def test_scar_verify_builds_no_sparse_operator(tmp_path, capsys, monkeypatch):
    def no_matrix(*args, **kwargs):
        raise AssertionError("scar-verify assembled a sparse operator")

    def no_vector(*args, **kwargs):
        raise AssertionError("scar-verify built a (2S+1)^N state vector")
    stub_everywhere(monkeypatch, {spinops.local_sum: no_matrix,
                                  spinops.coherent_product_state: no_vector})
    out = str(tmp_path)
    assert run(["--out", out, "scar-verify", "--N", "6", "--S", "1", "--kappa", "0.8",
                "--gamma", "0.5"]) == EXIT_OK
    assert run(["--out", out, "scar-verify", "--lattice", "lieb", "--dims", "2,2",
                "--denominator", "4", "--kappa", "0.6", "--gamma", "-0.3",
                "--helicity", "-"]) == EXIT_OK
    # far over the memory budget: each of these exited 2 while a state vector was built
    assert run(["--out", out, "scar-verify", "--N", "3000"]) == EXIT_OK
    assert run(["--out", out, "scar-verify", "--lattice", "lieb", "--dims", "30,30",
                "--S", "1", "--denominator", "60"]) == EXIT_OK
    assert run(["--out", out, "scar-verify", "--lattice", "square", "--dims", "100,100",
                "--S", "1/2", "--denominator", "100", "--kappa", "0.5",
                "--gamma", "0.4"]) == EXIT_OK
    assert capsys.readouterr().out.count("PASS: eigenstate residual") == 5
    assert (tmp_path / "scar_verify.csv").read_text().splitlines()[1].startswith(
        "0.5,10000,1,0.5,0.4,1,")


def test_span_json_records_the_cut_for_each_kappa(tmp_path):
    assert run(["--out", str(tmp_path), "span", "--N", "7", "--S", "1", "--kappas", "0.0,0.23"]) \
        == EXIT_OK
    assert (tmp_path / "span.csv").read_text().splitlines() == ["kappa,rank", "0.0,15", "0.23,20"]
    cut = json.loads((tmp_path / "span.json").read_text())["cut"]
    assert [c["kappa"] for c in cut] == [0.0, 0.23]
    assert all(0.0 <= s <= 1e-12 for s in cut[0]["sigma_r_plus_1"])
    for c in cut:
        assert all(1e-8 < s <= 1.0 for s in c["sigma_r"])
        assert all(0.0 <= s <= 1e-8 for s in c["sigma_r_plus_1"])


def test_span_builds_no_product_state(tmp_path, capsys, monkeypatch):
    def no_vector(*args, **kwargs):
        raise AssertionError("span built a (2S+1)^N state vector")
    stub_everywhere(monkeypatch, {spinops.coherent_product_state: no_vector})
    out = str(tmp_path)
    assert run(["--out", out, "span", "--N", "7", "--S", "1"]) == EXIT_OK
    # 3^15 amplitudes per state: the dense path held 128 and then 256 of them
    assert run(["--out", out, "span", "--N", "15", "--S", "1", "--kappas", "0.0,0.5"]) == EXIT_OK
    assert capsys.readouterr().out.count("PASS: rank <= 4NS") == 2


@pytest.mark.parametrize("N", [1, 2])
def test_scar_verify_chains_of_one_and_two_sites(tmp_path, capsys, N):
    # N = 1 has no bond (residual 0); N = 2 keeps its single bond
    assert run(["--out", str(tmp_path), "scar-verify", "--N", str(N), "--kappa", "0.4",
                "--gamma", "0.3"]) == EXIT_OK
    assert "PASS: eigenstate residual" in capsys.readouterr().out
    row = (tmp_path / "scar_verify.csv").read_text().splitlines()[1].split(",")
    assert row[1] == str(N) and (N == 2 or float(row[-1]) == 0.0)


def test_dimension_cap_message_names_the_size_as_a_power(tmp_path, capsys):
    # it printed (2S+1)^N as a 904-digit integer
    assert run(["--out", str(tmp_path), "span", "--N", "3000", "--S", "1/2"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == ("numerical failure: (2S+1)^N = 2^3000 amplitudes would take 1.833e+895 GiB, "
                   f"over the {spinops.MEMORY_BUDGET / 2 ** 30:g} GiB memory budget\n")


def test_scar_verify_rejects_unknown_helicity(tmp_path, capsys, monkeypatch):
    def no_state(*args, **kwargs):
        raise AssertionError("a state was built before the input check")
    out = str(tmp_path)
    for good in ("-", "-1", "+1"):
        assert run(["--out", out, "scar-verify", "--N", "6", "--helicity", good]) == EXIT_OK
    (tmp_path / "scar_verify.csv").unlink()
    monkeypatch.setattr("scarlab.spinops.coherent_product_state", no_state)
    monkeypatch.setattr("scarlab.scar.coherent_product_state", no_state)
    for bad in ("x", "2", "0", "plus"):
        assert run(["--out", out, "scar-verify", "--N", "6", "--helicity", bad]) == EXIT_INVALID
        assert _one_invalid_input_line(capsys)
    assert not (tmp_path / "scar_verify.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_frame_rejects_non_finite_couplings(tmp_path, capsys, monkeypatch, value):
    def no_search(*args, **kwargs):
        raise AssertionError("the root search ran on a non-finite coupling")
    monkeypatch.setattr("scarlab.frames.xyz_reduction", no_search)
    out = str(tmp_path)
    assert run(["--out", out, "frame", "--J1", "0.3", f"--J13={value}"]) == EXIT_INVALID
    assert _one_invalid_input_line(capsys)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"J1": 0.3, "J2": float(value)}))   # NaN/Infinity tokens
    assert run(["--out", out, "frame", "--couplings", str(path)]) == EXIT_INVALID
    assert _one_invalid_input_line(capsys)
    assert not (tmp_path / "frame.csv").exists()


@pytest.mark.parametrize("doc", ["[1, 2]", "3", '{"J1": null}', '{"J1": true}',
                                 '{"J1": "0.3"}', '{"Jx": 1}'])
def test_frame_rejects_malformed_couplings_file(tmp_path, capsys, doc):
    path = tmp_path / "c.json"
    path.write_text(doc)
    assert run(["--out", str(tmp_path), "frame", "--couplings", str(path)]) == EXIT_INVALID
    assert _one_invalid_input_line(capsys)
    assert not (tmp_path / "frame.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--J1", "0.3", "--J2", "0.8", "--J3", "0.1", "--J12", "0.2"],
    ["--J1", "1234.5", "--J2", "3000.7", "--J3", "-812.1", "--J12", "2000.3",
     "--J13", "777.7", "--J23", "-1500.2"]])
def test_frame_csv_cells_are_plain_floats(tmp_path, capsys, argv):
    assert run(["--out", str(tmp_path), "frame", *argv]) == EXIT_OK
    assert capsys.readouterr().out.count("PASS: ") == 3
    header, row = (tmp_path / "frame.csv").read_text().splitlines()
    assert header.split(",") == ["psi", "phi", "theta", "Jx", "Jy", "Jz", "residual"]
    assert all(math.isfinite(float(cell)) for cell in row.split(","))


MEGA_COUPLINGS = ["--J1", "1234500", "--J2", "3000700", "--J3", "-812100", "--J12", "2000300",
                  "--J13", "777700", "--J23", "-1500200"]


def test_frame_checks_are_relative_above_unit_couplings(tmp_path, capsys):
    # residual 1.40e-09 and eigenvalue match 9.31e-10 are about 3e-16 max|M|
    assert run(["--out", str(tmp_path), "frame", *MEGA_COUPLINGS]) == EXIT_OK
    assert capsys.readouterr().out.count("PASS: ") == 3


@pytest.mark.parametrize("argv", [["--J1", "0.3", "--J2", "0.8", "--J3", "0.1", "--J12", "0.2",
                                   "--J13", "-0.05"], MEGA_COUPLINGS])
def test_frame_residual_fails_on_perturbed_angles(tmp_path, capsys, monkeypatch, argv):
    from scarlab import frames
    solve = frames.solve_frame_angles

    def off_by_1e8(c):
        psi, phi = solve(c)[0]
        return [(psi + 1e-8, phi - 1e-8)]

    monkeypatch.setattr(frames, "solve_frame_angles", off_by_1e8)
    assert run(["--out", str(tmp_path), "frame", *argv]) == EXIT_PHYSICS
    assert "FAIL: frame residual" in capsys.readouterr().out


def test_no_subcommand_imports_scipy(tmp_path):
    # the runtime is numpy alone: import scipy.sparse took 0.2-0.3 s and 22 MB a process
    script = """
import os, sys
from scarlab.cli import main
out = sys.argv[1]
for argv in (["degeneracy-scan", "--S", "1/2", "--N", "6"], ["algebra-check", "--N", "5", "--S", "1/2"],
             ["frame"], ["span"], ["schwinger-check", "--N", "3"],
             ["lattice-generate", "--kind", "square_shifted", "--dims", "4,3", "--shift", "1"],
             ["lattice-check", "--graph", os.path.join(out, "square_shifted.json"), "--p", "1",
              "--denominator", "4", "--kappa", "0.5"],
             ["scar-verify", "--N", "6", "--S", "1/2"], ["projections", "--N", "5", "--S", "1/2"],
             ["elliptic", "--points", "200"]):
    assert main(["--out", out, *argv]) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_elliptic_round_trip_fails_on_a_broken_inversion(tmp_path, capsys, monkeypatch):
    from scarlab import elliptic
    solve = elliptic.solve_q_kappa_array

    def off_by_a_permille(Jx, Jy, Jz):
        q, kappa, K, _, _ = solve(Jx, Jy, Jz)
        _, cn, dn = elliptic.jacobi_array(q * 1.001, kappa, K)
        return q * 1.001, kappa, K, cn, dn

    monkeypatch.setattr(elliptic, "solve_q_kappa_array", off_by_a_permille)
    assert run(["--out", str(tmp_path), "elliptic", "--points", "200"]) == EXIT_PHYSICS
    assert "FAIL: coupling round-trip" in capsys.readouterr().out


def test_algebra_check_builds_each_operator_once(tmp_path, monkeypatch):
    import scarlab.algebra  # noqa: F401  (its module-level names are patched too)
    from scarlab import hamiltonian
    calls = {"build_xyz_chain": [], "tau": []}
    for fname, original in (("build_xyz_chain", hamiltonian.build_xyz_chain),
                            ("tau", spinops.tau)):
        def counted(*args, _original=original, _calls=calls[fname], **kwargs):
            _calls.append(args)
            return _original(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name.startswith("scarlab") and getattr(module, fname, None) is original:
                monkeypatch.setattr(module, fname, counted)
    assert run(["--out", str(tmp_path), "algebra-check", "--N", "5", "--S", "1/2",
                "--kappas", "0.0,0.1,0.2,0.4"]) == EXIT_OK
    q0 = 2.0 * math.pi / 5
    assert calls["tau"] == [(5, 0.5, q0)]
    # the XXZ chain once, then one chain per nonzero kappa
    xxz, *chains = calls["build_xyz_chain"]
    assert xxz == (5, 0.5, 1.0, 1.0, math.cos(q0))
    assert len(chains) == 3 and all(c[:2] == (5, 0.5) and c[2] < 1.0 for c in chains)


def test_algebra_check_fails_on_a_shifted_lambda(tmp_path, capsys, monkeypatch):
    # Lambda at q0 + 0.1: the largest entry of the assembled [H, tau] - Lambda
    # reads the shift, so that comparison cannot pass vacuously
    from scarlab import algebra
    raw = algebra.lambda_op
    monkeypatch.setattr(algebra, "lambda_op", lambda N, S, q0, sign=+1: raw(N, S, q0 + 0.1, sign))
    assert run(["--out", str(tmp_path), "algebra-check", "--N", "5", "--S", "1/2",
                "--kappas", "0.0"]) == EXIT_PHYSICS == 1
    assert "FAIL: [H, tau] = Lambda" in capsys.readouterr().out


def test_algebra_check_over_the_dense_cap_is_a_numerical_failure(tmp_path, capsys):
    # dim 2^20 in at most 4N = 80 blocks: the largest holds 13,108 states or more, and
    # that block alone is over the memory budget: exit 2, no dense eigh
    assert run(["--out", str(tmp_path), "algebra-check", "--N", "20", "--S", "1/2",
                "--kappas", "0.0,0.2"]) == EXIT_NUMERICAL
    cap = capsys.readouterr()
    assert cap.err == ("numerical failure: a dense block of 13,108 states or more would take "
                       f"12.80 GiB, over the {spinops.MEMORY_BUDGET / 2 ** 30:g} GiB memory "
                       "budget\n")
    # the budget is checked before any check runs
    assert cap.out == ""
    assert not (tmp_path / "algebra_check.csv").exists()
    # kappa = 0 alone solves no block, so the budget lets it through; at N = 20 it takes
    # 22 s and 1.2 GB, so it runs here at N = 15
    assert run(["--out", str(tmp_path), "algebra-check", "--N", "15", "--S", "1/2",
                "--kappas", "0.0"]) == EXIT_OK
    assert capsys.readouterr().out.count("PASS: ") == 4
    assert (tmp_path / "algebra_check.csv").exists()


def test_main_twice_in_one_process_gives_the_same_output(tmp_path, capsys):
    # the parser is built once per process; a second call must not see the first's state
    argv = ["--out", str(tmp_path), "degeneracy-scan", "--S", "1/2", "--N", "4..5",
            "--kappa", "0.6", "--p", "1"]
    outputs = []
    for _ in range(2):
        assert run(argv) == EXIT_OK
        outputs.append((capsys.readouterr().out, (tmp_path / "degeneracy_scan.csv").read_bytes()))
        assert run(["--out", str(tmp_path / "frame"), "frame", "--J1", "0.3"]) == EXIT_OK
        capsys.readouterr()
    assert outputs[0] == outputs[1] and outputs[0][0].count("PASS") == 1


@pytest.mark.parametrize("sizes", ["0", "1", "2", "-2..3", "3,2"])
def test_degeneracy_scan_needs_rings(tmp_path, capsys, sizes):
    # N = 0 divided by zero in the special-q test; N = 1 and 2 have no ring of N bonds
    assert run(["--out", str(tmp_path), "degeneracy-scan", "--S", "1/2", "--N", sizes]) \
        == EXIT_INVALID
    cap = capsys.readouterr()
    assert cap.err.startswith("invalid input: degeneracy-scan needs rings of N >= 3 sites")
    assert len(cap.err.strip().splitlines()) == 1 and not cap.out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["algebra-check", "--N", "4", "--S", "1/2", "--kappas", "0.2,1.5"],
    # over the memory budget too: the kappas are checked first
    ["algebra-check", "--N", "15", "--S", "1/2", "--kappas", "0.2,1.5"],
    ["span", "--N", "4", "--S", "1/2", "--kappas", "0.2,1.5"],
])
def test_every_kappa_is_checked_before_any_work(tmp_path, capsys, monkeypatch, argv):
    # algebra-check printed three PASS lines and an INFO line, and span ranked
    # kappa = 0.2, before kappa = 1.5 stopped them
    from scarlab import algebra, scar

    def no_work(*args, **kwargs):
        raise AssertionError("work began before every kappa was checked")
    stub_everywhere(monkeypatch, {algebra.standard_sga_witness: no_work, scar.span_rank: no_work})
    assert run(["--out", str(tmp_path), *argv]) == EXIT_INVALID
    cap = capsys.readouterr()
    assert cap.err == "invalid input: kappa must lie in [0, 1), got 1.5\n"
    assert cap.out == ""
    assert not list(tmp_path.iterdir())


def test_scar_verify_walks_the_forest_once_per_graph(tmp_path, capsys, monkeypatch):
    from scarlab import lattice
    walks = []

    def counted(g, _walk=lattice._forest):
        walks.append(g)
        return _walk(g)
    monkeypatch.setattr(lattice, "_forest", counted)
    argv = ["scar-verify", "--lattice", "square", "--dims", "6,6", "--S", "1/2",
            "--denominator", "6", "--kappa", "0.5", "--gamma", "0.4"]
    outputs = []
    # check_circuit_rule and the site phases share one walk
    for out, forest, count in (("cached", lattice.ScarGraph.forest, 1),
                               # walked afresh at every read, as before the cache
                               ("walked", property(counted), 2)):
        monkeypatch.setattr(lattice.ScarGraph, "forest", forest)
        walks.clear()
        assert run(["--out", str(tmp_path / out), *argv]) == EXIT_OK
        outputs.append((capsys.readouterr().out, (tmp_path / out / "scar_verify.csv").read_bytes()))
        assert len(walks) == count
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count("PASS") == 2
