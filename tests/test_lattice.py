"""Scar graphs: rules, classification, generators, serialization."""

import pytest

from scarlab.elliptic import commensurate_q
from scarlab.errors import (DisconnectedGraph, InconsistentPhases, ScarlabError,
                            UnsupportedDims)
from scarlab.lattice import (CLASS_DEPENDENT, CLASS_INDEPENDENT, CLASS_NONE,
                             Edge, ScarGraph, as_uniform_csse,
                             assign_site_phases, chain, check_circuit_rule,
                             check_vertex_rule, classify, fundamental_cycles,
                             generate, honeycomb_su2, kagome_su2, lieb,
                             modified_honeycomb, nnn_chain, square,
                             square_shifted, triangular_su2, trimer_brickwall,
                             trimer_ladder)

GENERATORS = [
    chain(6), square(3, 3), square_shifted(4, 3), lieb(2, 2),
    triangular_su2(3, 3), kagome_su2(2, 2), honeycomb_su2(4, 2),
    modified_honeycomb(4, 3), trimer_ladder(4), trimer_brickwall(3, 3),
    nnn_chain(6),
]


def test_generators_satisfy_vertex_rule():
    for g in GENERATORS:
        assert check_vertex_rule(g) == [], g.boundary


def test_fundamental_cycle_count():
    for g in GENERATORS:
        cycles = fundamental_cycles(g)
        assert len(cycles) == len(g.edges) - g.num_vertices + 1


def test_json_round_trip():
    for g in GENERATORS:
        g2 = ScarGraph.from_json(g.to_json())
        assert g2.num_vertices == g.num_vertices
        assert [(e.u, e.v, e.sigma, e.kind, e.r, e.J, e.crossing)
                for e in g2.edges] == \
               [(e.u, e.v, e.sigma, e.kind, e.r, e.J, e.crossing)
                for e in g.edges]


def test_graph_validation():
    with pytest.raises(ScarlabError):
        ScarGraph(2, [Edge(u=0, v=0, sigma=1)])
    with pytest.raises(ScarlabError):
        ScarGraph(2, [Edge(u=0, v=1, sigma=1), Edge(u=1, v=0, sigma=-1)])
    with pytest.raises(ScarlabError):
        ScarGraph(2, [Edge(u=0, v=1, sigma=2)])


def test_circuit_rule_on_chain():
    g = chain(6)
    assert check_circuit_rule(g, commensurate_q(1, 6, 0.5)).satisfied
    # the single wrap cycle forbids q = 4K/5 on a 6-ring
    assert not check_circuit_rule(g, commensurate_q(1, 5, 0.5)).satisfied


def test_shifted_square_needs_unit_shift():
    q = commensurate_q(1, 4, 0.5)
    results = {shift: check_circuit_rule(square_shifted(4, 3, shift=shift), q).satisfied
               for shift in (0, 1, 2, 3)}
    assert results == {0: False, 1: True, 2: False, 3: False}


def test_classifications():
    assert classify(as_uniform_csse(honeycomb_su2(4, 2))) == CLASS_NONE
    assert classify(as_uniform_csse(triangular_su2(3, 3))) == CLASS_DEPENDENT
    assert classify(as_uniform_csse(kagome_su2(2, 2))) == CLASS_DEPENDENT
    assert classify(as_uniform_csse(square(3, 3))) == CLASS_INDEPENDENT
    assert classify(as_uniform_csse(lieb(2, 2))) == CLASS_INDEPENDENT


def test_site_phase_assignment_consistent():
    g = square(3, 3)
    q = commensurate_q(1, 3, 0.6)
    phases = assign_site_phases(g, q)
    # every edge steps the phase by -sigma * r * q, modulo full periods
    for e in g.edges:
        diff = phases[e.v] - phases[e.u]
        assert (diff + e.sigma * e.r * q.fraction) % 1 == 0


def test_generate_dispatch_and_dims_guards():
    g = generate("square", 3, 3)
    assert g.num_vertices == 9
    with pytest.raises(UnsupportedDims):
        generate("modified_honeycomb", 2, 2)
    with pytest.raises(UnsupportedDims):
        generate("trimer_brickwall", 2, 2)
    with pytest.raises(ScarlabError):
        generate("no_such_lattice", 2, 2)


def test_disconnected_graph_rejected_for_phases():
    g = ScarGraph(4, [Edge(u=0, v=1, sigma=1), Edge(u=2, v=3, sigma=1)])
    with pytest.raises(DisconnectedGraph):
        assign_site_phases(g, commensurate_q(1, 4, 0.5))


def _reference_report(g, q):
    """(chord, W) per fundamental cycle, satisfied and classification, by walking each cycle."""
    constraints, contractible_ok = [], True
    for cyc in fundamental_cycles(g):
        w = sum(d * g.edges[ei].sigma * g.edges[ei].r for ei, d in cyc)
        cross = tuple(sum(d * g.edges[ei].crossing[k] for ei, d in cyc) for k in (0, 1))
        constraints.append((cyc[0][0], w))
        if cross == (0, 0) and w != 0:
            contractible_ok = False
    vertex_ok = not check_vertex_rule(g)
    satisfied = vertex_ok and all((w * q.fraction).denominator == 1 for _, w in constraints)
    cls = (CLASS_NONE if not vertex_ok else
           CLASS_INDEPENDENT if contractible_ok else CLASS_DEPENDENT)
    return constraints, satisfied, cls


def test_tree_potential_windings_match_cycle_walks():
    graphs = GENERATORS + [as_uniform_csse(g) for g in
                           (triangular_su2(3, 3), kagome_su2(2, 2), honeycomb_su2(4, 2))]
    outcomes = set()
    for g in graphs:
        for denom in range(1, 9):
            for p in (1, 3):
                q = commensurate_q(p, denom, 0.5)
                rep = check_circuit_rule(g, q)
                constraints, satisfied, cls = _reference_report(g, q)
                assert rep.circuit_constraints == constraints
                assert rep.satisfied == satisfied
                assert rep.classification == cls
                assert rep.circuit_violations == [
                    (ci, w) for ci, w in constraints if (w * q.fraction).denominator != 1]
                outcomes.add((satisfied, cls))
    assert {s for s, _ in outcomes} == {True, False}
    assert {c for _, c in outcomes} == {CLASS_NONE, CLASS_DEPENDENT, CLASS_INDEPENDENT}


def test_assign_site_phases_rejects_violating_q():
    with pytest.raises(InconsistentPhases):
        assign_site_phases(chain(6), commensurate_q(1, 5, 0.5))
    with pytest.raises(InconsistentPhases):
        assign_site_phases(square_shifted(4, 3, shift=0), commensurate_q(1, 4, 0.5))


def test_phase_step_holds_on_every_edge_of_every_generator():
    with_nontrivial_q = 0
    for g in GENERATORS:
        admitted = [d for d in range(1, 13)
                    if check_circuit_rule(g, commensurate_q(1, d, 0.5)).satisfied]
        with_nontrivial_q += admitted != [1]
        for denom in admitted:
            q = commensurate_q(1, denom, 0.5)
            phases = assign_site_phases(g, q)
            assert phases[0] == 0 and all(0 <= f < 1 for f in phases)
            for e in g.edges:
                assert (phases[e.v] - phases[e.u] + e.sigma * e.r * q.fraction) % 1 == 0
    # modified_honeycomb(4, 3) has wrap windings 4 and 3: only q = 4pK admitted
    assert with_nontrivial_q == len(GENERATORS) - 1
