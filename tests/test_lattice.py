"""Scar graphs: rules, classification, generators, serialization."""

import copy
import hashlib
import json
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scarlab.elliptic import commensurate_q
from scarlab.errors import InconsistentPhases, InvalidGraph, ScarlabError, UnsupportedDims
from scarlab.lattice import (CLASS_DEPENDENT, CLASS_INDEPENDENT, CLASS_NONE, CSSE, SU2,
                             Edge, ScarGraph, as_uniform_csse,
                             assign_site_phases, chain, check_circuit_rule,
                             check_vertex_rule, classify, generate, honeycomb_su2, kagome_su2, lieb,
                             nnn_chain, square,
                             square_shifted, triangular_su2, trimer_brickwall,
                             trimer_ladder)

GENERATORS = [
    chain(6), square(3, 3), square_shifted(4, 3), lieb(2, 2),
    triangular_su2(3, 3), kagome_su2(2, 2), honeycomb_su2(4, 2),
    square(4, 3), trimer_ladder(4), trimer_brickwall(3, 3),
    nnn_chain(6),
]


def test_generators_satisfy_vertex_rule():
    for g in GENERATORS:
        assert check_vertex_rule(g) == [], g.boundary


def test_fundamental_cycle_count():
    for g in GENERATORS + [trimer_brickwall(3, 6)]:
        parent, chords = _forest(g)
        components = int((parent < 0).sum())
        assert len(chords) == len(ref.fundamental_cycles(g.num_vertices, g.edges)) == \
            g.num_edges - g.num_vertices + components
    assert int((_forest(trimer_brickwall(3, 6))[0] < 0).sum()) == 2


def test_json_round_trip():
    for g in GENERATORS:
        g2 = ScarGraph.from_json(g.to_json())
        assert g2.num_vertices == g.num_vertices
        assert [(e.u, e.v, e.sigma, e.kind, e.r, e.J, e.crossing)
                for e in g2.edges] == \
               [(e.u, e.v, e.sigma, e.kind, e.r, e.J, e.crossing)
                for e in g.edges]


def test_graph_validation():
    ok = Edge(u=0, v=1, sigma=1)
    assert (ok.kind, ok.r, ok.J, ok.crossing) == ("csse", 1, 1.0, (0, 0))
    cases = [
        ([Edge(u=0, v=0, sigma=1)], "self-loop at vertex 0"),
        ([ok, Edge(u=1, v=3, sigma=1)], "edge (1,3) outside vertex range"),
        ([ok, Edge(u=-1, v=1, sigma=1)], "edge (-1,1) outside vertex range"),
        ([ok, Edge(u=1, v=0, sigma=-1)], "duplicate edge (0, 1)"),
        ([Edge(u=0, v=1, sigma=1, kind="su2")], "SU(2) edges must carry sigma = 0"),
        ([Edge(u=0, v=1, sigma=2)], "CSSE edges must carry sigma = +1 or -1"),
        ([Edge(u=0, v=1, sigma=0)], "CSSE edges must carry sigma = +1 or -1"),
        ([Edge(u=0, v=1, sigma=1, kind="xyz")], "unknown edge kind 'xyz'"),
        ([Edge(u=0, v=1, sigma=1, r=0)], "multiplier r must be >= 1"),
        # several bad edges: the message names the first one in edge order
        ([Edge(u=1, v=2, sigma=1, r=0), Edge(u=2, v=2, sigma=1)], "multiplier r must be >= 1"),
        ([ok, Edge(u=2, v=1, sigma=5), Edge(u=0, v=1, sigma=1, r=0)],
         "CSSE edges must carry sigma = +1 or -1"),
    ]
    for edges, message in cases:
        with pytest.raises(ScarlabError) as err:
            ScarGraph(3, edges)
        assert str(err.value) == message
    assert ScarGraph(3, []).edges == []


def _reference_json(g):
    """The indented document the graph files used to be written as."""
    return json.dumps({"vertices": g.num_vertices,
                       "edges": [{"u": e.u, "v": e.v, "sigma": e.sigma, "kind": e.kind,
                                  "r": e.r, "J": e.J, "crossing": list(e.crossing)}
                                 for e in g.edges],
                       "boundary": dict(g.boundary)}, indent=1)


def _records(doc):
    """The document with its edge columns turned back into per-edge records."""
    cols = doc["edges"]
    return dict(doc, edges=[dict(zip(cols, rec)) for rec in zip(*cols.values())])


def test_compact_json_holds_the_indented_document():
    for g in GENERATORS:
        text, old = g.to_json(), _reference_json(g)
        assert "\n" not in text and _records(json.loads(text)) == json.loads(old)
        g2 = ScarGraph.from_json(old)
        assert g2.edges == g.edges and g2.boundary == g.boundary
        assert all(type(x) is int for e in g2.edges for x in (e.u, e.v, e.sigma, e.r, *e.crossing))


def test_column_document_loads_the_same_graph():
    for g in GENERATORS:
        doc = json.loads(g.to_json())
        assert list(doc["edges"]) == ["u", "v", "sigma", "kind", "r", "J", "crossing"]
        g2 = ScarGraph.from_json(g.to_json())
        assert g2.edges == g.edges and g2.boundary == g.boundary
        assert g2.num_edges == g.num_edges == len(g.edges)
        assert all(type(x) is int for e in g2.edges for x in (e.u, e.v, e.sigma, e.r, *e.crossing))
        assert all(type(e.J) is float and type(e.kind) is str for e in g2.edges)


def test_missing_crossings_are_inferred_from_grid_numbering():
    grids = [chain(6), square(3, 3), square(4, 5), triangular_su2(3, 3), square(4, 3),
             trimer_brickwall(3, 3), nnn_chain(6)]
    grids += [square_shifted(nx, ny, shift=s) for nx, ny in ((3, 3), (3, 4), (4, 3), (5, 4))
              for s in range(nx)]
    for g in grids:
        doc = json.loads(_reference_json(g))
        for rec in doc["edges"]:
            del rec["crossing"]
        assert ScarGraph.from_json(json.dumps(doc)).edges == g.edges, g.boundary
    # Lieb numbering is not a plain grid: every crossing falls back to (0, 0)
    doc = json.loads(_reference_json(lieb(2, 2)))
    for rec in doc["edges"]:
        del rec["crossing"]
    assert {e.crossing for e in ScarGraph.from_json(json.dumps(doc)).edges} == {(0, 0)}


def test_missing_crossing_column_is_inferred_from_grid_numbering():
    grids = [chain(6), square(4, 5), triangular_su2(3, 3), nnn_chain(6)]
    grids += [square_shifted(nx, ny, shift=s) for nx, ny in ((3, 4), (5, 4)) for s in range(nx)]
    for g in grids:
        doc = json.loads(g.to_json())
        del doc["edges"]["crossing"]
        assert ScarGraph.from_json(json.dumps(doc)).edges == g.edges, g.boundary
    doc = json.loads(lieb(2, 2).to_json())
    del doc["edges"]["crossing"]
    assert {e.crossing for e in ScarGraph.from_json(json.dumps(doc)).edges} == {(0, 0)}
    # records that keep their crossing keep it; the others are inferred
    g = square_shifted(4, 3, shift=1)
    doc = json.loads(_reference_json(g))
    for rec in doc["edges"][::2]:
        del rec["crossing"]
    assert ScarGraph.from_json(json.dumps(doc)).edges == g.edges


_BAD_VALUES = (("u", 1.7), ("v", 1.7), ("sigma", -0.5), ("r", 1.5), ("r", "2"),
               ("u", None), ("crossing", [0.5, 0]), ("crossing", ["1", 0]))


def test_graph_file_values_must_be_integers():
    doc = json.loads(_reference_json(square(3, 3)))
    assert ScarGraph.from_json(json.dumps(doc)).edges == square(3, 3).edges
    doc["edges"][4]["v"] = float(doc["edges"][4]["v"])     # an integral float loads as int
    assert type(ScarGraph.from_json(json.dumps(doc)).edges[4].v) is int
    for key, value in _BAD_VALUES:
        bad = json.loads(_reference_json(square(3, 3)))
        bad["edges"][2][key] = value
        with pytest.raises(ScarlabError, match=f"every '{key}' must be an integer"):
            ScarGraph.from_json(json.dumps(bad))


def test_graph_file_columns_must_hold_integers():
    doc = json.loads(square(3, 3).to_json())
    doc["edges"]["v"][4] = float(doc["edges"]["v"][4])     # an integral float loads as int
    assert type(ScarGraph.from_json(json.dumps(doc)).edges[4].v) is int
    for key, value in _BAD_VALUES + (("sigma", None), ("v", "2"), ("crossing", [None, 0])):
        bad = json.loads(square(3, 3).to_json())
        bad["edges"][key][2] = value
        with pytest.raises(InvalidGraph, match=f"^graph file: every '{key}' must be an integer$"):
            ScarGraph.from_json(json.dumps(bad))


_EDGE = {"u": 0, "v": 1, "sigma": 1, "kind": "csse"}


@pytest.mark.parametrize("doc", [
    [1, 2],                                                     # top-level array
    {"vertices": 2, "edges": [[0, 1]]},                         # edge record not an object
    {"vertices": 2, "edges": [dict(_EDGE, crossing=5)]},        # non-list crossing
    {"vertices": 2, "edges": [dict(_EDGE, crossing=[0, 1, 0])]},  # crossing not a pair
    {"vertices": 2, "edges": {"0": _EDGE}},                     # edges object lacks the columns
    {"vertices": 2, "edges": [_EDGE], "boundary": 5},           # boundary not an object
])
def test_malformed_graph_documents_raise_invalid_graph(doc):
    with pytest.raises(InvalidGraph):
        ScarGraph.from_json(json.dumps(doc))


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
    with pytest.raises(UnsupportedDims, match="unknown lattice kind 'modified_honeycomb'"):
        generate("modified_honeycomb", 4, 3)
    with pytest.raises(UnsupportedDims):
        generate("trimer_brickwall", 2, 2)
    with pytest.raises(ScarlabError):
        generate("no_such_lattice", 2, 2)


def test_disconnected_graph_gets_phases_per_component():
    # two rings of windings 3 and 6 and an isolated vertex; each root sits at phase 0
    g = ScarGraph(7, [Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 0, 1),
                      Edge(3, 4, 1, r=2), Edge(4, 5, 1, r=2), Edge(5, 3, 1, r=2)])
    q = commensurate_q(1, 3, 0.5)
    thirds = [0, 2, 1, 0, 1, 2, 0]
    assert assign_site_phases(g, q) == [Fraction(k, 3) for k in thirds]
    rep = check_circuit_rule(g, q)
    assert rep.satisfied and rep.circuit_constraints == [(1, 3), (4, 6)]
    assert classify(g) == CLASS_DEPENDENT


def _reference_report(g, q):
    """(chord, W) per fundamental cycle, satisfied and classification, by walking each cycle."""
    constraints, contractible_ok = [], True
    for cyc in ref.fundamental_cycles(g.num_vertices, g.edges):
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
    # square(4, 3) has wrap windings 4 and 3: only q = 4pK admitted
    assert with_nontrivial_q == len(GENERATORS) - 1


RELABEL_GRAPHS = GENERATORS + [square_shifted(3, 3, shift=1), square_shifted(3, 4, shift=1),
                               square_shifted(4, 3, shift=1), square_shifted(3, 3, shift=2)]


def _relabelled(g, rng):
    """Same graph with permuted vertices, shuffled edges and some edges reversed."""
    perm = list(range(g.num_vertices))
    rng.shuffle(perm)
    edges = []
    for e in g.edges:
        u, v, sigma, crossing = e.u, e.v, e.sigma, e.crossing
        if rng.random() < 0.5:
            u, v, sigma, crossing = v, u, -sigma, (-crossing[0], -crossing[1])
        edges.append(Edge(perm[u], perm[v], sigma, e.kind, e.r, e.J, crossing))
    rng.shuffle(edges)
    return ScarGraph(g.num_vertices, edges, g.boundary)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_classification_does_not_depend_on_labelling(seed):
    rng = random.Random(seed)
    for g in RELABEL_GRAPHS:
        h = _relabelled(g, rng)
        assert classify(h) == classify(g) == ref.classify(h.num_vertices, h.edges), g.boundary


# --- columns against the per-edge reference implementations ---------------------------

import lattice_reference as ref  # noqa: E402  (tests/ is on sys.path under pytest)
from scarlab.lattice import _forest, _potentials  # noqa: E402

TEST_SIZES = [("chain", 6), ("chain", 3), ("square", 3, 3), ("square", 4, 5),
              ("square_shifted", 4, 3), ("square_shifted", 3, 5), ("lieb", 2, 2), ("lieb", 3, 2),
              ("triangular_su2", 3, 3), ("kagome_su2", 2, 2), ("kagome_su2", 3, 2),
              ("honeycomb_su2", 4, 2), ("honeycomb_su2", 6, 4), ("square", 4, 3),
              ("trimer_ladder", 4), ("trimer_brickwall", 3, 3), ("trimer_brickwall", 4, 6),
              ("nnn_chain", 6), ("nnn_chain", 7)]
# the lattices of the lattice_scale benchmark workload
SCALE_SIZES = [("square", 100, 100), ("square_shifted", 60, 60), ("lieb", 30, 30),
               ("kagome_su2", 30, 30), ("honeycomb_su2", 60, 60), ("triangular_su2", 50, 50),
               ("trimer_ladder", 1000), ("nnn_chain", 3000), ("trimer_brickwall", 30, 30)]


def _assert_same_tree(g):
    """The CSR walk builds the forest of the adjacency-list BFS, potentials included."""
    parent, chords, winding, crossing = ref.spanning_tree(g.num_vertices, g.edges)
    tree_parent, tree_chords = _forest(g)
    assert [None if h < 0 else (h >> 1, 1 - 2 * (h & 1)) for h in tree_parent.tolist()] == parent
    assert tree_chords.tolist() == chords
    c, pot, _ = _potentials(g, np.column_stack([g.sigma * g.r, g.crossing]))
    assert c.tolist() == chords
    assert pot[:, 0].tolist() == winding
    assert list(map(tuple, pot[:, 1:].tolist())) == crossing


@pytest.mark.parametrize("kind, dims", [(k, d) for k, *d in TEST_SIZES + SCALE_SIZES])
def test_generators_emit_the_reference_edges_and_tree(kind, dims):
    g = generate(kind, *dims)
    n, edges, boundary = ref.GENERATORS[kind](*dims)
    assert (g.num_vertices, g.boundary, g.num_edges) == (n, boundary, len(edges))
    assert g.edges == edges
    assert all(type(x) is int for e in g.edges for x in (e.u, e.v, e.sigma, e.r, *e.crossing))
    _assert_same_tree(g)


def test_generator_options_reach_the_columns():
    g = square_shifted(5, 3, shift=2, J=0.5)
    assert g.edges == ref.square_shifted(5, 3, shift=2, J=0.5)[1]
    for kind, args in (("triangular_su2", (3, 4, 0.5, 2.0)), ("kagome_su2", (3, 2, 0.5, 2.0)),
                       ("honeycomb_su2", (4, 4, 0.5, 2.0)), ("trimer_ladder", (5, 0.5, 2.0)),
                       ("trimer_brickwall", (4, 3, 0.5, 2.0)), ("nnn_chain", (8, 0.5, 2.0)),
                       ("chain", (5, 0.5)), ("lieb", (2, 3, 0.5))):
        assert generate(kind, *args).edges == ref.GENERATORS[kind](*args)[1], kind


def test_disconnected_brickwall_gets_rules_and_phases_per_band():
    g = trimer_brickwall(30, 30)
    assert np.flatnonzero(_forest(g)[0] < 0).tolist() == list(range(0, 900, 90))
    q = commensurate_q(1, 30, 0.5)
    assert check_circuit_rule(g, q).satisfied
    phases = assign_site_phases(g, q)
    assert all(phases[k] == 0 for k in range(0, 900, 90))
    assert all((phases[e.v] - phases[e.u] + e.sigma * e.r * q.fraction) % 1 == 0
               for e in g.edges)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_column_and_record_documents_load_alike(seed):
    rng = random.Random(seed)
    for g in RELABEL_GRAPHS:
        h = _relabelled(g, rng)
        columns, records = ScarGraph.from_json(h.to_json()), ScarGraph.from_json(_reference_json(h))
        assert columns.edges == records.edges == h.edges
        assert columns.boundary == records.boundary == h.boundary
        assert columns.to_json() == records.to_json() == h.to_json()
        _assert_same_tree(h)


def test_columns_are_read_only():
    g = square(3, 3)
    for name, col in g.columns.items():
        assert len(col) == g.num_edges and not col.flags.writeable, name
        with pytest.raises(ValueError):
            col[0] = col[1]
    assert g.crossing.shape == (g.num_edges, 2)


_EDGE_VALUES = st.sampled_from([-1, 0, 1, 2, 3, 4])


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), records=st.lists(st.tuples(
    _EDGE_VALUES, _EDGE_VALUES, st.sampled_from([-2, -1, 0, 1, 2]),
    st.sampled_from(["csse", "su2", "xyz"]), st.sampled_from([0, 1, 2])), max_size=6))
def test_column_validation_names_the_edge_the_walk_names(n, records):
    edges = [Edge(u, v, sigma, kind, r) for u, v, sigma, kind, r in records]
    try:
        ref.validate(n, edges)
    except InvalidGraph as exc:
        with pytest.raises(InvalidGraph) as err:
            ScarGraph(n, edges)
        assert str(err.value) == str(exc)
    else:
        assert ScarGraph(n, edges).edges == edges


_DOC_VALUES = [1.7, "2", None, True, -1, 0, 1, 2, 3, 8, 9, 2 ** 70, -2 ** 70, 1.0, -0.5,
               [0, 1], [0.5, 0], ["1", 0], [0, 0, 0], [2 ** 70, 0], "csse", "su2", "xyz",
               "1.5", {}]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), edits=st.integers(1, 3))
def test_record_documents_load_as_the_record_reader_did(seed, edits):
    """Edited per-record files load to the same graph, or fail with the same error."""
    rng = random.Random(seed)
    doc = json.loads(_reference_json(rng.choice([square(3, 3), square_shifted(4, 3), lieb(2, 2),
                                                 kagome_su2(2, 2), nnn_chain(6)])))
    for _ in range(edits):
        where = rng.random()
        if where < 0.1:
            doc["vertices"] = rng.choice(_DOC_VALUES)
        elif where < 0.15:
            doc["boundary"]["shift"] = rng.choice([1, 2 ** 40, "x"])
        else:
            rec = rng.choice(doc["edges"])
            key = rng.choice(["u", "v", "sigma", "kind", "r", "J", "crossing"])
            if rng.random() < 0.25:
                rec.pop(key, None)
            else:
                rec[key] = rng.choice(_DOC_VALUES)
    text = json.dumps(doc)
    try:
        n, edges, boundary = ref.load_records(text)
    except (InvalidGraph, KeyError, ValueError) as exc:    # one line and exit 3 from the CLI
        with pytest.raises(type(exc)) as err:
            ScarGraph.from_json(text)
        assert str(err.value) == str(exc)
    except (TypeError, OverflowError):                     # a J that float() rejects
        with pytest.raises(InvalidGraph, match="every 'J' must be a number"):
            ScarGraph.from_json(text)
    else:
        g = ScarGraph.from_json(text)
        assert (g.num_vertices, g.edges, g.boundary) == (n, edges, boundary)


def _edited_column_document(rng):
    """A generator's column file with 1-3 edits: a value from _DOC_VALUES put in place
    of the vertex count, of a column entry or of a whole column, a bad shift, or a
    column dropped or cut short."""
    doc = json.loads(rng.choice([square(3, 3), square_shifted(4, 3), lieb(2, 2), kagome_su2(2, 2),
                                 nnn_chain(6)]).to_json())
    cols = doc["edges"]
    for _ in range(rng.randint(1, 3)):
        where, key = rng.random(), rng.choice(Edge._fields)
        value = copy.deepcopy(rng.choice(_DOC_VALUES))
        if where < 0.1:
            doc["vertices"] = value
        elif where < 0.15:
            doc["boundary"]["shift"] = rng.choice([1, 2 ** 40, "x"])
        elif where < 0.3:
            cols.pop(key, None)
        elif where < 0.35:
            cols[key] = value
        elif type(cols.get(key)) is list and cols[key]:
            if where < 0.5:
                del cols[key][rng.randrange(len(cols[key])):]
            else:
                cols[key][rng.randrange(len(cols[key]))] = value
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_column_documents_load_as_the_column_reader_did(seed):
    """Edited column files load to the same graph as the list-based column reader, or
    fail with the same error."""
    text = _edited_column_document(random.Random(seed))
    try:
        n, edges, boundary = ref.load_columns(text)
    except (InvalidGraph, KeyError, ValueError) as exc:    # one line and exit 3 from the CLI
        with pytest.raises(type(exc)) as err:
            ScarGraph.from_json(text)
        assert str(err.value) == str(exc)
    else:
        g = ScarGraph.from_json(text)
        assert (g.num_vertices, g.edges, g.boundary) == (n, edges, boundary)


# J values whose text a value-keyed table would merge: signed zeros, NaNs of two
# payloads, the smallest subnormal and the infinities
_NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
_J_TEXT_VALUES = [-0.0, 0.0, 5e-324, math.nan, _NAN_PAYLOAD, 1e308, math.inf, -math.inf, 0.1, 1.0]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 6), stride=st.sampled_from([1, 3, 2 ** 40]))
def test_writer_matches_the_dumps_oracle_on_random_columns(data, n, stride):
    """Byte-identical to json.dumps on every column path: narrow and wide integer
    ranges, r and crossing beyond 64 bits, the J values above, mixed kinds, m = 0."""
    pairs = data.draw(st.lists(st.sampled_from([(a, b) for a in range(n) for b in range(a + 1, n)]),
                               unique=True, max_size=15))
    small = data.draw(st.booleans())
    r = st.sampled_from([1, 2] if small else [1, 2, 2 ** 62, 2 ** 70])
    cross = st.sampled_from([-1, 0, 1] if small else [-1, 0, 2, 2 ** 62, 2 ** 70, -2 ** 63])
    edges = []
    for a, b in pairs:
        kind = data.draw(st.sampled_from([CSSE, SU2]))
        sigma = 0 if kind == SU2 else data.draw(st.sampled_from([1, -1]))
        edges.append(Edge(a * stride, b * stride, sigma, kind, data.draw(r),
                          data.draw(st.sampled_from(_J_TEXT_VALUES)),
                          (data.draw(cross), data.draw(cross))))
    g = ScarGraph((n - 1) * stride + 1, edges)
    text = g.to_json()
    assert text == ref.to_json(g)
    assert ScarGraph.from_json(text).to_json() == text


@pytest.mark.parametrize("kind, dims", [(k, d) for k, *d in TEST_SIZES + SCALE_SIZES])
def test_writer_matches_the_dumps_oracle_on_generators(kind, dims):
    g = generate(kind, *dims)
    assert g.to_json() == ref.to_json(g)


def test_square_100x100_file_is_pinned():
    text = square(100, 100).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "7b592557924274908b3d93d549a31f52abcb944bd7170c8089ac525d3b14c1ab"


def test_values_beyond_64_bits_stay_exact():
    big = 2 ** 70
    edges = [Edge(0, 1, 1, r=big), Edge(1, 2, 1, crossing=(big, 0)), Edge(2, 0, 1)]
    g = ScarGraph(3, edges)
    assert g.edges == edges and ScarGraph.from_json(g.to_json()).edges == edges
    _assert_same_tree(g)
    for denom in (1, 2, 3, big + 2, 2 ** 80):
        q = commensurate_q(1, denom, 0.5)
        constraints, satisfied, cls = _reference_report(g, q)
        rep = check_circuit_rule(g, q)
        assert (rep.circuit_constraints, rep.satisfied, rep.classification) == \
            (constraints, satisfied, cls)
    # a denominator beyond 64 bits on int64 windings
    for g in (square(3, 3), chain(6)):
        q = commensurate_q(1, 2 ** 70, 0.5)
        rep = check_circuit_rule(g, q)
        assert (rep.circuit_constraints, rep.satisfied, rep.classification) == \
            _reference_report(g, q)
    with pytest.raises(InconsistentPhases, match="winding -3, and -3 \\* 1/1180591620717411303424"):
        assign_site_phases(square(3, 3), commensurate_q(1, 2 ** 70, 0.5))
    # windings that leave int64 on a long path go through Python ints
    N = 40
    edges = [Edge(k, (k + 1) % N, 1, r=2 ** 60, crossing=(int(k == N - 1), 0)) for k in range(N)]
    g = ScarGraph(N, edges)
    _assert_same_tree(g)
    rep = check_circuit_rule(g, commensurate_q(1, 5, 0.5))
    assert rep.circuit_constraints == _reference_report(g, commensurate_q(1, 5, 0.5))[0] == \
        [(N // 2, N * 2 ** 60)]
    phases = assign_site_phases(g, commensurate_q(1, 2, 0.5))
    assert phases == [Fraction(0)] * N


# --- classification from forest potentials against the walk-based reference -----------

@pytest.mark.parametrize("kind, dims", [(k, d) for k, *d in TEST_SIZES])
def test_classify_matches_the_walk_reference_on_generators(kind, dims):
    for g in (generate(kind, *dims), as_uniform_csse(generate(kind, *dims))):
        assert classify(g) == ref.classify(g.num_vertices, g.edges), g.boundary


def _cycle_union(rng) -> ScarGraph:
    """Random CSSE edges forming the symmetric difference of random cycles (so every
    CSSE degree is even), r in {1, 2, 3}, random sigmas and some random crossings,
    plus a few SU(2) edges; vertices left out of every cycle stay isolated."""
    n = rng.randint(3, 7)
    pairs = {}
    for _ in range(rng.randint(1, 4)):
        cyc = rng.sample(range(n), rng.randint(3, n))
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            key = (min(a, b), max(a, b))
            if pairs.pop(key, None) is None:
                pairs[key] = (a, b)
    su2 = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in pairs]
    su2 = rng.sample(su2, min(len(su2), rng.randint(0, 3)))

    def crossing():
        return (rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1))) if rng.random() < 0.3 else (0, 0)

    edges = [Edge(a, b, rng.choice((1, -1)), CSSE, rng.choice((1, 2, 3)), 1.0, crossing())
             for a, b in pairs.values()]
    edges += [Edge(a, b, 0, SU2, rng.choice((1, 2, 3)), 1.0, crossing()) for a, b in su2]
    rng.shuffle(edges)
    return ScarGraph(n, edges)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_classify_matches_the_walk_reference_on_cycle_unions(seed):
    rng = random.Random(seed)
    for _ in range(10):
        g = _cycle_union(rng)
        assert classify(g) == ref.classify(g.num_vertices, g.edges)
        q = commensurate_q(1, rng.randint(1, 6), 0.5)
        rep = check_circuit_rule(g, q)
        assert (rep.circuit_constraints, rep.satisfied, rep.classification) == \
            _reference_report(g, q)


def test_cycle_unions_reach_both_search_outcomes():
    rng = random.Random(7)      # even CSSE degrees: every graph reaches the sigma search
    seen = {classify(_cycle_union(rng)) for _ in range(200)}
    assert seen == {CLASS_DEPENDENT, CLASS_INDEPENDENT}


def _walked_rows(g, step):
    """step summed edge by edge around each walked fundamental cycle."""
    return [sum((d * step[ei] for ei, d in cyc), np.zeros(step.shape[1], dtype=step.dtype))
            for cyc in ref.fundamental_cycles(g.num_vertices, g.edges)]


def test_chord_rows_equal_the_walked_cycle_coefficients():
    rng = np.random.default_rng(5)
    pyrng = random.Random(5)
    graphs = GENERATORS + [as_uniform_csse(g) for g in GENERATORS] + \
        [trimer_brickwall(3, 6)] + [_cycle_union(pyrng) for _ in range(30)]
    for g in graphs:
        csse = np.flatnonzero(g.kind == CSSE)
        slot_step = np.zeros((g.num_edges, csse.size), dtype=np.int64)
        slot_step[csse, np.arange(csse.size)] = g.r[csse]     # classify's coefficient step
        for step in (np.column_stack([slot_step, g.crossing]),
                     rng.integers(-5, 6, size=(g.num_edges, 3))):
            chords, _, rows = _potentials(g, step)
            assert chords.tolist() == _forest(g)[1].tolist()
            assert [r.tolist() for r in rows] == [r.tolist() for r in _walked_rows(g, step)]
