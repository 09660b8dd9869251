"""Graph model for scar-supporting lattices.

Edges carry a flow label sigma in {-1, 0, +1} (0 marks isotropic SU(2) bonds),
a positive integer multiplier r, and a bond strength.  Two rules decide
whether a helical product state can live on the graph:

  * vertex rule: the signed flow into every vertex sums to zero;
  * circuit rule: around any closed path the accumulated phase sum(sigma*r)*q
    must vanish modulo 4K(kappa).

The circuit rule is checked on a fundamental-cycle basis only (cycle-space
linearity covers every other circuit) and is evaluated in exact integer
arithmetic on the rational tag q/(4K) = p/denominator.  Every cycle question
(the circuit rule, the site phases and the classification) reads its cycles
from one path: integer potentials of a per-edge step on a BFS spanning
forest, so each chord's cycle costs O(1) and no cycle is walked.  A
disconnected graph is handled component by component, each root at phase 0.

A graph is a set of numpy edge columns (u, v, sigma, kind, r, J, crossing);
validation, the rules and the generators work on whole columns.

On toroidal graphs the cycles that wrap the boundary are allowed a nonzero
winding (they only restrict the admissible q); the lattice-independence
classification constrains contractible cycles alone.  Each edge therefore
carries a boundary-crossing vector so cycle contractibility is computable.
"""

from __future__ import annotations

import array
import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .elliptic import CommensurateQ
from .errors import InconsistentPhases, InvalidGraph, UnsupportedDims

CSSE = "csse"
SU2 = "su2"

CLASS_NONE = "None"
CLASS_DEPENDENT = "LatticeDependent"
CLASS_INDEPENDENT = "LatticeIndependent"
CLASS_UNKNOWN = "Unknown"

SIGMA_SEARCH_CAP = 30   # exact sigma-assignment search above this many CSSE edges


class Edge(NamedTuple):
    u: int
    v: int
    sigma: int
    kind: str = CSSE
    r: int = 1
    J: float = 1.0
    crossing: tuple = (0, 0)   # boundary-wrap counts (x, y)


class ScarGraph:
    """A graph held as read-only numpy edge columns, row i describing edge i.

    u, v, sigma and r are int64, kind an object array of strings, J float64
    and crossing an (m, 2) int64 array; r and crossing fall back to Python-int
    objects for values beyond 64 bits.  `edges` rebuilds the Edge records
    (once, on first use) for small-graph consumers; `forest`, the BFS forest
    every rule and phase check reads, is also walked once, on first use.
    """

    def __init__(self, num_vertices: int, edges=(), boundary: dict | None = None):
        """edges: Edge records, or a dict of columns keyed by Edge field, in which
        kind, r and J may be scalars and kind, r, J and crossing may be left out."""
        if not isinstance(edges, dict):
            edges = list(edges)
            edges = dict(zip(Edge._fields, zip(*edges))) if edges else {}
        m = len(edges.get("u", ()))
        cols = {"u": (), "v": (), "sigma": (), **edges}
        for k in ("kind", "r", "J"):
            c = cols.get(k, Edge._field_defaults[k])
            cols[k] = [c] * m if np.isscalar(c) else c
        self.num_vertices = num_vertices
        self.boundary = {"type": "none"} if boundary is None else boundary
        self.u, self.v, self.sigma, self.r = (_int_column(cols[k], k)
                                              for k in ("u", "v", "sigma", "r"))
        self.crossing = _crossing_column(cols.get("crossing", np.zeros((m, 2))), m)
        self.kind = np.array(cols["kind"], dtype=object).reshape(m)
        self.J = np.array(cols["J"], dtype=float).reshape(m)
        _check_edges(num_vertices, self.u, self.v, self.sigma, self.kind, self.r)
        self.u, self.v, self.sigma = (c.astype(np.int64, copy=False)
                                      for c in (self.u, self.v, self.sigma))
        for c in self.columns.values():
            c.flags.writeable = False

    @property
    def num_edges(self) -> int:
        return len(self.u)

    @property
    def columns(self) -> dict:
        return {k: getattr(self, k) for k in Edge._fields}

    @functools.cached_property
    def edges(self) -> list:
        """The edges as Edge records of Python scalars."""
        ranged = _range_rows(self.crossing)     # one tuple per distinct crossing, shared
        crossing = (map(ranged[1].__getitem__, ranged[0].tolist()) if ranged
                    else zip(*self.crossing.T.tolist()))
        rows = zip(*(self.columns[k].tolist() for k in Edge._fields[:-1]), crossing)
        return list(map(functools.partial(tuple.__new__, Edge), rows))   # no per-edge __new__

    @functools.cached_property
    def forest(self) -> tuple:
        """The BFS spanning forest (parent, chords) of _forest, walked once per graph."""
        return _forest(self)

    def to_json(self) -> str:
        """One compact JSON document, the edges as one object of seven columns (json.dumps' text)."""
        cols = ", ".join(f'"{k}": {_json_column(c)}' for k, c in self.columns.items())
        return (f'{{"vertices": {json.dumps(self.num_vertices)}, "edges": {{{cols}}}, '
                f'"boundary": {json.dumps(dict(self.boundary))}}}')

    @classmethod
    def from_json(cls, text: str) -> "ScarGraph":
        """Read a graph file: edges as one object of columns, or as a list of edge records.

        Both layouts go through the same column checks, in the order the
        record reader always made them.  A record may omit r, J and crossing
        (inferred from grid numbering), a column document the r, J and
        crossing columns.
        """
        doc = json.loads(text)
        if not (isinstance(doc, dict) and isinstance(doc.get("edges"), (list, dict))
                and isinstance(doc.get("boundary", {}), dict)):
            raise InvalidGraph("graph file: expected an object with an 'edges' list "
                               "and an optional 'boundary' object")
        boundary = dict(doc.get("boundary", {"type": "none"}))
        edges = doc["edges"]
        if isinstance(edges, list):
            if not all(type(rec) is dict for rec in edges):
                raise InvalidGraph("graph file: every edge must be an object")
            column = functools.partial(_record_column, edges)
        else:
            _check_document(edges)
            column = functools.partial(_document_column, edges)
        crossing = column("crossing")
        pairs = set(map(type, crossing)) <= {list} and set(map(len, crossing)) <= {2}
        if not (pairs or all(c is _MISSING or (type(c) is list and len(c) == 2)
                             for c in crossing)):
            raise InvalidGraph("graph file: every 'crossing' must be a list of two integers")
        n = int(_int_column([doc["vertices"]], "vertices", _FILE)[0])
        u, v, sigma, r = (_int_column(column(k), k, _FILE) for k in ("u", "v", "sigma", "r"))
        if not pairs:       # some crossings are missing
            inferred = _infer_crossing(u, v, n, boundary).tolist()
            crossing = [i if c is _MISSING else c for c, i in zip(crossing, inferred)]
        crossing = _crossing_column(crossing, len(u), _FILE)
        kind, J = column("kind"), column("J")
        if not set(map(type, kind)) <= {str}:
            kind = list(map(str, kind))
        if not set(map(type, J)) <= {float}:
            J = list(map(_float, J))
        return cls(n, dict(u=u, v=v, sigma=sigma, kind=kind, r=r, J=J, crossing=crossing),
                   boundary)


_FILE = "graph file: "
_MISSING = object()     # a record without a crossing: inferred from grid numbering


def _record_column(recs, name) -> list:
    """One column of per-record edges; u, v, sigma and kind are required (KeyError)."""
    if name == "kind":
        try:
            return list(map(itemgetter("kind"), recs))
        except KeyError:    # raise what a record-by-record read meets first: kind, then J
            for rec in recs:
                rec["kind"], _float(rec.get("J", 1.0))
    if name == "crossing":
        return [rec.get("crossing", _MISSING) for rec in recs]
    if name in Edge._field_defaults:
        return [rec.get(name, Edge._field_defaults[name]) for rec in recs]
    return list(map(itemgetter(name), recs))


def _check_document(cols) -> None:
    """An edges object holds u, v, sigma and kind, and every column is a list of one length."""
    for k in ("u", "v", "sigma", "kind"):
        if k not in cols:
            raise InvalidGraph(f"graph file: the 'edges' object has no {k!r} column")
    m = len(cols["u"]) if type(cols["u"]) is list else 0
    for k in Edge._fields:
        if k in cols and type(cols[k]) is not list:
            raise InvalidGraph(f"graph file: edge column {k!r} must be a list")
        if k in cols and len(cols[k]) != m:
            raise InvalidGraph(f"graph file: edge column {k!r} has {len(cols[k])} entries, "
                               f"'u' has {m}")


def _range_rows(c: np.ndarray):
    """(index, rows), row i of c being rows[index[i]], for an int64 column whose rows can
    take at most len(c) values: rows lists them all, as ints (1-D c) or tuples; else None."""
    rows = c[:, None] if c.ndim == 1 else c
    lo, hi = (int(c.min()), int(c.max())) if c.dtype == np.int64 and c.size else (0, -1)
    if not 0 < (hi - lo + 1) ** rows.shape[1] <= len(c):
        return None
    index = (rows - lo) @ (hi - lo + 1) ** np.arange(rows.shape[1] - 1, -1, -1)
    values = range(lo, hi + 1)
    return index, values if c.ndim == 1 else list(itertools.product(values, repeat=rows.shape[1]))


def _json_column(c: np.ndarray) -> str:
    """json.dumps(c.tolist()) from the text of each distinct value (row), made once.

    1-D float64 is keyed by bit pattern, so -0.0 and 0.0 (and NaNs) keep their own
    text; Python-int objects, strings and wide int ranges are dumped whole."""
    if ranged := _range_rows(c):
        index, rows = ranged
        words = list(map(str, rows if c.ndim == 1 else map(list, rows)))
    elif c.dtype == np.float64 and c.ndim == 1 and c.size:
        bits, index = np.unique(c.view(np.int64), return_inverse=True)
        words = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
    else:
        return json.dumps(c.tolist())
    return f"[{', '.join(np.array(words, dtype=object)[index].tolist())}]"


def _document_column(cols, name) -> list:
    """One column of a checked edges object; a missing optional column takes the default."""
    if name in cols:
        return cols[name]
    return [_MISSING if name == "crossing" else Edge._field_defaults[name]] * len(cols["u"])


def _float(value) -> float:
    try:
        return float(value)
    except (TypeError, OverflowError):
        raise InvalidGraph(f"graph file: every 'J' must be a number, got {value!r}") from None


def _int_column(values, name, source="") -> np.ndarray:
    """values as an int64 array (Python-int objects beyond 64 bits).

    A non-integral value (1.7, "1", null) is invalid input, named by column.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iub":
        return values.astype(np.int64)
    values = list(values)
    try:        # one C pass that checks and converts Python ints (and bools) of 64 bits
        return np.array(array.array("q", values))
    except (TypeError, OverflowError):
        pass
    try:
        ints = list(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values:
        raise InvalidGraph(f"{source}every {name!r} must be an integer")
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


def _crossing_column(values, m, source="") -> np.ndarray:
    """The (m, 2) crossing column from an array or from m integer pairs."""
    if isinstance(values, np.ndarray):
        values = values.reshape(-1)
    else:
        values = itertools.chain.from_iterable(values)
    return _int_column(values, "crossing", source).reshape(m, 2)


def _check_edges(n, u, v, sigma, kind, r) -> None:
    """Reject invalid edges, naming the first one in edge order.

    Per edge the checks run in a fixed order (self-loop, vertex range,
    duplicate of an earlier edge, sigma for the kind, kind, multiplier), so
    the message is the one an edge-by-edge walk would give.
    """
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    loop = u == v
    outside = (lo < 0) | (hi >= n)
    dup = np.zeros(len(u), dtype=bool)
    ok = np.flatnonzero(~(loop | outside))
    if ok.size > 1:     # a stable sort by (lo, hi) puts the earlier of two equal edges first
        ok = ok[np.lexsort((hi[ok].astype(np.int64), lo[ok].astype(np.int64)))]
        same = (lo[ok[1:]] == lo[ok[:-1]]) & (hi[ok[1:]] == hi[ok[:-1]])
        dup[ok[1:][same]] = True
    su2, csse = kind == SU2, kind == CSSE
    checks = (loop, outside, dup, su2 & (sigma != 0), csse & (sigma != 1) & (sigma != -1),
              ~(su2 | csse), r < 1)
    bad = np.logical_or.reduce(checks)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    ui, vi = u[i], v[i]
    messages = (f"self-loop at vertex {ui}", f"edge ({ui},{vi}) outside vertex range",
                f"duplicate edge ({min(ui, vi)}, {max(ui, vi)})",
                "SU(2) edges must carry sigma = 0", "CSSE edges must carry sigma = +1 or -1",
                f"unknown edge kind {kind[i]!r}", "multiplier r must be >= 1")
    raise InvalidGraph(next(msg for check, msg in zip(checks, messages) if check[i]))


def _infer_crossing(u, v, num_vertices, boundary) -> np.ndarray:
    """Reconstruct (m, 2) boundary crossings for plain-grid vertex numbering.

    Only applies when vertices are numbered v = x + nx*y on a torus; other
    encodings get (0, 0), which is the conservative choice (every cycle is
    treated as contractible, so classification can only get stricter).  A
    y-wrap on a shifted torus lands `shift` columns left; that is undone first.
    """
    if boundary.get("type") not in ("toroidal", "toroidal_shifted"):
        return np.zeros((len(u), 2), dtype=np.int64)
    nx, ny = int(boundary.get("nx", 0)), int(boundary.get("ny", 0))
    if nx * ny != num_vertices or nx < 2 or ny < 1:
        return np.zeros((len(u), 2), dtype=np.int64)
    shift = int(boundary.get("shift", 0))
    if abs(shift) >= 2 ** 31:       # keep wy * shift exact
        u, v = u.astype(object), v.astype(object)
    wy = _wrap_count(u // nx, v // nx, ny)
    return np.column_stack([_wrap_count(u % nx, v % nx + wy * shift, nx), wy])


def _wrap_count(a, b, n):
    """Wraps crossed going from coordinate a to b, minimal-step assumption."""
    if n < 3:
        return 0 * a
    d = b - a
    dmin = (d + n // 2) % n - n // 2   # minimal-magnitude representative
    return (dmin - d) // n


def vertex_flow(g: ScarGraph) -> np.ndarray:
    """Net sigma flow out of each vertex: +sigma at u, -sigma at v of every edge."""
    n = g.num_vertices
    return np.bincount(g.u, g.sigma, n) - np.bincount(g.v, g.sigma, n)


def check_vertex_rule(g: ScarGraph) -> list:
    """Vertices where the signed sigma flow does not balance."""
    return np.flatnonzero(vertex_flow(g)).tolist()


def _half_edges(a, b) -> np.ndarray:
    """Interleaved per-half-edge values: a[i] at 2i (u_i -> v_i), b[i] at 2i+1 (v_i -> u_i)."""
    return np.stack([a, b], axis=1).reshape(-1, *np.shape(a)[1:])


def _forest(g: ScarGraph) -> tuple:
    """BFS spanning forest over flat CSR half-edges: (parent, chords).

    parent[x] is the half-edge x was reached by (-1 at a root); chords are the
    non-tree edges, ascending.  Half-edge 2i runs u_i -> v_i and 2i+1 runs
    v_i -> u_i.  One stable argsort by start vertex keeps each vertex's
    half-edges in edge order, the order its adjacency list had, so the walk
    reaches every vertex by the same edge as the per-edge BFS.  Vertex 0 roots
    the first tree, and the lowest vertex not yet reached roots each next one.
    """
    n = g.num_vertices
    start = _half_edges(g.u, g.v)
    order = np.argsort(start, kind="stable")
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(start, minlength=n), out=ptr[1:])
    ptr, far, half = ptr.tolist(), _half_edges(g.v, g.u)[order].tolist(), order.tolist()
    parent = [-1] * n
    seen = bytearray(n)
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = 1
        visit = [root]
        for x in visit:         # visit grows while it is walked: a BFS queue
            for k in range(ptr[x], ptr[x + 1]):
                y = far[k]
                if not seen[y]:
                    seen[y] = 1
                    parent[y] = half[k]
                    visit.append(y)
    parent = np.array(parent, dtype=np.int64)
    in_tree = np.zeros(g.num_edges, dtype=bool)
    in_tree[parent[parent >= 0] >> 1] = True
    chords = np.flatnonzero(~in_tree)
    parent.flags.writeable = chords.flags.writeable = False
    return parent, chords


def _potentials(g: ScarGraph, step) -> tuple:
    """Forest potentials of an (m, k) per-edge integer step: (chords, P, rows).

    step[i] is what edge i adds going u_i -> v_i (its negative going back).
    P[x] sums it along the forest path root -> x, so every root sits at 0, and
    rows[j] = step[c] + P[u_c] - P[v_c] sums it around the fundamental cycle
    closed by chord c = chords[j].  P is summed by pointer jumping, exactly (in
    Python ints when int64 could overflow).
    """
    parent, chords = g.forest
    n = g.num_vertices
    step = _half_edges(step, -step)
    if step.dtype != object and int(np.abs(step).max(initial=0)) * (2 * n + 2) >= 2 ** 63:
        step = step.astype(object)
    tree = parent >= 0
    pot = np.zeros((n, step.shape[1]), dtype=step.dtype)
    pot[tree] = step[parent[tree]]
    anc = np.arange(n)
    anc[tree] = _half_edges(g.u, g.v)[parent[tree]]
    while (parent[anc] >= 0).any():     # pot[x] sums the path anc[x] -> x; double it to a root
        pot += pot[anc]
        anc = anc[anc]
    return chords, pot, step[2 * chords] + pot[g.u[chords]] - pot[g.v[chords]]


def _residues(w, den) -> np.ndarray:
    """w mod den, exact: in Python ints when den leaves the int64 range."""
    return w.astype(object) % den if den >= 2 ** 62 else w % den


@dataclass
class RuleReport:
    vertex_violations: list
    circuit_constraints: list      # (chord edge index, winding W) per fundamental cycle
    circuit_violations: list       # subset failing W * p/denom integer test
    admissible_q: str
    classification: str

    @property
    def satisfied(self) -> bool:
        return not self.vertex_violations and not self.circuit_violations


def _admissible_description(windings) -> str:
    g0 = math.gcd(*windings)
    if not g0:
        return "any commensurate q = 4pK(kappa)/denominator"
    return f"q = 4pK(kappa)/d for integer p and any divisor d of {g0}"


def winding_gcd(g: ScarGraph) -> int:
    """gcd of the fundamental-cycle windings of sigma * r, 0 when none winds:
    q = 4pK/d, p/d in lowest terms, passes the circuit rule exactly when d divides it."""
    return math.gcd(*_potentials(g, (g.sigma * g.r)[:, None])[2][:, 0].tolist())


def check_circuit_rule(g: ScarGraph, q: CommensurateQ) -> RuleReport:
    """Evaluate both rules for a given commensurate q; exact on the rational tag.

    q/(4K) = p/d in lowest terms, so W * p/d is an integer exactly when d divides W.
    """
    violations = check_vertex_rule(g)
    c, _, rows = _potentials(g, np.column_stack([g.sigma * g.r, g.crossing]))
    w, cross = rows[:, 0], rows[:, 1:]
    off = (_residues(w, q.fraction.denominator) != 0).tolist()
    constraints = list(zip(c.tolist(), w.tolist()))
    if violations:
        classification = CLASS_NONE
    elif ((w != 0) & ~(cross != 0).any(axis=1)).any():     # a contractible cycle winds
        classification = CLASS_DEPENDENT
    else:
        classification = CLASS_INDEPENDENT
    return RuleReport(vertex_violations=violations,
                      circuit_constraints=constraints,
                      circuit_violations=list(itertools.compress(constraints, off)),
                      admissible_q=_admissible_description(w.tolist()),
                      classification=classification)


def assign_site_phases(g: ScarGraph, q: CommensurateQ) -> list:
    """Per-vertex phase q_n as an exact Fraction of 4K(kappa), each forest root at zero.

    q_m = q_n - sigma_nm * r * q along every edge, so on the BFS forest the
    phase is -P[n] * q modulo 1, P the potential of sigma * r.  Every chord is
    cross-checked, so an inconsistent sigma pattern (a circuit-rule violation)
    is caught rather than silently averaged.  One Fraction is built per
    distinct phase.
    """
    num, den = q.fraction.numerator, q.fraction.denominator
    chords, pot, w = _potentials(g, (g.sigma * g.r)[:, None])
    off = np.flatnonzero(_residues(w[:, 0], den))
    if off.size:
        i = off[0]
        u, v, wi = g.u[chords[i]], g.v[chords[i]], w[i, 0]
        raise InconsistentPhases(
            f"edge ({u},{v}) closes a cycle of winding {wi}, and {wi} * {q.fraction} "
            f"is not an integer: the phases at vertex {v} disagree")
    distinct, index = np.unique(_residues(-pot[:, 0], den), return_inverse=True)
    table = [Fraction(k * num % den, den) for k in distinct.tolist()]
    return [table[i] for i in index.tolist()]


def as_uniform_csse(g: ScarGraph) -> ScarGraph:
    """Copy of the graph with every bond treated as a CSSE bond.

    Used to classify the underlying uniform lattice of a mixed-bond design:
    the classification question (which sigma assignments satisfy both rules)
    concerns the bond topology, not the couplings.
    """
    return ScarGraph(
        g.num_vertices, dict(g.columns, sigma=np.where(g.sigma != 0, g.sigma, 1), kind=CSSE),
        g.boundary)


def classify(g: ScarGraph) -> str:
    """None / LatticeDependent / LatticeIndependent over all sigma assignments.

    The vertex rule is satisfiable iff every CSSE degree is even (an Eulerian
    orientation of each component realizes it).  Lattice independence
    additionally needs zero winding on every contractible cycle.  The forest
    potentials of the step r_e * onehot(slot e) give each fundamental cycle's
    winding as a row of coefficients on the CSSE sigmas; the rows whose
    crossing is zero (the contractible cycles) go under the CSSE
    vertex-incidence rows into one integer matrix A, and an exhaustive search
    for sigma in {+1, -1}^m with A sigma = 0 decides.  It is capped at
    SIGMA_SEARCH_CAP CSSE edges (Unknown above).
    """
    csse = g.kind == CSSE
    n = g.num_vertices
    if ((np.bincount(g.u[csse], minlength=n) + np.bincount(g.v[csse], minlength=n)) % 2).any():
        return CLASS_NONE
    slots = np.flatnonzero(csse)
    m = slots.size
    if not m:
        return CLASS_INDEPENDENT
    if m > SIGMA_SEARCH_CAP:
        return CLASS_UNKNOWN
    step = np.zeros((g.num_edges, m), dtype=g.r.dtype)
    step[slots, np.arange(m)] = g.r[slots]
    _, _, rows = _potentials(g, np.column_stack([step, g.crossing]))
    cycles = rows[~(rows[:, m:] != 0).any(axis=1), :m]
    ends, at = np.unique(np.concatenate([g.u[slots], g.v[slots]]), return_inverse=True)
    incidence = np.zeros((ends.size, m), dtype=np.int64)
    incidence[at[:m], np.arange(m)] = 1
    incidence[at[m:], np.arange(m)] = -1
    found = _sign_solution(np.vstack([incidence, cycles]))
    return CLASS_INDEPENDENT if found else CLASS_DEPENDENT


def _sign_solution(A) -> bool:
    """Whether some sigma in {+1, -1}^m has A sigma = 0, A an integer matrix.

    A depth-first search assigns sigma column by column and prunes as soon as
    a row's partial sum exceeds the sum of its |coefficients| not yet assigned.
    """
    rest = np.abs(A)[:, ::-1].cumsum(axis=1)[:, ::-1] - np.abs(A)   # sum over columns > k
    A, rest = A.tolist(), rest.tolist()
    cols = [[(i, row[k], rest[i][k]) for i, row in enumerate(A) if row[k]]
            for k in range(len(A[0]))]
    total = [0] * len(A)

    def search(k: int) -> bool:
        if k == len(cols):
            return True
        for s in (1, -1):
            for i, c, _ in cols[k]:
                total[i] += s * c
            if all(abs(total[i]) <= left for i, _, left in cols[k]) and search(k + 1):
                return True
            for i, c, _ in cols[k]:
                total[i] -= s * c
        return False

    return search(0)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _torus(nx, ny, shift=None):
    b = {"type": "toroidal", "nx": nx, "ny": ny}
    if shift is not None:
        b = {"type": "toroidal_shifted", "nx": nx, "ny": ny, "shift": shift}
    return b


def _bond(u, v, sigma, kind=CSSE, r=1, J=1.0, cx=0, cy=0, keep=True):
    """One bond per site; u sets the site shape, every other field broadcasts to it."""
    return tuple(np.broadcast_to(f, np.shape(u)) for f in (u, v, sigma, kind, r, J, cx, cy, keep))


def _site_bonds(*bonds) -> dict:
    """Edge columns of bonds emitted site by site: sites in row-major order, and
    at each site its bonds in argument order (those with keep false left out)."""
    u, v, sigma, kind, r, J, cx, cy, keep = (np.stack(f, axis=-1).ravel() for f in zip(*bonds))
    keep = keep.astype(bool)
    return dict(u=u[keep], v=v[keep], sigma=sigma[keep], kind=kind[keep], r=r[keep],
                J=J[keep], crossing=np.column_stack([cx[keep], cy[keep]]))


def _graph(num_vertices, boundary, *parts) -> ScarGraph:
    """Graph whose edges are the column dicts of parts, one after the other."""
    columns = {k: np.concatenate([p[k] for p in parts]) for k in Edge._fields}
    return ScarGraph(num_vertices, columns, boundary)


def chain(N: int, J: float = 1.0) -> ScarGraph:
    """Periodic chain, sigma = +1 along the ring."""
    if N < 3:
        raise UnsupportedDims("chain needs N >= 3 to stay a simple graph")
    n = np.arange(N)
    return _graph(N, _torus(N, 1), _site_bonds(_bond(n, (n + 1) % N, +1, J=J, cx=n == N - 1)))


def _square_bonds(Nx, Ny, shift, J) -> dict:
    y, x = np.indices((Ny, Nx))
    site, top = x + Nx * y, y == Ny - 1
    return _site_bonds(_bond(site, (x + 1) % Nx + Nx * y, -1, J=J, cx=x == Nx - 1),
                       _bond(site, np.where(top, (x - shift) % Nx, site + Nx), -1, J=J,
                             cx=np.where(top, (x - shift) // Nx, 0), cy=top))


def square(Nx: int, Ny: int, J: float = 1.0) -> ScarGraph:
    """Toroidal square lattice with diagonal phase flow (all plaquettes W = 0)."""
    if Nx < 3 or Ny < 3:
        raise UnsupportedDims("square torus needs Nx, Ny >= 3 to avoid duplicate edges")
    return _graph(Nx * Ny, _torus(Nx, Ny), _square_bonds(Nx, Ny, 0, J))


def square_shifted(Nx: int, Ny: int, shift: int | None = None, J: float = 1.0) -> ScarGraph:
    """Square lattice whose y-wrap is glued with an x shift (default |Nx-Ny|)."""
    if Nx < 3 or Ny < 3:
        raise UnsupportedDims("shifted square torus needs Nx, Ny >= 3")
    if shift is None:
        shift = abs(Nx - Ny)
    return _graph(Nx * Ny, _torus(Nx, Ny, shift=shift), _square_bonds(Nx, Ny, shift, J))


def lieb(Nx: int, Ny: int, J: float = 1.0) -> ScarGraph:
    """Toroidal Lieb lattice; every bond is a half step of the diagonal flow.

    Cell (i, j) holds the corner 3c, the x-midpoint 3c+1 and the y-midpoint
    3c+2, c = i + Nx*j.
    """
    if Nx < 2 or Ny < 2:
        raise UnsupportedDims("Lieb torus needs Nx, Ny >= 2")
    j, i = np.indices((Ny, Nx))
    c = 3 * (i + Nx * j)
    right, up = 3 * ((i + 1) % Nx + Nx * j), 3 * (i + Nx * ((j + 1) % Ny))
    return _graph(3 * Nx * Ny, _torus(Nx, Ny), _site_bonds(
        _bond(c, c + 1, -1, J=J), _bond(c + 1, right, -1, J=J, cx=i == Nx - 1),
        _bond(c, c + 2, -1, J=J), _bond(c + 2, up, -1, J=J, cy=j == Ny - 1)))


def triangular_su2(Nx: int, Ny: int, J: float = 1.0, Jprime: float = 1.0) -> ScarGraph:
    """Triangular lattice whose anti-diagonal bonds are isotropic SU(2).

    Removing the SU(2) bonds leaves the square lattice; they connect sites of
    equal phase under the diagonal flow, so both rules keep holding.
    """
    g = square(Nx, Ny, J=J)
    y, x = np.indices((Ny, Nx))
    return _graph(Nx * Ny, _torus(Nx, Ny), g.columns, _site_bonds(
        _bond((x + 1) % Nx + Nx * y, x + Nx * ((y + 1) % Ny), 0, SU2, J=Jprime,
              cx=np.where(x == Nx - 1, -1, 0), cy=y == Ny - 1)))


def kagome_su2(Nx: int, Ny: int, J: float = 1.0, Jprime: float = 1.0) -> ScarGraph:
    """Kagome lattice with the triangle-closing bonds made isotropic SU(2).

    Removing the SU(2) bonds leaves the Lieb lattice; each SU(2) bond joins
    the two midpoint sites of equal phase in a triangle.
    """
    g = lieb(Nx, Ny, J=J)
    j, i = np.indices((Ny, Nx))
    c = 3 * (i + Nx * j)
    down_right = 3 * ((i + 1) % Nx + Nx * ((j - 1) % Ny))
    return _graph(3 * Nx * Ny, _torus(Nx, Ny), g.columns, _site_bonds(
        _bond(c + 1, c + 2, 0, SU2, J=Jprime),
        _bond(c + 1, down_right + 2, 0, SU2, J=Jprime, cx=i == Nx - 1,
              cy=np.where(j == 0, -1, 0))))


def honeycomb_su2(Nx: int, Ny: int, J: float = 1.0, Jprime: float = 1.0) -> ScarGraph:
    """Brick-wall honeycomb: horizontal helical chains tied by vertical SU(2) bonds.

    Every site keeps coordination three (two chain bonds plus one SU(2) bond);
    removing the SU(2) bonds leaves decoupled periodic chains.
    """
    if Nx < 4 or Nx % 2 or Ny < 2 or Ny % 2:
        raise UnsupportedDims("brick-wall honeycomb needs even Nx >= 4 and even Ny >= 2")
    y, x = np.indices((Ny, Nx))
    site = x + Nx * y
    return _graph(Nx * Ny, _torus(Nx, Ny), _site_bonds(
        _bond(site, (x + 1) % Nx + Nx * y, +1, J=J, cx=x == Nx - 1),
        _bond(site, x + Nx * ((y + 1) % Ny), 0, SU2, J=Jprime, cy=y == Ny - 1,
              keep=(x + y) % 2 == 0)))


def trimer_ladder(L: int, J: float = 1.0, Jprime: float = 1.0) -> ScarGraph:
    """Ring of SU(2) trimers joined by two helical legs per rung pair.

    Sites 3t, 3t+1, 3t+2 form trimer t (isotropic triangle, one common phase);
    the outer sites of consecutive trimers are linked by sigma = +1 bonds.
    """
    if L < 3:
        raise UnsupportedDims("trimer ladder needs at least 3 trimers")
    a = 3 * np.arange(L)
    a2, wrap = np.roll(a, -1), a == 3 * (L - 1)
    return _graph(3 * L, _torus(L, 1), _site_bonds(
        _bond(a, a + 1, 0, SU2, J=J), _bond(a + 1, a + 2, 0, SU2, J=J),
        _bond(a, a + 2, 0, SU2, J=J), _bond(a, a2, +1, J=Jprime, cx=wrap),
        _bond(a + 2, a2 + 2, +1, J=Jprime, cx=wrap)))


def trimer_brickwall(Nx: int, Ny: int, J: float = 1.0, Jprime: float = 1.0) -> ScarGraph:
    """Helical chains stacked in rows, tied by vertical SU(2) trimers.

    Rows 3k, 3k+1, 3k+2 are bound into trimers column by column; the trimer
    bonds join equal-phase sites so they carry no arrowheads.
    """
    if Nx < 3 or Ny < 3 or Ny % 3:
        raise UnsupportedDims("trimer brick wall needs Nx >= 3 and Ny a multiple of 3")
    y, x = np.indices((Ny, Nx))
    site = x + Nx * y
    return _graph(Nx * Ny, _torus(Nx, Ny), _site_bonds(
        _bond(site, (x + 1) % Nx + Nx * y, +1, J=Jprime, cx=x == Nx - 1),
        _bond(site, site + Nx, 0, SU2, J=J, keep=y % 3 != 2)))


def nnn_chain(N: int, J: float = 1.0, Jnnn: float = 1.0) -> ScarGraph:
    """Periodic chain with next-nearest bonds carrying a doubled multiplier."""
    if N < 5:
        raise UnsupportedDims("next-nearest chain needs N >= 5 to stay simple")
    n = np.arange(N)
    return _graph(N, _torus(N, 1), _site_bonds(
        _bond(n, (n + 1) % N, +1, J=J, cx=n == N - 1),
        _bond(n, (n + 2) % N, +1, r=2, J=Jnnn, cx=n >= N - 2)))


GENERATORS = {
    "chain": chain,
    "square": square,
    "square_shifted": square_shifted,
    "lieb": lieb,
    "triangular_su2": triangular_su2,
    "kagome_su2": kagome_su2,
    "honeycomb_su2": honeycomb_su2,
    "trimer_ladder": trimer_ladder,
    "trimer_brickwall": trimer_brickwall,
    "nnn_chain": nnn_chain,
}


def generate(kind: str, *dims, **options) -> ScarGraph:
    if kind not in GENERATORS:
        raise UnsupportedDims(f"unknown lattice kind {kind!r}; "
                              f"choose from {sorted(GENERATORS)}")
    return GENERATORS[kind](*dims, **options)
