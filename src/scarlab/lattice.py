"""Graph model for scar-supporting lattices.

Edges carry a flow label sigma in {-1, 0, +1} (0 marks isotropic SU(2) bonds),
a positive integer multiplier r, and a bond strength.  Two rules decide
whether a helical product state can live on the graph:

  * vertex rule: the signed flow into every vertex sums to zero;
  * circuit rule: around any closed path the accumulated phase sum(sigma*r)*q
    must vanish modulo 4K(kappa).

The circuit rule is checked on a fundamental-cycle basis only (cycle-space
linearity covers every other circuit) and is evaluated in exact integer
arithmetic on the rational tag q/(4K) = p/denominator.  It runs on integer
tree potentials from one BFS, so each chord's cycle costs O(1) and the rule
and the site phases cost O(edges); no cycle is walked.

On toroidal graphs the cycles that wrap the boundary are allowed a nonzero
winding (they only restrict the admissible q); the lattice-independence
classification constrains contractible cycles alone.  Each edge therefore
carries a boundary-crossing vector so cycle contractibility is computable.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import eq, itemgetter
from typing import NamedTuple

from .elliptic import CommensurateQ
from .errors import DisconnectedGraph, InconsistentPhases, InvalidGraph, UnsupportedDims

CSSE = "csse"
SU2 = "su2"

CLASS_NONE = "None"
CLASS_DEPENDENT = "LatticeDependent"
CLASS_INDEPENDENT = "LatticeIndependent"
CLASS_UNKNOWN = "Unknown"

SIGMA_SEARCH_CAP = 30   # exact sigma-assignment search above this many CSSE edges

_KIND_SIGMAS = {(SU2, 0), (CSSE, 1), (CSSE, -1)}


class Edge(NamedTuple):
    u: int
    v: int
    sigma: int
    kind: str = CSSE
    r: int = 1
    J: float = 1.0
    crossing: tuple = (0, 0)   # boundary-wrap counts (x, y)


@dataclass
class ScarGraph:
    num_vertices: int
    edges: list
    boundary: dict = field(default_factory=lambda: {"type": "none"})

    def __post_init__(self):
        """Reject invalid edges: whole-column checks, then a per-edge walk only on failure."""
        us, vs, sigmas, kinds, rs, _, _ = zip(*self.edges) if self.edges else ((),) * 7
        n, ends = self.num_vertices, us + vs
        keys = {u * n + v for u, v in zip(us, vs)}   # unique once in range; no tuple per edge
        if not (any(map(eq, us, vs)) or min(ends, default=0) < 0 or max(ends, default=-1) >= n
                or len(keys) < len(us) or not keys.isdisjoint([v * n + u for u, v in zip(us, vs)])
                or not set(zip(kinds, sigmas)) <= _KIND_SIGMAS or min(rs, default=1) < 1):
            return
        seen = set()      # the walk names the first invalid edge
        for e in self.edges:
            if e.u == e.v:
                raise InvalidGraph(f"self-loop at vertex {e.u}")
            if not (0 <= e.u < self.num_vertices and 0 <= e.v < self.num_vertices):
                raise InvalidGraph(f"edge ({e.u},{e.v}) outside vertex range")
            key = (min(e.u, e.v), max(e.u, e.v))
            if key in seen:
                raise InvalidGraph(f"duplicate edge {key}")
            seen.add(key)
            if e.kind == SU2:
                if e.sigma != 0:
                    raise InvalidGraph("SU(2) edges must carry sigma = 0")
            elif e.kind == CSSE:
                if e.sigma not in (-1, 1):
                    raise InvalidGraph("CSSE edges must carry sigma = +1 or -1")
            else:
                raise InvalidGraph(f"unknown edge kind {e.kind!r}")
            if e.r < 1:
                raise InvalidGraph("multiplier r must be >= 1")

    def adjacency(self):
        """Per-vertex list of (edge_index, direction) with direction +1 for u->v."""
        adj = [[] for _ in range(self.num_vertices)]
        for i, e in enumerate(self.edges):
            adj[e.u].append((i, +1))
            adj[e.v].append((i, -1))
        return adj

    def to_json(self) -> str:
        """One compact JSON document; json.dumps without indent runs the C encoder."""
        return json.dumps({"vertices": self.num_vertices,
                           "edges": [e._asdict() for e in self.edges],
                           "boundary": dict(self.boundary)})

    @classmethod
    def from_json(cls, text: str) -> "ScarGraph":
        doc = json.loads(text)
        if not (isinstance(doc, dict) and isinstance(doc.get("edges"), list)
                and isinstance(doc.get("boundary", {}), dict)):
            raise InvalidGraph("graph file: expected an object with an 'edges' list "
                               "and an optional 'boundary' object")
        boundary = dict(doc.get("boundary", {"type": "none"}))
        recs = doc["edges"]
        if not all(type(rec) is dict for rec in recs):
            raise InvalidGraph("graph file: every edge must be an object")
        if not all(type(rec["crossing"]) is list and len(rec["crossing"]) == 2
                   for rec in recs if "crossing" in rec):
            raise InvalidGraph("graph file: every 'crossing' must be a list of two integers")
        (n,) = _strict_ints([doc["vertices"]], "vertices")
        us, vs, sigmas = (_strict_ints(map(itemgetter(k), recs), k) for k in ("u", "v", "sigma"))
        rs = _strict_ints([rec.get("r", 1) for rec in recs], "r")
        crossings = [tuple(rec["crossing"]) if "crossing" in rec
                     else _infer_crossing(u, v, n, boundary) for rec, u, v in zip(recs, us, vs)]
        if not set(map(type, itertools.chain.from_iterable(crossings))) <= {int}:
            crossings = [tuple(_strict_ints(c, "crossing")) for c in crossings]
        edges = list(map(Edge, us, vs, sigmas, map(str, map(itemgetter("kind"), recs)), rs,
                         map(float, [rec.get("J", 1.0) for rec in recs]), crossings))
        return cls(num_vertices=n, edges=edges, boundary=boundary)


def _strict_ints(values, name) -> list:
    """values as a list of ints; a non-integral value (1.7, "1", null) is invalid input."""
    values = list(values)
    try:
        ints = list(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values:
        raise InvalidGraph(f"graph file: every {name!r} must be an integer")
    return ints


def _infer_crossing(u, v, num_vertices, boundary) -> tuple:
    """Reconstruct boundary crossings for plain-grid vertex numbering.

    Only applies when vertices are numbered v = x + nx*y on a torus; other
    encodings get (0, 0), which is the conservative choice (every cycle is
    treated as contractible, so classification can only get stricter).  A
    y-wrap on a shifted torus lands `shift` columns left; that is undone first.
    """
    if boundary.get("type") not in ("toroidal", "toroidal_shifted"):
        return (0, 0)
    nx, ny = int(boundary.get("nx", 0)), int(boundary.get("ny", 0))
    if nx * ny != num_vertices or nx < 2 or ny < 1:
        return (0, 0)
    wy = _wrap_count(u // nx, v // nx, ny)
    return (_wrap_count(u % nx, v % nx + wy * int(boundary.get("shift", 0)), nx), wy)


def _wrap_count(a, b, n) -> int:
    """Wraps crossed going from coordinate a to b, minimal-step assumption."""
    if n < 3:
        return 0
    d = b - a
    dmin = (d + n // 2) % n - n // 2   # minimal-magnitude representative
    return (dmin - d) // n


def check_vertex_rule(g: ScarGraph) -> list:
    """Vertices where the signed sigma flow does not balance."""
    flow = [0] * g.num_vertices
    for e in g.edges:
        flow[e.u] += e.sigma
        flow[e.v] -= e.sigma
    return [n for n, s in enumerate(flow) if s != 0]


def _spanning_tree(g: ScarGraph, root: int = 0):
    """BFS tree: (parent edge (edge_idx, dir) per vertex, chords, potentials).

    The potentials winding[n] = sum(d*sigma*r) and crossing[n] (summed crossing
    vectors) run along the tree path root -> n, so the cycle closed by chord
    (u, v) has winding sigma*r + winding[u] - winding[v], likewise crossing.
    """
    adj = g.adjacency()
    parent, winding, crossing = ([None] * g.num_vertices for _ in range(3))
    winding[root], crossing[root] = 0, (0, 0)
    in_tree = [False] * len(g.edges)
    order = [root]
    for n in order:             # order grows while it is walked: a BFS queue
        wn, (cx, cy) = winding[n], crossing[n]
        for ei, dirn in adj[n]:
            e = g.edges[ei]
            m = e.v if dirn > 0 else e.u
            if winding[m] is None:
                winding[m] = wn + dirn * e.sigma * e.r
                crossing[m] = (cx + dirn * e.crossing[0], cy + dirn * e.crossing[1])
                parent[m] = (ei, dirn)
                in_tree[ei] = True
                order.append(m)
    if len(order) < g.num_vertices:
        raise DisconnectedGraph(
            f"{g.num_vertices - len(order)} vertices unreachable from vertex {root}")
    chords = [i for i, t in enumerate(in_tree) if not t]
    return parent, chords, winding, crossing


def _root_path(g: ScarGraph, parent, n):
    """Edge walk (edge_idx, dir) from the tree root down to vertex n."""
    path = []
    while parent[n] is not None:
        ei, dirn = parent[n]
        path.append((ei, dirn))
        e = g.edges[ei]
        n = e.u if dirn > 0 else e.v
    path.reverse()
    return path


def fundamental_cycles(g: ScarGraph) -> list:
    """One cycle per non-tree edge, each a list of (edge_index, direction)."""
    parent, chords, _, _ = _spanning_tree(g)
    cycles = []
    for ci in chords:
        e = g.edges[ci]
        to_u = _root_path(g, parent, e.u)
        to_v = _root_path(g, parent, e.v)
        k = 0
        while k < len(to_u) and k < len(to_v) and to_u[k] == to_v[k]:
            k += 1
        # u -> v along the chord, v -> ancestor against the tree, ancestor -> u
        cycle = [(ci, +1)]
        cycle += [(ei, -d) for ei, d in reversed(to_v[k:])]
        cycle += to_u[k:]
        cycles.append(cycle)
    return cycles


def cycle_crossing(g: ScarGraph, cycle) -> tuple:
    wx = sum(d * g.edges[ei].crossing[0] for ei, d in cycle)
    wy = sum(d * g.edges[ei].crossing[1] for ei, d in cycle)
    return (wx, wy)


def _chord_winding(e: Edge, winding) -> int:
    """Winding of the fundamental cycle closed by chord e."""
    return e.sigma * e.r + winding[e.u] - winding[e.v]


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
    nonzero = [abs(w) for w in windings if w != 0]
    if not nonzero:
        return "any commensurate q = 4pK(kappa)/denominator"
    g0 = 0
    for w in nonzero:
        g0 = math.gcd(g0, w)
    return f"q = 4pK(kappa)/d for integer p and any divisor d of {g0}"


def check_circuit_rule(g: ScarGraph, q: CommensurateQ) -> RuleReport:
    """Evaluate both rules for a given commensurate q; exact on the rational tag."""
    violations = check_vertex_rule(g)
    _, chords, winding, crossing = _spanning_tree(g)
    num, den = q.fraction.numerator, q.fraction.denominator
    constraints, failed = [], []
    contractible_ok = True
    for ci in chords:
        e = g.edges[ci]
        w = _chord_winding(e, winding)
        constraints.append((ci, w))
        if w * num % den:
            failed.append((ci, w))
        if w and contractible_ok:
            cu, cv = crossing[e.u], crossing[e.v]
            if (e.crossing[0] + cu[0] - cv[0], e.crossing[1] + cu[1] - cv[1]) == (0, 0):
                contractible_ok = False
    if violations:
        classification = CLASS_NONE
    elif contractible_ok:
        classification = CLASS_INDEPENDENT
    else:
        classification = CLASS_DEPENDENT
    return RuleReport(vertex_violations=violations,
                      circuit_constraints=constraints,
                      circuit_violations=failed,
                      admissible_q=_admissible_description([w for _, w in constraints]),
                      classification=classification)


def assign_site_phases(g: ScarGraph, q: CommensurateQ, root: int = 0) -> list:
    """Per-vertex phase q_n as an exact Fraction of 4K(kappa), root at zero.

    q_m = q_n - sigma_nm * r * q along every edge, so on the BFS tree the
    phase is -winding[n] * q modulo 1.  Every chord is cross-checked, so an
    inconsistent sigma pattern (a circuit-rule violation) is caught rather
    than silently averaged.
    """
    try:
        _, chords, winding, _ = _spanning_tree(g, root)
    except DisconnectedGraph:
        raise DisconnectedGraph("phase propagation did not reach every vertex") from None
    num, den = q.fraction.numerator, q.fraction.denominator
    for ci in chords:
        e = g.edges[ci]
        w = _chord_winding(e, winding)
        if w * num % den:
            raise InconsistentPhases(
                f"edge ({e.u},{e.v}) closes a cycle of winding {w}, and {w} * {q.fraction} "
                f"is not an integer: the phases at vertex {e.v} disagree")
    return [Fraction(-w * num % den, den) for w in winding]


def as_uniform_csse(g: ScarGraph) -> ScarGraph:
    """Copy of the graph with every bond treated as a CSSE bond.

    Used to classify the underlying uniform lattice of a mixed-bond design:
    the classification question (which sigma assignments satisfy both rules)
    concerns the bond topology, not the couplings.
    """
    edges = [Edge(u=e.u, v=e.v, sigma=e.sigma if e.sigma != 0 else 1,
                  kind=CSSE, r=e.r, J=e.J, crossing=e.crossing)
             for e in g.edges]
    return ScarGraph(num_vertices=g.num_vertices, edges=edges, boundary=g.boundary)


def _csse_degrees(g: ScarGraph):
    deg = [0] * g.num_vertices
    for e in g.edges:
        if e.kind == CSSE:
            deg[e.u] += 1
            deg[e.v] += 1
    return deg


def classify(g: ScarGraph) -> str:
    """None / LatticeDependent / LatticeIndependent over all sigma assignments.

    The vertex rule is satisfiable iff every CSSE degree is even (an Eulerian
    orientation of each component realizes it).  Lattice independence
    additionally needs zero winding on every contractible fundamental cycle;
    that is decided by exhaustive assignment search with vertex-sum pruning,
    capped at SIGMA_SEARCH_CAP CSSE edges.
    """
    if any(d % 2 for d in _csse_degrees(g)):
        return CLASS_NONE
    csse_idx = [i for i, e in enumerate(g.edges) if e.kind == CSSE]
    if not csse_idx:
        return CLASS_INDEPENDENT
    if len(csse_idx) > SIGMA_SEARCH_CAP:
        return CLASS_UNKNOWN
    cycles = [c for c in fundamental_cycles(g) if cycle_crossing(g, c) == (0, 0)]
    if not cycles:
        return CLASS_INDEPENDENT

    pos = {ei: k for k, ei in enumerate(csse_idx)}
    # per-vertex incident (slot, direction) over CSSE edges only
    incident = [[] for _ in range(g.num_vertices)]
    for ei in csse_idx:
        e = g.edges[ei]
        incident[e.u].append((pos[ei], +1))
        incident[e.v].append((pos[ei], -1))
    # cycle -> list of (slot, coefficient d*r); SU(2) edges contribute nothing
    cyc_terms = []
    for cyc in cycles:
        terms = [(pos[ei], d * g.edges[ei].r) for ei, d in cyc if g.edges[ei].kind == CSSE]
        last = max((t[0] for t in terms), default=-1)
        cyc_terms.append((terms, last))

    sigma = [0] * len(csse_idx)

    def feasible_vertex(n) -> bool:
        total, free = 0, 0
        for slot, d in incident[n]:
            if sigma[slot] == 0:
                free += 1
            else:
                total += d * sigma[slot]
        return abs(total) <= free

    def dfs(k: int) -> bool:
        if k == len(csse_idx):
            return True
        e = g.edges[csse_idx[k]]
        for s in (1, -1):
            sigma[k] = s
            ok = feasible_vertex(e.u) and feasible_vertex(e.v)
            if ok:
                for terms, last in cyc_terms:
                    if last == k and sum(c * sigma[slot] for slot, c in terms) != 0:
                        ok = False
                        break
            if ok and dfs(k + 1):
                return True
        sigma[k] = 0
        return False

    return CLASS_INDEPENDENT if dfs(0) else CLASS_DEPENDENT


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _torus(nx, ny, shift=None):
    b = {"type": "toroidal", "nx": nx, "ny": ny}
    if shift is not None:
        b = {"type": "toroidal_shifted", "nx": nx, "ny": ny, "shift": shift}
    return b


def chain(N: int, J: float = 1.0) -> ScarGraph:
    """Periodic chain, sigma = +1 along the ring."""
    if N < 3:
        raise UnsupportedDims("chain needs N >= 3 to stay a simple graph")
    edges = [Edge(n, (n + 1) % N, +1, CSSE, 1, J,
                  crossing=(1 if n == N - 1 else 0, 0)) for n in range(N)]
    return ScarGraph(N, edges, _torus(N, 1))


def square(Nx: int, Ny: int, J: float = 1.0) -> ScarGraph:
    """Toroidal square lattice with diagonal phase flow (all plaquettes W = 0)."""
    if Nx < 3 or Ny < 3:
        raise UnsupportedDims("square torus needs Nx, Ny >= 3 to avoid duplicate edges")
    g = square_shifted(Nx, Ny, shift=0, J=J)    # the same edges, a plain torus
    g.boundary = _torus(Nx, Ny)
    return g


def square_shifted(Nx: int, Ny: int, shift: int | None = None, J: float = 1.0) -> ScarGraph:
    """Square lattice whose y-wrap is glued with an x shift (default |Nx-Ny|)."""
    if Nx < 3 or Ny < 3:
        raise UnsupportedDims("shifted square torus needs Nx, Ny >= 3")
    if shift is None:
        shift = abs(Nx - Ny)
    edges = []
    for y in range(Ny):
        for x in range(Nx):
            u = x + Nx * y
            edges.append(Edge(u, (x + 1) % Nx + Nx * y, -1, CSSE, 1, J,
                              crossing=(1 if x == Nx - 1 else 0, 0)))
            if y < Ny - 1:
                edges.append(Edge(u, x + Nx * (y + 1), -1, CSSE, 1, J))
            else:
                edges.append(Edge(u, (x - shift) % Nx, -1, CSSE, 1, J,
                                  crossing=((x - shift) // Nx, 1)))
    return ScarGraph(Nx * Ny, edges, _torus(Nx, Ny, shift=shift))


def _lieb_ids(i, j, Nx, Ny):
    cell = (i % Nx) + Nx * (j % Ny)
    return 3 * cell, 3 * cell + 1, 3 * cell + 2   # corner, x-midpoint, y-midpoint


def lieb(Nx: int, Ny: int, J: float = 1.0) -> ScarGraph:
    """Toroidal Lieb lattice; every bond is a half step of the diagonal flow."""
    if Nx < 2 or Ny < 2:
        raise UnsupportedDims("Lieb torus needs Nx, Ny >= 2")
    edges = []
    for j in range(Ny):
        for i in range(Nx):
            c, mx, my = _lieb_ids(i, j, Nx, Ny)
            cx, _, _ = _lieb_ids(i + 1, j, Nx, Ny)
            cy, _, _ = _lieb_ids(i, j + 1, Nx, Ny)
            edges.append(Edge(c, mx, -1, CSSE, 1, J))
            edges.append(Edge(mx, cx, -1, CSSE, 1, J,
                              crossing=(1 if i == Nx - 1 else 0, 0)))
            edges.append(Edge(c, my, -1, CSSE, 1, J))
            edges.append(Edge(my, cy, -1, CSSE, 1, J,
                              crossing=(0, 1 if j == Ny - 1 else 0)))
    return ScarGraph(3 * Nx * Ny, edges, _torus(Nx, Ny))


def triangular_su2(Nx: int, Ny: int, J: float = 1.0, Jprime: float = 1.0) -> ScarGraph:
    """Triangular lattice whose anti-diagonal bonds are isotropic SU(2).

    Removing the SU(2) bonds leaves the square lattice; they connect sites of
    equal phase under the diagonal flow, so both rules keep holding.
    """
    g = square(Nx, Ny, J=J)
    edges = list(g.edges)
    for y in range(Ny):
        for x in range(Nx):
            u = (x + 1) % Nx + Nx * y
            v = x + Nx * ((y + 1) % Ny)
            edges.append(Edge(u, v, 0, SU2, 1, Jprime,
                              crossing=(-1 if x == Nx - 1 else 0,
                                        1 if y == Ny - 1 else 0)))
    return ScarGraph(Nx * Ny, edges, _torus(Nx, Ny))


def kagome_su2(Nx: int, Ny: int, J: float = 1.0, Jprime: float = 1.0) -> ScarGraph:
    """Kagome lattice with the triangle-closing bonds made isotropic SU(2).

    Removing the SU(2) bonds leaves the Lieb lattice; each SU(2) bond joins
    the two midpoint sites of equal phase in a triangle.
    """
    g = lieb(Nx, Ny, J=J)
    edges = list(g.edges)
    for j in range(Ny):
        for i in range(Nx):
            _, mx, my = _lieb_ids(i, j, Nx, Ny)
            _, _, my2 = _lieb_ids(i + 1, j - 1, Nx, Ny)
            edges.append(Edge(mx, my, 0, SU2, 1, Jprime))
            edges.append(Edge(mx, my2, 0, SU2, 1, Jprime,
                              crossing=(1 if i == Nx - 1 else 0,
                                        -1 if j == 0 else 0)))
    return ScarGraph(3 * Nx * Ny, edges, _torus(Nx, Ny))


def honeycomb_su2(Nx: int, Ny: int, J: float = 1.0, Jprime: float = 1.0) -> ScarGraph:
    """Brick-wall honeycomb: horizontal helical chains tied by vertical SU(2) bonds.

    Every site keeps coordination three (two chain bonds plus one SU(2) bond);
    removing the SU(2) bonds leaves decoupled periodic chains.
    """
    if Nx < 4 or Nx % 2 or Ny < 2 or Ny % 2:
        raise UnsupportedDims("brick-wall honeycomb needs even Nx >= 4 and even Ny >= 2")
    edges = []
    for y in range(Ny):
        for x in range(Nx):
            u = x + Nx * y
            edges.append(Edge(u, (x + 1) % Nx + Nx * y, +1, CSSE, 1, J,
                              crossing=(1 if x == Nx - 1 else 0, 0)))
            if (x + y) % 2 == 0:
                edges.append(Edge(u, x + Nx * ((y + 1) % Ny), 0, SU2, 1, Jprime,
                                  crossing=(0, 1 if y == Ny - 1 else 0)))
    return ScarGraph(Nx * Ny, edges, _torus(Nx, Ny))


def modified_honeycomb(Nx: int, Ny: int, J: float = 1.0) -> ScarGraph:
    """Brick-wall honeycomb completed with the missing vertical bonds.

    Adding one nearest-neighbor bond per hexagon raises every coordination
    number from three to four, the minimal change that makes the vertex rule
    satisfiable; the completed graph is square-lattice-like and hosts both
    plaquette-locked and free-q scar patterns.
    """
    if Nx < 4 or Nx % 2 or Ny < 3:
        raise UnsupportedDims("modified honeycomb needs even Nx >= 4 and Ny >= 3")
    return square(Nx, Ny, J)


def trimer_ladder(L: int, J: float = 1.0, Jprime: float = 1.0) -> ScarGraph:
    """Ring of SU(2) trimers joined by two helical legs per rung pair.

    Sites 3t, 3t+1, 3t+2 form trimer t (isotropic triangle, one common phase);
    the outer sites of consecutive trimers are linked by sigma = +1 bonds.
    """
    if L < 3:
        raise UnsupportedDims("trimer ladder needs at least 3 trimers")
    edges = []
    for t in range(L):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        a2, c2 = 3 * ((t + 1) % L), 3 * ((t + 1) % L) + 2
        wrap = 1 if t == L - 1 else 0
        edges.append(Edge(a, b, 0, SU2, 1, J))
        edges.append(Edge(b, c, 0, SU2, 1, J))
        edges.append(Edge(a, c, 0, SU2, 1, J))
        edges.append(Edge(a, a2, +1, CSSE, 1, Jprime, crossing=(wrap, 0)))
        edges.append(Edge(c, c2, +1, CSSE, 1, Jprime, crossing=(wrap, 0)))
    return ScarGraph(3 * L, edges, _torus(L, 1))


def trimer_brickwall(Nx: int, Ny: int, J: float = 1.0, Jprime: float = 1.0) -> ScarGraph:
    """Helical chains stacked in rows, tied by vertical SU(2) trimers.

    Rows 3k, 3k+1, 3k+2 are bound into trimers column by column; the trimer
    bonds join equal-phase sites so they carry no arrowheads.
    """
    if Nx < 3 or Ny < 3 or Ny % 3:
        raise UnsupportedDims("trimer brick wall needs Nx >= 3 and Ny a multiple of 3")
    edges = []
    for y in range(Ny):
        for x in range(Nx):
            u = x + Nx * y
            edges.append(Edge(u, (x + 1) % Nx + Nx * y, +1, CSSE, 1, Jprime,
                              crossing=(1 if x == Nx - 1 else 0, 0)))
            if y % 3 != 2:
                edges.append(Edge(u, x + Nx * (y + 1), 0, SU2, 1, J))
    return ScarGraph(Nx * Ny, edges, _torus(Nx, Ny))


def nnn_chain(N: int, J: float = 1.0, Jnnn: float = 1.0) -> ScarGraph:
    """Periodic chain with next-nearest bonds carrying a doubled multiplier."""
    if N < 5:
        raise UnsupportedDims("next-nearest chain needs N >= 5 to stay simple")
    edges = []
    for n in range(N):
        edges.append(Edge(n, (n + 1) % N, +1, CSSE, 1, J,
                          crossing=(1 if n == N - 1 else 0, 0)))
        edges.append(Edge(n, (n + 2) % N, +1, CSSE, 2, Jnnn,
                          crossing=(1 if n >= N - 2 else 0, 0)))
    return ScarGraph(N, edges, _torus(N, 1))


GENERATORS = {
    "chain": chain,
    "square": square,
    "square_shifted": square_shifted,
    "lieb": lieb,
    "triangular_su2": triangular_su2,
    "kagome_su2": kagome_su2,
    "honeycomb_su2": honeycomb_su2,
    "modified_honeycomb": modified_honeycomb,
    "trimer_ladder": trimer_ladder,
    "trimer_brickwall": trimer_brickwall,
    "nnn_chain": nnn_chain,
}


def generate(kind: str, *dims, **options) -> ScarGraph:
    if kind not in GENERATORS:
        raise UnsupportedDims(f"unknown lattice kind {kind!r}; "
                              f"choose from {sorted(GENERATORS)}")
    return GENERATORS[kind](*dims, **options)
