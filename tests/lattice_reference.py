"""Per-edge reference implementations of the lattice layer, kept as test oracles.

These are the Edge-record generators, the adjacency-list BFS, the per-edge
validation walk and the per-record graph-file reader that `scarlab.lattice`
replaced with edge columns, the cycle walks and walk-based classification
that it replaced with forest potentials, and the list-based column writer
and reader that it replaced with whole-column text and type checks.  The
column versions must emit the same edges in the same order, walk exactly
the same spanning forest, write the same bytes, load (or reject, with the
same message) every per-record and column document the same way, and
classify every graph alike.
"""

import itertools
import json
from operator import itemgetter

from scarlab.errors import InvalidGraph
from scarlab.lattice import (CLASS_DEPENDENT, CLASS_INDEPENDENT, CLASS_NONE, CLASS_UNKNOWN,
                             CSSE, SIGMA_SEARCH_CAP, SU2, Edge)


def _torus(nx, ny, shift=None):
    b = {"type": "toroidal", "nx": nx, "ny": ny}
    if shift is not None:
        b = {"type": "toroidal_shifted", "nx": nx, "ny": ny, "shift": shift}
    return b


def chain(N, J=1.0):
    edges = [Edge(n, (n + 1) % N, +1, CSSE, 1, J,
                  crossing=(1 if n == N - 1 else 0, 0)) for n in range(N)]
    return N, edges, _torus(N, 1)


def square(Nx, Ny, J=1.0):
    n, edges, _ = square_shifted(Nx, Ny, shift=0, J=J)
    return n, edges, _torus(Nx, Ny)


def square_shifted(Nx, Ny, shift=None, J=1.0):
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
    return Nx * Ny, edges, _torus(Nx, Ny, shift=shift)


def _lieb_ids(i, j, Nx, Ny):
    cell = (i % Nx) + Nx * (j % Ny)
    return 3 * cell, 3 * cell + 1, 3 * cell + 2


def lieb(Nx, Ny, J=1.0):
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
    return 3 * Nx * Ny, edges, _torus(Nx, Ny)


def triangular_su2(Nx, Ny, J=1.0, Jprime=1.0):
    n, edges, _ = square(Nx, Ny, J=J)
    edges = list(edges)
    for y in range(Ny):
        for x in range(Nx):
            u = (x + 1) % Nx + Nx * y
            v = x + Nx * ((y + 1) % Ny)
            edges.append(Edge(u, v, 0, SU2, 1, Jprime,
                              crossing=(-1 if x == Nx - 1 else 0,
                                        1 if y == Ny - 1 else 0)))
    return n, edges, _torus(Nx, Ny)


def kagome_su2(Nx, Ny, J=1.0, Jprime=1.0):
    n, edges, _ = lieb(Nx, Ny, J=J)
    edges = list(edges)
    for j in range(Ny):
        for i in range(Nx):
            _, mx, my = _lieb_ids(i, j, Nx, Ny)
            _, _, my2 = _lieb_ids(i + 1, j - 1, Nx, Ny)
            edges.append(Edge(mx, my, 0, SU2, 1, Jprime))
            edges.append(Edge(mx, my2, 0, SU2, 1, Jprime,
                              crossing=(1 if i == Nx - 1 else 0,
                                        -1 if j == 0 else 0)))
    return n, edges, _torus(Nx, Ny)


def honeycomb_su2(Nx, Ny, J=1.0, Jprime=1.0):
    edges = []
    for y in range(Ny):
        for x in range(Nx):
            u = x + Nx * y
            edges.append(Edge(u, (x + 1) % Nx + Nx * y, +1, CSSE, 1, J,
                              crossing=(1 if x == Nx - 1 else 0, 0)))
            if (x + y) % 2 == 0:
                edges.append(Edge(u, x + Nx * ((y + 1) % Ny), 0, SU2, 1, Jprime,
                                  crossing=(0, 1 if y == Ny - 1 else 0)))
    return Nx * Ny, edges, _torus(Nx, Ny)


def trimer_ladder(L, J=1.0, Jprime=1.0):
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
    return 3 * L, edges, _torus(L, 1)


def trimer_brickwall(Nx, Ny, J=1.0, Jprime=1.0):
    edges = []
    for y in range(Ny):
        for x in range(Nx):
            u = x + Nx * y
            edges.append(Edge(u, (x + 1) % Nx + Nx * y, +1, CSSE, 1, Jprime,
                              crossing=(1 if x == Nx - 1 else 0, 0)))
            if y % 3 != 2:
                edges.append(Edge(u, x + Nx * (y + 1), 0, SU2, 1, J))
    return Nx * Ny, edges, _torus(Nx, Ny)


def nnn_chain(N, J=1.0, Jnnn=1.0):
    edges = []
    for n in range(N):
        edges.append(Edge(n, (n + 1) % N, +1, CSSE, 1, J,
                          crossing=(1 if n == N - 1 else 0, 0)))
        edges.append(Edge(n, (n + 2) % N, +1, CSSE, 2, Jnnn,
                          crossing=(1 if n >= N - 2 else 0, 0)))
    return N, edges, _torus(N, 1)


GENERATORS = {
    "chain": chain, "square": square, "square_shifted": square_shifted, "lieb": lieb,
    "triangular_su2": triangular_su2, "kagome_su2": kagome_su2,
    "honeycomb_su2": honeycomb_su2,
    "trimer_ladder": trimer_ladder, "trimer_brickwall": trimer_brickwall,
    "nnn_chain": nnn_chain,
}


def spanning_tree(num_vertices, edges):
    """Adjacency-list BFS forest rooted at vertex 0, then at the lowest vertex not
    yet reached: (parent (edge_idx, dir) or None per vertex, chords, winding and
    crossing potentials, zero at every root)."""
    adj = [[] for _ in range(num_vertices)]
    for i, e in enumerate(edges):
        adj[e.u].append((i, +1))
        adj[e.v].append((i, -1))
    parent, winding, crossing = ([None] * num_vertices for _ in range(3))
    in_tree = [False] * len(edges)
    for root in range(num_vertices):
        if winding[root] is not None:
            continue
        winding[root], crossing[root] = 0, (0, 0)
        order = [root]
        for n in order:
            wn, (cx, cy) = winding[n], crossing[n]
            for ei, dirn in adj[n]:
                e = edges[ei]
                m = e.v if dirn > 0 else e.u
                if winding[m] is None:
                    winding[m] = wn + dirn * e.sigma * e.r
                    crossing[m] = (cx + dirn * e.crossing[0], cy + dirn * e.crossing[1])
                    parent[m] = (ei, dirn)
                    in_tree[ei] = True
                    order.append(m)
    chords = [i for i, t in enumerate(in_tree) if not t]
    return parent, chords, winding, crossing


def _root_path(edges, parent, n):
    """Edge walk (edge_idx, dir) from the tree root down to vertex n."""
    path = []
    while parent[n] is not None:
        ei, d = parent[n]
        path.append((ei, d))
        n = edges[ei].u if d > 0 else edges[ei].v
    path.reverse()
    return path


def fundamental_cycles(num_vertices, edges):
    """One cycle per chord of the BFS forest, each a list of (edge_index, direction)."""
    parent, chords, _, _ = spanning_tree(num_vertices, edges)
    cycles = []
    for ci in chords:
        to_u = _root_path(edges, parent, edges[ci].u)
        to_v = _root_path(edges, parent, edges[ci].v)
        k = 0
        while k < len(to_u) and k < len(to_v) and to_u[k] == to_v[k]:
            k += 1
        # u -> v along the chord, v -> ancestor against the tree, ancestor -> u
        cycle = [(ci, +1)]
        cycle += [(ei, -d) for ei, d in reversed(to_v[k:])]
        cycle += to_u[k:]
        cycles.append(cycle)
    return cycles


def cycle_crossing(edges, cycle):
    return tuple(sum(d * edges[ei].crossing[k] for ei, d in cycle) for k in (0, 1))


def classify(num_vertices, edges):
    """Walk each contractible fundamental cycle, then search sigma edge by edge with
    vertex-sum pruning and each cycle's winding tested at its last CSSE edge."""
    csse_idx = [i for i, e in enumerate(edges) if e.kind == CSSE]
    degree = [0] * num_vertices
    for ei in csse_idx:
        degree[edges[ei].u] += 1
        degree[edges[ei].v] += 1
    if any(d % 2 for d in degree):
        return CLASS_NONE
    if not csse_idx:
        return CLASS_INDEPENDENT
    if len(csse_idx) > SIGMA_SEARCH_CAP:
        return CLASS_UNKNOWN
    cycles = [c for c in fundamental_cycles(num_vertices, edges)
              if cycle_crossing(edges, c) == (0, 0)]
    if not cycles:
        return CLASS_INDEPENDENT

    pos = {ei: k for k, ei in enumerate(csse_idx)}
    # per-vertex incident (slot, direction) over CSSE edges only
    incident = [[] for _ in range(num_vertices)]
    for ei in csse_idx:
        incident[edges[ei].u].append((pos[ei], +1))
        incident[edges[ei].v].append((pos[ei], -1))
    # cycle -> list of (slot, coefficient d*r); SU(2) edges contribute nothing
    cyc_terms = []
    for cyc in cycles:
        terms = [(pos[ei], d * edges[ei].r) for ei, d in cyc if edges[ei].kind == CSSE]
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
        e = edges[csse_idx[k]]
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


def validate(num_vertices, edges):
    """The per-edge validation walk: raises InvalidGraph naming the first invalid edge."""
    seen = set()
    for e in edges:
        if e.u == e.v:
            raise InvalidGraph(f"self-loop at vertex {e.u}")
        if not (0 <= e.u < num_vertices and 0 <= e.v < num_vertices):
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


def load_records(text):
    """The per-record graph-file reader: (num_vertices, edges, boundary), or its error."""
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
    validate(n, edges)
    return n, edges, boundary


def _strict_ints(values, name):
    values = list(values)
    try:
        ints = list(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values:
        raise InvalidGraph(f"graph file: every {name!r} must be an integer")
    return ints


def _infer_crossing(u, v, num_vertices, boundary):
    if boundary.get("type") not in ("toroidal", "toroidal_shifted"):
        return (0, 0)
    nx, ny = int(boundary.get("nx", 0)), int(boundary.get("ny", 0))
    if nx * ny != num_vertices or nx < 2 or ny < 1:
        return (0, 0)
    wy = _wrap_count(u // nx, v // nx, ny)
    return (_wrap_count(u % nx, v % nx + wy * int(boundary.get("shift", 0)), nx), wy)


def _wrap_count(a, b, n):
    if n < 3:
        return 0
    d = b - a
    dmin = (d + n // 2) % n - n // 2
    return (dmin - d) // n


def to_json(g):
    """The graph file as json.dumps writes the document with every column as a list."""
    return json.dumps({"vertices": g.num_vertices,
                       "edges": {k: c.tolist() for k, c in g.columns.items()},
                       "boundary": dict(g.boundary)})


def load_columns(text):
    """The column-document reader: (num_vertices, edges, boundary), or its error.

    Its checks run column by column in the order the record reader made them:
    the columns present and of one length, every crossing a pair, then the
    integers of vertices, u, v, sigma and r, missing crossings inferred, the
    crossing integers, J, and last the per-edge validation walk.
    """
    doc = json.loads(text)
    if not (isinstance(doc, dict) and isinstance(doc.get("edges"), dict)
            and isinstance(doc.get("boundary", {}), dict)):
        raise InvalidGraph("graph file: expected an object with an 'edges' list "
                           "and an optional 'boundary' object")
    boundary = dict(doc.get("boundary", {"type": "none"}))
    cols = doc["edges"]
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
    if not all(type(c) is list and len(c) == 2 for c in cols.get("crossing", ())):
        raise InvalidGraph("graph file: every 'crossing' must be a list of two integers")
    (n,) = _strict_ints([doc["vertices"]], "vertices")
    us, vs, sigmas = (_strict_ints(cols[k], k) for k in ("u", "v", "sigma"))
    rs = _strict_ints(cols.get("r", [1] * m), "r")
    if "crossing" in cols:
        crossings = [tuple(_strict_ints(c, "crossing")) for c in cols["crossing"]]
    else:
        crossings = [_infer_crossing(u, v, n, boundary) for u, v in zip(us, vs)]
    kinds = list(map(str, cols["kind"]))
    js = [_number(j) for j in cols.get("J", [1.0] * m)]
    edges = list(map(Edge, us, vs, sigmas, kinds, rs, js, crossings))
    validate(n, edges)
    return n, edges, boundary


def _number(value):
    try:
        return float(value)
    except (TypeError, OverflowError):
        raise InvalidGraph(f"graph file: every 'J' must be a number, got {value!r}") from None
