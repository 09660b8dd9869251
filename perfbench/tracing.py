"""Span tracing installed from outside the program, for the traced run only.

``install`` wraps every public function of the ten layer modules, plus
``ScarGraph.to_json``/``from_json`` and ``FockBasis.monomial``, and rebinds
each wrapped function under every name a ``scarlab`` module holds it by
(``spectra`` imports ``build_xyz_chain``, ``hamiltonian`` imports
``two_site``, ...), including module-level tables such as
``lattice.GENERATORS``.  Each call becomes a span: name, start, end, parent
span and the index of the case it ran in; all spans of one process share a
run id.  Spans stay in memory and are written out once, when the pass ends.

A span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("elliptic", "spinops", "frames", "hamiltonian", "lattice",
          "scar", "algebra", "schwinger", "spectra", "cli")
METHODS = (("lattice", "ScarGraph", "to_json"), ("lattice", "ScarGraph", "from_json"),
           ("schwinger", "FockBasis", "monomial"))

# Inclusive time of these spans is reported as <metric>.
TIMED = {
    "lattice.check_circuit_rule_s": ("lattice.check_circuit_rule",),
    "lattice.assign_site_phases_s": ("lattice.assign_site_phases",),
    "lattice.json_s": ("lattice.ScarGraph.to_json", "lattice.ScarGraph.from_json"),
    "scar.site_angles_s": ("scar.site_angles",),
    "scar.gz_state_s": ("scar.gz_state",),
    "scar.residual_s": ("scar.residual",),
    "scar.span_rank_s": ("scar.span_rank",),
    "schwinger.monomial_s": ("schwinger.FockBasis.monomial",),
    "algebra.degenerate_subspace_s": ("algebra.degenerate_subspace",),
}
# Number of spans of these functions is reported as <metric>.
COUNTED = {
    "spinops.embed_calls": "spinops.embed",
    "spinops.two_site_calls": "spinops.two_site",
    "schwinger.monomial_calls": "schwinger.FockBasis.monomial",
}


def _operator_size(counters, args, kwargs, H):
    m = H.matrix
    counters["hamiltonian.dim"] = max(counters["hamiltonian.dim"], H.system.total_dim)
    counters["hamiltonian.nnz"] += m.nnz
    counters["hamiltonian.bytes_computed"] += m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


def _dense_size(counters, args, kwargs, result):
    H = args[0] if args else kwargs["H"]
    dim = H.system.total_dim
    counters["spectra.dense_dim"] = max(counters["spectra.dense_dim"], dim)
    counters["spectra.dense_bytes_computed"] += dim * dim * H.matrix.dtype.itemsize


def _degeneracy(counters, args, kwargs, result):
    counters["spectra.degeneracy_calls"] += 1
    counters["spectra.resolved"] += bool(result.resolved)


def _amplitudes(counters, args, kwargs, state):
    counters["spinops.state_amplitudes"] += state.amplitudes.size


def _edges(counters, args, kwargs, graph):
    counters["lattice.edges"] += len(graph.edges)


def _fock_dim(counters, args, kwargs, result):
    counters["schwinger.fock_dim"] = max(counters["schwinger.fock_dim"], args[0].dim)


# Counts taken at the boundary from the call's arguments and result.
PROBES = {
    "hamiltonian.build_xyz_chain": _operator_size,
    "hamiltonian.build_csse_chain": _operator_size,
    "hamiltonian.build_on_graph": _operator_size,
    "spectra.full_spectrum": _dense_size,
    "spectra.degeneracy_at": _degeneracy,
    "spinops.coherent_product_state": _amplitudes,
    "lattice.generate": _edges,
    "schwinger.FockBasis.monomial": _fock_dim,
}


class Tracer:
    """In-memory span table (one row per call) plus boundary counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.case_index = -1
        self.names: list[str] = []
        self.fid = array("l")
        self.parent = array("l")
        self.case = array("l")
        self.start = array("d")
        self.end = array("d")
        self.cpu = array("d")      # CPU seconds, all threads; spectra spans only
        self.error = array("b")
        self.counters = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        timed_cpu = name.startswith("spectra.")
        clock, cpu_clock, stack = time.perf_counter, time.process_time, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.fid)
            self.fid.append(fid)
            self.parent.append(stack[-1] if stack else -1)
            self.case.append(self.case_index)
            self.end.append(0.0)
            self.cpu.append(0.0)
            self.error.append(0)
            stack.append(sid)
            c0 = cpu_clock() if timed_cpu else 0.0
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.error[sid] = 1
                raise
            finally:
                self.end[sid] = clock()
                if timed_cpu:
                    self.cpu[sid] = cpu_clock() - c0
                stack.pop()
            if probe is not None:
                probe(self.counters, args, kwargs, result)
            return result

        return traced

    def arrays(self) -> dict:
        return {"fid": np.array(self.fid, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "case": np.array(self.case, dtype=np.int64),
                "start": np.array(self.start), "end": np.array(self.end),
                "cpu": np.array(self.cpu), "error": np.array(self.error, dtype=bool)}

    def save(self, path) -> None:
        """Write every span, with the name table and the run id."""
        np.savez_compressed(path, names=np.array(self.names), run_id=np.array(self.run_id),
                            **self.arrays())


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions and rebind every name that holds one."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"scarlab.{layer}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                wrapped[obj] = tracer.wrap(f"{layer}.{name}", obj)
    for layer, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"scarlab.{layer}"), cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(tracer.wrap(f"{layer}.{cls_name}.{meth}", raw.__func__)))
        else:
            setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", raw))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "scarlab" or mod_name.startswith("scarlab.")):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
            elif isinstance(obj, dict):
                for key, val in obj.items():
                    if inspect.isfunction(val) and val in wrapped:
                        obj[key] = wrapped[val]


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer calls, self time, errors and share, plus the named counters."""
    a = tracer.arrays()
    n = a["fid"].size
    layer = np.array([LAYERS.index(name.split(".")[0]) for name in tracer.names])[a["fid"]]
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child[:n]
    parent_layer = np.where(has_parent, layer[np.where(has_parent, a["parent"], 0)], -1)
    escaped = a["error"] & (parent_layer != layer)
    leaf = np.bincount(a["parent"][has_parent], minlength=n)[:n] == 0
    out = {}
    for i, name in enumerate(LAYERS):
        mask = layer == i
        out[f"{name}.calls"] = int(mask.sum())
        out[f"{name}.self_s"] = float(self_t[mask].sum())
        out[f"{name}.self_frac"] = float(self_t[mask].sum() / wall_s)
        out[f"{name}.errors"] = int((escaped & mask).sum())
    spectra = layer == LAYERS.index("spectra")
    out["spectra.cpu_s"] = float(a["cpu"][spectra & leaf].sum())
    span_name = np.array(tracer.names)[a["fid"]]
    for metric, funcs in TIMED.items():
        out[metric] = float(dur[np.isin(span_name, funcs)].sum())
    for metric, func in COUNTED.items():
        out[metric] = int((span_name == func).sum())
    c = tracer.counters
    for key in ("hamiltonian.dim", "hamiltonian.nnz", "hamiltonian.bytes_computed",
                "spectra.dense_dim", "spectra.dense_bytes_computed",
                "spinops.state_amplitudes", "lattice.edges", "schwinger.fock_dim"):
        out[key] = int(c[key])
    calls = c["spectra.degeneracy_calls"]
    out["spectra.resolved_ratio"] = c["spectra.resolved"] / calls if calls else 0.0
    out["trace.spans"] = int(n)
    return out
