"""Outside-in tracing of the polypoisson modules.

The tracer replaces, from outside the package, every public function and
every public method (plain, class, static and property getter) of each layer
module with a wrapper that records a span.  It also rebinds the names other
modules imported with ``from .x import y`` and the function tables they keep
(``acceptance.CHECKS``), so calls from one module into another pass through
the wrapper too.  Private helpers are not wrapped: their time is charged to
the public call that ran them.

A span is (name, parent span, item id, start, end, raised).  Spans are kept
in memory in flat arrays and written out when the pass ends.  A few probes
run on chosen calls, with tracing suspended and inside a ``bench.probe`` span
so their cost is charged to the benchmark and not to the layer:
  - ``exchange_algebra.bracket_matrix``: the distinct ``(spec, W)`` keys, the
    matrix size and the bit lengths of the entries of Pi;
  - ``exchange_algebra.BracketSpec.t_matrix``: the distinct ``(spec, k)`` keys;
  - ``multipoly.dual_det``: the bit lengths of the returned value.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

PACKAGE = "polypoisson"
LAYERS = (
    "linalg",
    "multipoly",
    "lattice_ops",
    "exchange_algebra",
    "coord_reduction",
    "gen_nu",
    "dynamics",
    "acceptance",
    "cli",
)
ITEM_SPAN = "bench.item"
PROBE_SPAN = "bench.probe"
COLUMNS = (("name", "i"), ("parent", "i"), ("item", "i"), ("start", "d"), ("end", "d"), ("raised", "b"))

# Per-function metrics are named "<layer>.<function>"; a method's span also
# carries its class.
METHOD_SPANS = {
    "exchange_algebra.t_matrix": "exchange_algebra.BracketSpec.t_matrix",
    "coord_reduction.to_poly": "coord_reduction.OpTensor.to_poly",
}
FUNCTION_METRICS = (
    ("exchange_algebra.bracket_matrix", "calls"),
    ("exchange_algebra.bracket_matrix", "self_s"),
    ("exchange_algebra.bracket_matrix_dual", "calls"),
    ("exchange_algebra.t_matrix", "calls"),
    ("exchange_algebra.projective_chain_table", "self_s"),
    ("linalg.mat_add", "calls"),
    ("linalg.mat_mul", "calls"),
    ("linalg.solve", "calls"),
    ("multipoly.dual_det", "calls"),
    ("multipoly.dual_det", "self_s"),
    ("coord_reduction.to_poly", "calls"),
    ("coord_reduction.to_poly", "self_s"),
    ("coord_reduction.jacobiator", "calls"),
    ("coord_reduction.jacobiator", "self_s"),
    ("coord_reduction.dirac_reduce", "self_s"),
    ("coord_reduction.oracle_match", "self_s"),
    ("lattice_ops.solve_phi", "calls"),
    ("lattice_ops.compose", "calls"),
    ("lattice_ops.invert", "calls"),
    ("gen_nu.hat_consistency", "self_s"),
    ("dynamics.integrate", "self_s"),
    ("dynamics.commute_check", "calls"),
)
ACCEPTANCE_CHECKS = (
    "check_ybe",
    "check_jacobi",
    "check_momentum",
    "check_quasiperiodicity",
    "check_closed_forms",
    "check_projective",
    "check_casimir_choice",
    "check_linearity_choice",
    "check_toda_to_ftv",
    "check_pushforward",
    "check_extended_toda_compat",
    "check_pencil_deformations",
    "check_flow_consistency",
    "check_integrator_drift",
)
_UNITS = {"calls": "count", "errors": "count", "self_s": "s", "incl_s": "s"}


def per_layer_metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit, in order."""
    units = {}
    for layer in LAYERS:
        for kind in ("calls", "self_s", "errors"):
            units[f"{layer}.{kind}"] = _UNITS[kind]
    for fn, kind in FUNCTION_METRICS:
        units[f"{fn}.{kind}"] = _UNITS[kind]
    units.update(
        {
            "multipoly.dual_det.top_calls": "count",
            "exchange_algebra.pi_builds_per_distinct": "ratio",
            "exchange_algebra.t_matrix.calls_per_distinct": "ratio",
            "exchange_algebra.pi_dim_max": "count",
            "exchange_algebra.pi_num_bits_max": "bits",
            "exchange_algebra.pi_den_bits_max": "bits",
            "multipoly.dual_det.val_bits_max": "bits",
        }
    )
    for check in ACCEPTANCE_CHECKS:
        units[f"acceptance.{check}.incl_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.coverage"] = "ratio"
    return units


def _bits(x) -> tuple:
    return x.numerator.bit_length(), x.denominator.bit_length()


class ProbeStats:
    """Work and size counters gathered by the probes of one traced pass."""

    def __init__(self):
        self.pi_keys = set()
        self.t_keys = set()
        self.pi_dim_max = 0
        self.pi_num_bits_max = 0
        self.pi_den_bits_max = 0
        self.det_bits_max = 0
        self._json_of = {}

    def _key(self, obj) -> str:
        # Specs and polygons are immutable; the object is kept alive next to
        # its key so that its id cannot be reused within the pass.
        hit = self._json_of.get(id(obj))
        if hit is None:
            hit = (obj, json.dumps(obj.to_json(), sort_keys=True))
            self._json_of[id(obj)] = hit
        return hit[1]

    def bracket_matrix(self, bound, Pi):
        self.pi_keys.add((self._key(bound["spec"]), self._key(bound["W"])))
        self.pi_dim_max = max(self.pi_dim_max, len(Pi))
        for row in Pi:
            for x in row:
                if x:
                    nb, db = _bits(x)
                    self.pi_num_bits_max = max(self.pi_num_bits_max, nb)
                    self.pi_den_bits_max = max(self.pi_den_bits_max, db)

    def t_matrix(self, bound, _T):
        self.t_keys.add((self._key(bound["self"]), bound["k"]))

    def dual_det(self, _bound, out):
        self.det_bits_max = max(self.det_bits_max, *_bits(out.val))


_PROBES = {
    "exchange_algebra.bracket_matrix": ProbeStats.bracket_matrix,
    "exchange_algebra.BracketSpec.t_matrix": ProbeStats.t_matrix,
    "multipoly.dual_det": ProbeStats.dual_det,
}


class Tracer:
    """Span recorder for one pass.  Off until ``enabled`` is set."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.cols = {col: array(code) for col, code in COLUMNS}
        self.stack = [-1]
        self.item = 0
        self.item_names = ["(outside items)"]
        self.enabled = False
        self.probes = ProbeStats()
        self._item_id = self.name_id(ITEM_SPAN)
        self._probe_id = self.name_id(PROBE_SPAN)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- span primitives -------------------------------------------------

    def _open(self, nid: int) -> int:
        c = self.cols
        i = len(c["start"])
        c["name"].append(nid)
        c["parent"].append(self.stack[-1])
        c["item"].append(self.item)
        c["end"].append(0.0)
        c["raised"].append(0)
        self.stack.append(i)
        c["start"].append(time.perf_counter())
        return i

    def _close(self, i: int, raised: bool = False):
        self.cols["end"][i] = time.perf_counter()
        if raised:
            self.cols["raised"][i] = 1
        self.stack.pop()

    def begin_item(self, name: str):
        """Open a ``bench.item`` span; spans until ``end_item`` share its item id."""
        if not self.enabled:
            return None
        prev = self.item
        self.item = len(self.item_names)
        self.item_names.append(name)
        return prev, self._open(self._item_id)

    def end_item(self, token, raised: bool = False):
        if token is not None:
            prev, i = token
            self._close(i, raised)
            self.item = prev

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        probe = _PROBES.get(name)
        sig = inspect.signature(fn) if probe else None
        cols = self.cols
        names_col, parent_col, item_col = cols["name"], cols["parent"], cols["item"]
        start_col, end_col, raised_col = cols["start"], cols["end"], cols["raised"]
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        # The bookkeeping of _open/_close, inlined on local names: this runs
        # on every call of every public function, about a million per suite.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            i = len(start_col)
            names_col.append(nid)
            parent_col.append(stack[-1])
            item_col.append(tracer.item)
            end_col.append(0.0)
            raised_col.append(0)
            stack.append(i)
            start_col.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end_col[i] = clock()
                raised_col[i] = 1
                stack.pop()
                raise
            end_col[i] = clock()
            stack.pop()
            if probe is not None:
                tracer._run_probe(probe, sig.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    def _run_probe(self, probe, bound, out):
        i = self._open(self._probe_id)
        self.enabled = False
        try:
            probe(self.probes, bound, out)
        finally:
            self.enabled = True
            self._close(i)

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every layer's public functions and methods, and rebind imports."""
        wrapped = {}
        modules = []
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            modules.append(mod)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}")
                    setattr(mod, attr, wrapped[obj])
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{attr}")
        modules.append(importlib.import_module(PACKAGE))

        def swap(x):
            return wrapped.get(x, x) if inspect.isfunction(x) else x

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                elif isinstance(obj, list):
                    obj[:] = [tuple(swap(x) for x in el) if isinstance(el, tuple) else swap(el) for el in obj]
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        obj[key] = swap(val)

    def _wrap_class(self, cls, prefix: str):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(obj.__func__, name)))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrap(obj.__func__, name)))
            elif isinstance(obj, property) and obj.fget is not None:
                setattr(cls, attr, property(self._wrap(obj.fget, name), obj.fset, obj.fdel, obj.__doc__))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(obj, name))

    # -- output ----------------------------------------------------------

    def write(self, out_dir: Path, extra: dict):
        """Write the spans (one binary file per column) and a JSON header."""
        out_dir.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "item_names": self.item_names,
            "count": len(self.cols["start"]),
            "columns": {col: code for col, code in COLUMNS},
            "clock": "time.perf_counter, seconds",
        }
        header.update(extra)
        for col, _ in COLUMNS:
            with open(out_dir / f"spans.{col}.bin", "wb") as fh:
                self.cols[col].tofile(fh)
        with open(out_dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)


def load_spans(out_dir: Path) -> tuple:
    """Read back what ``Tracer.write`` wrote: (header, {column: array})."""
    with open(out_dir / "spans.json", encoding="utf-8") as fh:
        header = json.load(fh)
    cols = {}
    for col, code in header["columns"].items():
        arr = array(code)
        with open(out_dir / f"spans.{col}.bin", "rb") as fh:
            arr.fromfile(fh, header["count"])
        cols[col] = arr
    return header, cols


def function_stats(names: list, cols: dict) -> dict:
    """Per span name: calls, self_s, incl_s, errors and top_calls.

    Self time is a span's duration minus the durations of its child spans;
    ``top_calls`` counts calls whose parent span has another name, and
    ``incl_s`` sums only those, so recursion is not counted twice.
    """
    name, parent, start, end, raised = cols["name"], cols["parent"], cols["start"], cols["end"], cols["raised"]
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    stats = {nm: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "errors": 0, "top_calls": 0} for nm in names}
    for i in range(n):
        st = stats[names[name[i]]]
        dur = end[i] - start[i]
        st["calls"] += 1
        st["self_s"] += dur - child[i]
        st["errors"] += raised[i]
        p = parent[i]
        if p < 0 or name[p] != name[i]:
            st["top_calls"] += 1
            st["incl_s"] += dur
    return stats


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def per_layer_metrics(tracer: Tracer, traced_wall: float) -> tuple:
    """The per-layer metrics of a traced pass, and the per-function table.

    ``trace.overhead_ratio`` needs an untraced pass and is added by the caller.
    """
    stats = function_stats(tracer.names, tracer.cols)
    out = {}
    for layer in LAYERS:
        rows = [st for nm, st in stats.items() if layer_of(nm) == layer]
        out[f"{layer}.calls"] = sum(st["calls"] for st in rows)
        out[f"{layer}.self_s"] = sum(st["self_s"] for st in rows)
        out[f"{layer}.errors"] = sum(st["errors"] for st in rows)
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "errors": 0, "top_calls": 0}
    for fn, kind in FUNCTION_METRICS:
        out[f"{fn}.{kind}"] = stats.get(METHOD_SPANS.get(fn, fn), empty)[kind]
    out["multipoly.dual_det.top_calls"] = stats.get("multipoly.dual_det", empty)["top_calls"]
    pr = tracer.probes
    out["exchange_algebra.pi_builds_per_distinct"] = _ratio(
        out["exchange_algebra.bracket_matrix.calls"], len(pr.pi_keys)
    )
    out["exchange_algebra.t_matrix.calls_per_distinct"] = _ratio(
        out["exchange_algebra.t_matrix.calls"], len(pr.t_keys)
    )
    out["exchange_algebra.pi_dim_max"] = pr.pi_dim_max
    out["exchange_algebra.pi_num_bits_max"] = pr.pi_num_bits_max
    out["exchange_algebra.pi_den_bits_max"] = pr.pi_den_bits_max
    out["multipoly.dual_det.val_bits_max"] = pr.det_bits_max
    for check in ACCEPTANCE_CHECKS:
        out[f"acceptance.{check}.incl_s"] = stats.get(f"acceptance.{check}", empty)["incl_s"]
    out["trace.coverage"] = sum(st["self_s"] for st in stats.values()) / traced_wall
    table = {
        "functions": {nm: st for nm, st in sorted(stats.items()) if st["calls"]},
        "distinct_pi_inputs": len(pr.pi_keys),
        "distinct_t_inputs": len(pr.t_keys),
    }
    return out, table


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
