"""Spans around splitkit's public functions, recorded from outside the program.

`install()` runs in the request process after `splitkit.cli` is imported.
It rebinds every public function of the seven layer modules, in every
`splitkit.*` namespace that holds a binding of it (`from .topo import betti`
copies the binding into `cli`), plus the methods in METHODS on their class.
Spans stay in memory and `Recorder.dump` writes them out when the request
ends.  `Stats` and `per_layer` turn the spans of a run into metrics.
"""

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "laygraph", "mobius", "dualalg", "topo", "exactlinalg", "ncfactor")
# Methods worth a span; per-element accessors (FieldSpec arithmetic,
# LayeredGraph.level/children, __getitem__) would cost more than they measure.
METHODS = {
    "exactlinalg": {
        "DenseMatrix": ("rank", "__mul__", "inverse", "nullspace_basis"),
        "EchelonBasis": ("insert", "reduced_rows"),
    },
    "laygraph": {"LayeredGraph": ("from_json_dict",), "SimplicialComplex": ("from_json_dict",)},
    "ncfactor": {"PseudoRootTable": ("pair",)},
}
# Counters read off a call's arguments and result.
EXTRAS = {
    "exactlinalg.DenseMatrix.rank": lambda args, result: (result, args[0].cols),
    "exactlinalg.EchelonBasis.insert": lambda args, result: int(result),
    "topo.boundary_matrices": lambda args, result: sum(m.rows * m.cols for m in result),
}
BUILDERS = (
    "laygraph.boolean_graph",
    "laygraph.subspace_graph",
    "laygraph.complex_graph",
    "laygraph.hat",
    "laygraph.LayeredGraph.from_json_dict",
    "laygraph.SimplicialComplex.from_json_dict",
)


class Recorder:
    """Spans of one request: (name id, start, end, parent index, outermost, extra)."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, extra = self.spans, self.stack, EXTRAS.get(name)
        depth = [0]  # open spans of this name, so recursion is counted once in `s`

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            depth[0] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (nid, start, perf_counter(), parent, depth[0] == 1, None)
                raise
            finally:
                depth[0] -= 1
                stack.pop()
            spans[idx] = (nid, start, perf_counter(), parent, depth[0] == 0, extra and extra(args, result))
            return result

        return traced

    def dump(self, path: str, request: int):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"request": request, "names": self.names, "spans": self.spans}, fh)


def install() -> Recorder:
    rec = Recorder()
    modules = [m for n, m in sorted(sys.modules.items()) if n == "splitkit" or n.startswith("splitkit.")]
    originals = {}  # id(original function) -> traced function
    for layer in LAYERS:
        mod = sys.modules[f"splitkit.{layer}"]
        for attr, fn in sorted(vars(mod).items()):
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                originals[id(fn)] = rec.wrap(f"{layer}.{attr}", fn)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(rec.wrap(f"{layer}.{cls_name}.{meth}", raw.__func__)))
                else:
                    setattr(cls, meth, rec.wrap(f"{layer}.{cls_name}.{meth}", raw))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in originals:
                setattr(mod, attr, originals[id(value)])
    return rec


class Stats:
    """Per span name: calls, inclusive s (outermost spans), self s, summed extras."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(lambda: [0, 0])
        self.spans = 0

    def add(self, doc: dict):
        names, spans = doc["names"], doc["spans"]
        child = [0.0] * len(spans)
        for nid, start, end, parent, outer, extra in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (nid, start, end, parent, outer, extra) in enumerate(spans):
            name = names[nid]
            self.calls[name] += 1
            self.self_s[name] += end - start - child[i]
            if outer:
                self.s[name] += end - start
            if extra is not None:
                acc = self.extra[name]
                if isinstance(extra, list):
                    acc[0] += extra[0]
                    acc[1] += extra[1]
                else:
                    acc[0] += extra
        self.spans += len(spans)

    def module(self, layer: str, table: dict) -> float:
        return sum(v for k, v in table.items() if k.split(".")[0] == layer)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, better); calls, seconds and entries are per pass.
def _fn(name: str, *stats: str) -> list:
    units = {"calls": ("count", "lower"), "s": ("s", "lower"), "self_s": ("s", "lower"), "entries": ("count", "lower")}
    return [(f"{name}.{st}", *units[st]) for st in stats]


PER_LAYER = (
    [(f"{layer}.{st}", *u) for layer in LAYERS for st, u in (("calls", ("count", "lower")), ("self_s", ("s", "lower")))]
    + _fn("exactlinalg.DenseMatrix.rank", "calls", "self_s")
    + [("exactlinalg.DenseMatrix.rank.pivot_ratio", "1", "higher")]
    + _fn("exactlinalg.DenseMatrix.__mul__", "calls", "self_s")
    + _fn("exactlinalg.DenseMatrix.inverse", "calls", "self_s")
    + _fn("exactlinalg.EchelonBasis.insert", "calls", "self_s")
    + [("exactlinalg.EchelonBasis.insert.useful_ratio", "1", "higher")]
    + _fn("exactlinalg.EchelonBasis.reduced_rows", "self_s")
    + _fn("topo.discrepancy_rhs_table", "s")
    + _fn("topo.betti", "calls", "self_s")
    + _fn("topo.boundary_matrices", "calls", "self_s", "entries")
    + _fn("topo.order_complex", "calls", "self_s")
    + _fn("topo.predict_koszulity", "s")
    + _fn("topo.link", "calls")
    + _fn("laygraph.down_graph", "calls", "self_s")
    + _fn("laygraph.require_valid", "calls", "self_s")
    + _fn("laygraph.build", "self_s")
    + _fn("mobius.graded_mobius", "calls")
    + _fn("dualalg.vertex_algebra_presentation", "self_s")
    + _fn("dualalg.vertex_hilbert", "calls", "self_s")
    + _fn("dualalg.discrepancy_lhs_table", "s")
    + _fn("ncfactor.genericity_check", "s")
    + _fn("ncfactor.check_all_orderings", "s")
    + _fn("ncfactor.quasideterminant", "calls", "self_s")
    + _fn("ncfactor.block_vandermonde", "calls")
    + _fn("ncfactor.PseudoRootTable.pair", "calls")
    + [("ncfactor.PseudoRootTable.pair.hit_ratio", "1", "higher")]
    + _fn("cli.main", "self_s")
    + [("trace.overhead_ratio", "1", "lower")]
)


def per_layer(st: Stats, passes: int, overhead: float) -> dict:
    """Every PER_LAYER metric; counts and times are per pass."""
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = st.module(layer, st.calls) / passes
        values[f"{layer}.self_s"] = st.module(layer, st.self_s) / passes
    for name, _, _ in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if name in values or stat not in ("calls", "s", "self_s"):
            continue
        if fn == "laygraph.build":
            values[name] = sum(st.self_s[b] for b in BUILDERS) / passes
        else:
            values[name] = getattr(st, stat)[fn] / passes
    rank = st.extra["exactlinalg.DenseMatrix.rank"]
    values["exactlinalg.DenseMatrix.rank.pivot_ratio"] = _ratio(rank[0], rank[1])
    values["exactlinalg.EchelonBasis.insert.useful_ratio"] = _ratio(
        st.extra["exactlinalg.EchelonBasis.insert"][0], st.calls["exactlinalg.EchelonBasis.insert"]
    )
    values["topo.boundary_matrices.entries"] = st.extra["topo.boundary_matrices"][0] / passes
    pairs = st.calls["ncfactor.PseudoRootTable.pair"]
    values["ncfactor.PseudoRootTable.pair.hit_ratio"] = (
        1 - st.calls["ncfactor.quasideterminant"] / pairs if pairs else 0.0
    )
    values["trace.overhead_ratio"] = overhead
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
