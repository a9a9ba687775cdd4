"""Layer tracing of one spinweave CLI job, installed from outside the package.

Run as a child process in place of ``python -m spinweave.cli``::

    python3 perfbench/tracer.py OUT.json JOB_ID verify --sig 3,0

It imports the package, wraps the functions of every module (the layers),
runs ``spinweave.cli.main`` on the remaining arguments and, when the job
ends, writes the spans and per-function aggregates to OUT.json.  The CLI's
stdout is untouched.

Two kinds of record are kept, both in memory until the job ends:

* aggregates, for every wrapped function: calls, total time and self time
  (total minus the time of wrapped calls made inside it);
* spans, for calls at the layer boundaries above the scalar kernel:
  name, start, end and the index of the enclosing span.  High-frequency
  functions (scalar arithmetic, per-matrix methods, Clifford products,
  F2 primitives) are aggregated only.

Time spent in the tracer's own bookkeeping after a call returns is charged
to no function, so it shows only in the traced job's wall time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from typing import Callable, Dict, List, Optional

LAYERS = ("scalars", "linalg", "clifford", "reps", "groups", "bundles",
          "charclass", "reports", "cli")

# Dunder methods worth timing; generated dataclass methods are skipped
# because their code does not live in the module file.
_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__eq__",
    "__contains__", "__init__", "__post_init__",
}
# Private functions that carry a whole CLI step or a named counter.
_PRIVATE = {"_monomial_inverse", "_verify_signature", "_run_example"}

# Functions recorded as aggregates only (no span per call).
_AGG_ONLY_LAYERS = {"scalars", "clifford"}
_AGG_ONLY_CLASSES = {"ExactMatrix", "CohoClass", "CohoRing", "Signature",
                     "FrameGroup", "KappaImage", "OrthMatrix", "ExteriorElement"}
_AGG_ONLY_FUNCS = {"f2_add", "f2_zero", "f2_is_zero", "f2_in_span",
                   "ManifoldData.is_liftable", "matrix_to_vector", "vector_to_matrix"}

SCALAR_BINARY = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__"}
SCALAR_OPS = SCALAR_BINARY | {"__neg__", "__pow__", "inverse", "conjugate", "sqrt"}


class Tracer:
    """Per-process trace state: a call stack, spans, aggregates, counters."""

    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack: List[float] = []  # child time of each open wrapped call
        self.span_stack: List[int] = []
        self.spans: List[list] = []
        self.agg: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.caches: Dict[str, Callable] = {}

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, fn: Callable, name: str, span: bool,
             post: Optional[Callable] = None, pre: Optional[Callable] = None) -> Callable:
        stat = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack, span_stack, spans, clock = self.stack, self.span_stack, self.spans, self.clock
        origin = self.origin

        def wrapper(*args, **kwargs):
            state = pre(args) if pre is not None else None
            if span:
                index = len(spans)
                spans.append([name, 0.0, 0.0, span_stack[-1] if span_stack else -1])
                span_stack.append(index)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = stack.pop()
                if span:
                    span_stack.pop()
                    spans[index][1] = t0 - origin
                    spans[index][2] = t1 - origin
                stat[0] += 1
                stat[1] += t1 - t0
                stat[2] += t1 - t0 - child
            if post is not None:
                post(args, result, state)
            if stack:
                # charge the post hook to nobody: the caller sees it as child time
                stack[-1] += clock() - t0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def dump(self, path: str, job: str, layer_of: Dict[str, str]) -> None:
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses]
        doc = {"job": job, "agg": self.agg, "counters": self.counters,
               "caches": caches, "spans": self.spans, "layer_of": layer_of}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# counters computed at the boundaries
# ---------------------------------------------------------------------------


def _integral(x) -> bool:
    # reads coordinates directly so no wrapped method runs
    if isinstance(x, int):
        return True
    if hasattr(x, "d"):
        return (x.a.denominator == 1 and x.b.denominator == 1
                and x.c.denominator == 1 and x.d.denominator == 1)
    return getattr(x, "denominator", 0) == 1


def _gaussian(x) -> bool:
    return not hasattr(x, "d") or (x.c.numerator == 0 and x.d.numerator == 0)


def _nonzeros(mat) -> int:
    return sum(1 for row in mat.rows for x in row
               if x.a.numerator or x.b.numerator or x.c.numerator or x.d.numerator)


def _hooks(tr: Tracer, module: str, name: str):
    """(pre, post) hooks that feed the named per-layer counters."""
    short = name.rsplit(".", 1)[-1]
    if module == "scalars" and name.startswith("ExactScalar.") and short in SCALAR_BINARY:
        mul = short in ("__mul__", "__rmul__")

        def post(args, result, state):
            tr.count("scalars.binary_ops")
            if _integral(args[0]) and _integral(args[1]):
                tr.count("scalars.integral_operands")
            if mul:
                tr.count("scalars.mul_ops")
                if _gaussian(args[0]) and _gaussian(args[1]):
                    tr.count("scalars.gaussian_muls")
        return None, post
    if name == "ExactMatrix.__mul__":
        def post(args, result, state):
            a, b = args
            if hasattr(b, "rows"):
                tr.count("linalg.matmuls")
                tr.count("linalg.matmul_nonzeros", _nonzeros(a) + _nonzeros(b))
                tr.count("linalg.matmul_cells", 2 * a.n * a.n)
        return None, post
    if name == "ExactMatrix._monomial_inverse":
        def post(args, result, state):
            if result is not None:
                tr.count("linalg.inverse_monomial")
        return None, post
    if name == "rref_sparse":
        def post(args, result, state):
            tr.maximum("linalg.rref_unknowns_max", args[1])
        return None, post
    if name == "Representation.image":
        def pre(args):
            return set(args[0]._blade_cache)

        def post(args, result, before):
            rep, element = args
            new = set(rep._blade_cache) - before
            # every top-level term is a lookup; a miss on a nonzero mask
            # recurses into exactly one more lookup
            lookups = len(element.terms) + sum(1 for mask in new if mask)
            tr.count("reps.blade_lookups", lookups)
            tr.count("reps.blade_misses", len(new))
        return pre, post
    if name == "generate_frame_group":
        def post(args, result, state):
            tr.count("groups.frame_groups_built")
            tr.count("groups.frame_group_elements", result.order)
        return None, post
    if name == "CohoRing.all_degree1":
        def post(args, result, state):
            tr.count("charclass.degree1_enumerated", len(result))
        return None, post
    if name in ("sample_tangent_pairs", "sample_quadric_points"):
        def post(args, result, state):
            tr.count("bundles.samples", len(result))
        return None, post
    if name == "hermitean_h_value":
        def post(args, result, state):
            tr.count("bundles.samples")
        return None, post
    return None, None


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def _wanted(attr: str) -> bool:
    return not attr.startswith("_") or attr in _DUNDERS or attr in _PRIVATE


def _is_span(layer: str, name: str) -> bool:
    if layer in _AGG_ONLY_LAYERS or name in _AGG_ONLY_FUNCS:
        return False
    return name.split(".", 1)[0] not in _AGG_ONLY_CLASSES


def install(tr: Tracer) -> Dict[str, str]:
    """Wrap every layer's functions and methods; returns name -> layer."""
    import importlib

    modules = {layer: importlib.import_module(f"spinweave.{layer}") for layer in LAYERS}
    namespaces = list(modules.values()) + [importlib.import_module("spinweave")]
    layer_of: Dict[str, str] = {}

    def make(layer, fn, name, span=True):
        layer_of[name] = layer
        pre, post = _hooks(tr, layer, name)
        return tr.wrap(fn, name, span and _is_span(layer, name), post, pre)

    for layer, mod in modules.items():
        path = mod.__file__
        for attr, obj in list(vars(mod).items()):
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mattr, raw in list(vars(obj).items()):
                    if not _wanted(mattr):
                        continue
                    name = f"{obj.__name__}.{mattr}"
                    if isinstance(raw, property):
                        if raw.fget.__code__.co_filename == path:
                            # properties are attribute reads: aggregate them
                            setattr(obj, mattr, property(make(layer, raw.fget, name, False)))
                    elif isinstance(raw, (classmethod, staticmethod)):
                        inner = raw.__func__
                        if inner.__code__.co_filename == path:
                            setattr(obj, mattr, type(raw)(make(layer, inner, name)))
                    elif inspect.isfunction(raw) and raw.__code__.co_filename == path:
                        setattr(obj, mattr, make(layer, raw, name))
            elif callable(obj) and _wanted(attr) and not inspect.isclass(obj):
                inner = getattr(obj, "__wrapped__", obj)  # lru_cache keeps the original here
                if not inspect.isfunction(inner) or inner.__code__.co_filename != path:
                    continue
                if hasattr(obj, "cache_info"):
                    tr.caches[attr] = obj  # wrap outside the cache; read hits later
                wrapped = make(layer, obj, attr)
                # rebind every `from .x import name` copy, the package's too
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, wrapped)
    return layer_of


def main(argv: List[str]) -> int:
    out, job, cli_args = argv[0], argv[1], argv[2:]
    tr = Tracer()
    import spinweave.cli

    layer_of = install(tr)
    try:
        code = spinweave.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tr.dump(out, job, layer_of)
    return code



# ---------------------------------------------------------------------------
# per-layer metrics from the dumps of a traced run (parent side)
# ---------------------------------------------------------------------------

_TAUS = ("sphere_tau", "projective_tau", "exterior_tau", "hermitean_tau", "quadric_tau")


def summarize(jobs, passes: int) -> Dict[str, tuple]:
    """Per-layer metrics, per pass of the job list.

    ``jobs`` holds (wall_s, dump, stdout_bytes) for every traced job of
    ``passes`` complete passes.  Counts and times are divided by the
    number of passes; shares and maxima are not.
    """
    calls: Dict[str, float] = {}
    total: Dict[str, float] = {}
    self_t: Dict[str, float] = {}
    layer: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    counters: Dict[str, float] = {}
    hits = misses = cli_self = tau_s = out_bytes = rref_max = 0
    for wall, dump, nbytes in jobs:
        job_layer = dict.fromkeys(LAYERS, 0.0)
        for name, (n, tot, slf) in dump["agg"].items():
            calls[name] = calls.get(name, 0) + n
            total[name] = total.get(name, 0.0) + tot
            self_t[name] = self_t.get(name, 0.0) + slf
            job_layer[dump["layer_of"][name]] += slf
        for name, value in job_layer.items():
            layer[name] += value
        # job time not covered by any layer below the CLI
        cli_self += wall - sum(v for k, v in job_layer.items() if k != "cli")
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0) + value
        rref_max = max(rref_max, dump["counters"].get("linalg.rref_unknowns_max", 0))
        h, m = dump["caches"].get("spin_space", (0, 0))
        hits, misses = hits + h, misses + m
        spans = dump["spans"]
        for name, start, end, parent in spans:
            if name in _TAUS and (parent < 0 or spans[parent][0] not in _TAUS):
                tau_s += end - start
        out_bytes += nbytes

    def per(value):
        return value / passes

    def share(num, den):
        return num / den if den else 0.0

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    def c(name):
        return counters.get(name, 0)

    def tot(*names):
        return sum(total.get(x, 0.0) for x in names)

    out = {f"{name}.self_s": (per(layer[name]), "s") for name in LAYERS if name != "cli"}
    out.update({
        "scalars.ops": (per(n(*(f"ExactScalar.{op}" for op in SCALAR_OPS))), "count"),
        "scalars.inverse_calls": (per(n("ExactScalar.inverse")), "count"),
        "scalars.coerce_calls": (per(n("sc")), "count"),
        "scalars.gaussian_mul_share": (share(c("scalars.gaussian_muls"), c("scalars.mul_ops")), "ratio"),
        "scalars.integral_operand_share": (share(c("scalars.integral_operands"), c("scalars.binary_ops")), "ratio"),
        "linalg.matmul_calls": (per(c("linalg.matmuls")), "count"),
        "linalg.matmul_self_s": (per(self_t.get("ExactMatrix.__mul__", 0.0)), "s"),
        "linalg.matmul_density": (share(c("linalg.matmul_nonzeros"), c("linalg.matmul_cells")), "ratio"),
        "linalg.inverse_calls": (per(n("ExactMatrix.inverse")), "count"),
        "linalg.inverse_monomial_share": (share(c("linalg.inverse_monomial"), n("ExactMatrix.inverse")), "ratio"),
        "linalg.matrix_builds": (per(n("ExactMatrix.__init__")), "count"),
        "linalg.addscale_calls": (per(n("ExactMatrix.__add__", "ExactMatrix.__sub__",
                                        "ExactMatrix.__neg__", "ExactMatrix.scale")), "count"),
        "linalg.rref_calls": (per(n("rref_sparse")), "count"),
        "linalg.rref_self_s": (per(self_t.get("rref_sparse", 0.0)), "s"),
        "linalg.rref_unknowns_max": (rref_max, "count"),
        "clifford.mul_calls": (per(n("CliffordElement.__mul__", "CliffordElement.__rmul__")), "count"),
        "reps.build_rep_s": (per(tot("build_rep")), "s"),
        "reps.spin_space_s": (per(tot("spin_space")), "s"),
        "reps.commutant_s": (per(tot("commutant", "anticommutant")), "s"),
        "reps.spin_space_cache_hit_ratio": (share(hits, hits + misses), "ratio"),
        "reps.image_calls": (per(n("Representation.image")), "count"),
        "reps.image_s": (per(tot("Representation.image")), "s"),
        "reps.blade_cache_hit_ratio": (share(c("reps.blade_lookups") - c("reps.blade_misses"),
                                             c("reps.blade_lookups")), "ratio"),
        "groups.frame_group_s": (per(tot("frame_group")), "s"),
        "groups.frame_group_order": (share(c("groups.frame_group_elements"),
                                           c("groups.frame_groups_built")), "count"),
        "groups.extension_diagram_s": (per(tot("verify_extension_diagram")), "s"),
        "groups.adjoint_calls": (per(n("adjoint_matrix", "twisted_adjoint_matrix")), "count"),
        "groups.kappa_calls": (per(n("kappa")), "count"),
        "groups.kappa_s": (per(tot("kappa")), "s"),
        "groups.lipschitz_checks": (per(n("is_lipschitz")), "count"),
        "bundles.tau_calls": (per(n(*_TAUS)), "count"),
        "bundles.tau_s": (per(tau_s), "s"),
        "bundles.samples": (per(c("bundles.samples")), "count"),
        "charclass.records": (per(n("manifold_from_json")), "count"),
        "charclass.ingest_s": (per(tot("load_catalog")), "s"),
        "charclass.degree1_enumerated": (per(c("charclass.degree1_enumerated")), "count"),
        "charclass.span_tests": (per(n("f2_in_span")), "count"),
        "charclass.summary_s": (per(tot("structure_summary")), "s"),
        "reports.serialize_s": (per(layer["reports"]), "s"),
        "reports.output_bytes": (per(out_bytes), "bytes"),
        "cli.self_s": (per(cli_self), "s"),
    })
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
