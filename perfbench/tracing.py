"""Span tracing for the benchmark's traced runs.

The tracer wraps the public functions of each ``diracspec`` module and
rebinds every name that refers to them in every ``diracspec`` module, so
internal calls such as ``eigen.propagate`` or ``cli.reconstruct`` are seen
without any change to the library source.  Each call records a span (name,
start, end, parent span, task id) plus work counts taken from the call's
arguments and return value, so the counts repeat exactly for a given seed.
Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# layer -> public functions timed on the traced run
LAYERS = {
    "cauchy": ["propagate"],
    "eigen": [
        "find_eigenvalues",
        "norming_constants",
        "normalized_eigenfunction",
        "similarity_coefficients",
        "eigen_gradient",
        "evf",
        "parseval_defect",
    ],
    "twospectra": ["norming_from_two_spectra"],
    "isospectral": ["shift_one", "shift_finite_recurrent", "shift_finite_explicit"],
    "glreconstruct": ["solve_gl", "transformed_solutions", "reconstruct"],
    "halfaxis": [
        "weyl_m0",
        "halfaxis_eigenvalues",
        "evf_halfaxis",
        "surgery",
        "general_finite_perturbation",
        "halfaxis_eigen_data",
    ],
    "cli": ["main"],
    "core": ["read_potential_csv", "write_potential_csv"],
}
MODULES = ["core", "cauchy", "eigen", "twospectra", "isospectral", "glreconstruct", "halfaxis", "cli"]
PROPAGATE_MODES = ("endpoint", "store", "renorm")


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _propagate_span_name(args, kwargs) -> str:
    if _arg(args, kwargs, 6, "store", False):
        return "cauchy.propagate.store"
    if _arg(args, kwargs, 7, "renorm", False):
        return "cauchy.propagate.renorm"
    return "cauchy.propagate.endpoint"


def _propagate_counts(args, kwargs, out) -> dict:
    grid = _arg(args, kwargs, 1, "grid")
    k = int(np.atleast_1d(np.asarray(_arg(args, kwargs, 2, "lam"))).shape[0])
    return {"k": k, "lam_steps": k * grid.m}


def _solve_gl_counts(args, kwargs, out) -> dict:
    # LU of the m+1 dense per-node systems of size n = 2(j+1): 2n^3/3 each
    m = _arg(args, kwargs, 1, "grid").m
    return {"flops_computed": sum(2.0 * (2 * (j + 1)) ** 3 / 3.0 for j in range(m + 1))}


def _roots_counts(args, kwargs, out) -> dict:
    return {"roots": len(out.items) if hasattr(out, "items") else len(out)}


COUNTERS = {
    "cauchy.propagate": _propagate_counts,
    "glreconstruct.solve_gl": _solve_gl_counts,
    "eigen.find_eigenvalues": _roots_counts,
    "halfaxis.halfaxis_eigenvalues": _roots_counts,
}


class Tracer:
    """Records spans of wrapped library calls while ``enabled`` is true."""

    def __init__(self):
        self.spans: list[dict] = []
        self.enabled = False
        self.task_id = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        counter = COUNTERS.get(qual)
        is_propagate = qual == "cauchy.propagate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = {
                "id": len(self.spans),
                "name": _propagate_span_name(args, kwargs) if is_propagate else qual,
                "parent": self._stack[-1] if self._stack else None,
                "task": self.task_id,
                "failed": False,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span["failed"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.update(counter(args, kwargs, out))
            return out

        return wrapper

    def install(self) -> None:
        """Rebind every reference to a listed function in every diracspec module."""
        mods = [importlib.import_module("diracspec")] + [
            importlib.import_module(f"diracspec.{m}") for m in MODULES
        ]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"diracspec.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapped = self._wrap(layer, name, original)
                for mod in mods:
                    if getattr(mod, name, None) is original:
                        self._originals.append((mod, name, original))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._originals):
            setattr(mod, name, original)
        self._originals.clear()


def layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for mode in PROPAGATE_MODES:
        names += [f"cauchy.propagate.{mode}.{s}" for s in ("calls", "self_s", "lam_steps")]
    names.append("cauchy.propagate.endpoint.batch_k.p50")
    names += [f"eigen.find_eigenvalues.{s}" for s in ("calls", "self_s", "roots", "lam_evals_per_root", "fail")]
    names += [f"eigen.{f}.self_s" for f in LAYERS["eigen"][1:]]
    names += [f"glreconstruct.solve_gl.{s}" for s in ("calls", "self_s", "flops_computed")]
    names += ["glreconstruct.transformed_solutions.self_s", "glreconstruct.reconstruct.self_s"]
    names += [f"isospectral.{f}.{s}" for f in LAYERS["isospectral"] for s in ("self_s", "fail")]
    names += [f"twospectra.norming_from_two_spectra.{s}" for s in ("calls", "self_s", "fail")]
    names += [f"halfaxis.{f}.self_s" for f in LAYERS["halfaxis"]]
    names.append("halfaxis.halfaxis_eigenvalues.lam_evals_per_root")
    names += ["cli.main.calls", "cli.main.self_s"]
    names += [f"core.{f}.self_s" for f in LAYERS["core"]]
    return names


def layer_metrics(spans: list[dict], passes: int) -> dict[str, float]:
    """Per-pass totals of every layer metric; self time excludes child spans."""
    child_time: dict[int, float] = {}
    child_k: dict[int, int] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
            if "k" in s:
                child_k[s["parent"]] = child_k.get(s["parent"], 0) + s["k"]
    agg: dict[str, dict] = {}
    for s in spans:
        a = agg.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "fail": 0, "lam_steps": 0,
                                       "roots": 0, "child_k": 0, "flops_computed": 0.0, "k": []})
        a["calls"] += 1
        a["self_s"] += s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        a["fail"] += int(s["failed"])
        a["lam_steps"] += s.get("lam_steps", 0)
        a["roots"] += s.get("roots", 0)
        a["child_k"] += child_k.get(s["id"], 0)
        a["flops_computed"] += s.get("flops_computed", 0.0)
        if "k" in s:
            a["k"].append(s["k"])

    out = {}
    for name in layer_metric_names():
        span_name, _, stat = name.rpartition(".")
        if stat == "p50":  # cauchy.propagate.endpoint.batch_k.p50
            ks = agg.get("cauchy.propagate.endpoint", {}).get("k", [])
            out[name] = float(np.median(ks)) if ks else 0.0
            continue
        a = agg.get(span_name)
        if a is None:
            out[name] = 0.0
        elif stat == "lam_evals_per_root":
            out[name] = a["child_k"] / a["roots"] if a["roots"] else 0.0
        else:
            out[name] = a[stat] / passes
    return out
