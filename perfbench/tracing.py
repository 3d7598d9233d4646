"""Span tracer for the benchmark's traced run.

``Tracer.install()`` replaces every public function of each layer module,
and every public method and ``__post_init__`` of the classes defined there,
by a wrapper that records a span ``[id, parent, name, layer, start, end,
attrs]``.  Names rebound by ``from .x import y`` in other modules of the
package are replaced too, so a call is traced whichever module it goes
through.  ``uninstall()`` restores the originals, so untraced passes run the
program exactly as shipped.

Private helpers are not wrapped: their time counts as self time of the
nearest wrapped caller.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
from time import perf_counter

LAYERS = ("cli", "serialize", "linalg", "frames", "potentials", "measures",
          "transport", "duality", "approx")


def _pivots(args, result):
    for part in result:
        if hasattr(part, "iterations"):
            return {"pivots": int(part.iterations)}
    return None


def _rows(args, result):
    return {"rows": sum(a.points.shape[0] for a in args[:2])}


def _minimize_iters(args, result):
    return {"iters": len(result[1]) - 1}


def _trials(args, result):
    return {"trials": int(result.trials)}


def _bytes_in(args, result):
    return {"bytes_in": os.path.getsize(args[0])}


def _bytes_out(args, result):
    return {"bytes_out": len(result.encode())}


# Counters read from a span's arguments or result, keyed by span name.
HOOKS = {
    "transport.solve_transport": _pivots,
    "measures.weak_equal": _rows,
    "potentials.minimize_dual_potential": _minimize_iters,
    "approx.interiority_experiment": _trials,
    "serialize.parse_fixture": _bytes_in,
    "serialize.dumps_canonical": _bytes_out,
}


class Tracer:
    """Spans of one pass, kept in memory; install() and uninstall() switch
    the wrappers on and off."""

    def __init__(self, package: str):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans = []
        self._stack = []

    def _wrap(self, layer: str, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            rec = [len(spans), stack[-1] if stack else -1, name, layer,
                   0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if hook is not None:
                rec[6] = hook(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(layer, f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != self.package and \
                    not modname.startswith(self.package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

    def _wrap_class(self, layer: str, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, classmethod):
                self._patch(cls, attr,
                            classmethod(self._wrap(layer, name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(layer, name, obj))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Derived per-layer metrics


SOLVE = ("transport.solve_transport", "transport.exact_w2")
COUPLING = "transport.Coupling.__post_init__"
GLUE = ("transport.glue", "transport.TriCoupling.__post_init__")


def _is_parse(name: str) -> bool:
    return name == "serialize.parse_fixture" or name.endswith("_from_obj")


def summarize(spans: list[list]) -> dict[str, float]:
    """Self time per layer and the named counters, from one pass's spans.

    A span's self time is its duration minus that of its direct children;
    spans nest strictly because the loop is single-threaded.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[1] >= 0:
            child[rec[1]] += rec[5] - rec[4]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    name_self: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, int] = {}
    layer_calls = dict.fromkeys(LAYERS, 0)
    for rec, inner in zip(spans, child):
        _, _, name, layer, start, end, extra = rec
        own = (end - start) - inner
        layer_self[layer] += own
        layer_calls[layer] += 1
        name_self[name] = name_self.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        for key, value in (extra or {}).items():
            attrs[key] = attrs.get(key, 0) + value

    def self_of(names) -> float:
        return sum(name_self.get(n, 0.0) for n in names)

    solves = calls.get("transport.solve_transport", 0)
    pivots = attrs.get("pivots", 0)
    trials = attrs.get("trials", 0)
    parse = sum(t for n, t in name_self.items()
                if n.startswith("serialize.") and _is_parse(n))
    return {
        "transport.solve_calls": solves,
        "transport.pivots": pivots,
        "transport.pivots_per_solve": pivots / solves if solves else 0.0,
        "transport.solve_self_s": self_of(SOLVE),
        "transport.coupling_builds": calls.get(COUPLING, 0),
        "transport.coupling_self_s": name_self.get(COUPLING, 0.0),
        "transport.glue_calls": calls.get("transport.glue", 0),
        "transport.glue_self_s": self_of(GLUE),
        "transport.self_s": layer_self["transport"],
        "approx.trials": trials,
        "approx.w2_per_trial": solves / trials if trials else 0.0,
        "approx.self_s": layer_self["approx"],
        "measures.weak_equal_calls": calls.get("measures.weak_equal", 0),
        "measures.atoms_matched": attrs.get("rows", 0),
        "measures.classify_calls":
            calls.get("measures.classify_probabilistic_frame", 0),
        "measures.self_s": layer_self["measures"],
        "duality.dual_checks": calls.get("duality.is_oblique_dual_measure", 0),
        "duality.self_s": layer_self["duality"],
        "serialize.parse_s": parse,
        "serialize.emit_s": layer_self["serialize"] - parse,
        "serialize.bytes_in": attrs.get("bytes_in", 0),
        "serialize.bytes_out": attrs.get("bytes_out", 0),
        "linalg.calls": layer_calls["linalg"],
        "linalg.self_s": layer_self["linalg"],
        "frames.self_s": layer_self["frames"],
        "potentials.self_s": layer_self["potentials"],
        "potentials.minimize_iters": attrs.get("iters", 0),
        "cli.self_s": layer_self["cli"],
    }


RATIO_UNITS = {"transport.pivots_per_solve": "pivots/solve",
               "approx.w2_per_trial": "solves/trial"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric.  "s" marks a time, reported as the
    median over traced passes; any other unit marks a count, which must
    repeat exactly."""
    if name.endswith("_s"):
        return "s"
    if ".bytes_" in name:
        return "bytes"
    return RATIO_UNITS.get(name, "count")
