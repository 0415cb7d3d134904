"""Layer spans for the traced run, recorded from outside the program.

`Tracer.installed()` replaces every public function of the layer modules
with a timing wrapper.  `from .x import f` binds a second reference to
``f``, so each reference is replaced: in every loaded ``amalgam`` module's
namespace and in module-level dicts (such as the predicate table).  The
originals are restored on exit.  Spans live in memory until `write`.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("grid", "wiener", "propagator", "exponents", "verify")
# The CLI's manifest and CSV plumbing; its time counts as cli.self_s.
NOT_A_LAYER = {"write_csv", "write_manifest", "finalize_manifest"}
PREDICATES = {"is_schrodinger_admissible", "satisfies_cn2", "satisfies_theorem",
              "satisfies_prop_kernel", "satisfies_corollary"}


@dataclass
class Span:
    id: int
    name: str              # layer key the metrics aggregate over
    fn: str                # module.function that ran
    start: float
    end: float
    parent: int | None
    command: str
    counts: dict | None    # work computed from arguments and results


def _io_bytes(stf) -> int:
    return 32 + 8 * len(stf.times) + 16 * len(stf.times) * stf.grid.size


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _span_name(layer: str, fname: str, args, kwargs) -> str:
    if fname in PREDICATES:
        return "exponents.predicate"
    if fname == "write_spacetime":
        return "grid.io.write"
    if fname == "read_spacetime":
        return "grid.io.read"
    if fname == "amalgam_norm":
        partition = _arg(args, kwargs, 3, "window").is_partition
        return "wiener.amalgam_norm." + ("cube" if partition else "smooth")
    return f"{layer}.{fname}"


def _counts(fname: str, args, kwargs, result) -> dict | None:
    if fname == "transform":
        return {"bytes": result.values.nbytes}
    if fname == "write_spacetime":
        return {"bytes": _io_bytes(_arg(args, kwargs, 0, "stf"))}
    if fname == "read_spacetime":
        return {"bytes": _io_bytes(result)}
    if fname == "amalgam_norm":
        m = result.meta
        return {"translates": round(2 * m["L"] / m["step"]) ** m["n"]}
    if fname == "kernel_on_grid":
        return {"nodes": int(result.meta["nodes"]), "samples": int(result.converged.size),
                "unconverged": int(result.converged.size - result.converged.sum())}
    if fname == "evolve_series":
        return {"slices": len(result.times)}
    if fname == "sample_region":
        return {"points": len(result.verdicts)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.command = ""
        self._stack: list[int] = []
        self._next = 0

    def _wrap(self, layer: str, fn):
        fname = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, self._next = self._next, self._next + 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
            self.spans.append(Span(sid, _span_name(layer, fname, args, kwargs),
                                   f"{layer}.{fname}", start, end, parent, self.command,
                                   _counts(fname, args, kwargs, result)))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the layers' public functions in every amalgam module, then restore."""
        # keyed by id: the originals stay referenced here, so no other object shares an id
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"amalgam.{layer}"]
            for name in getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")]):
                fn = getattr(mod, name)
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and name not in NOT_A_LAYER):
                    wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        undo = []
        for modname, mod in list(sys.modules.items()):
            if modname != "amalgam" and not modname.startswith("amalgam."):
                continue
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    undo.append((vars(mod), name, value))
                elif isinstance(value, dict):
                    undo += [(value, key, item) for key, item in value.items() if id(item) in wrappers]
        for table, key, fn in undo:
            table[key] = wrappers[id(fn)][1]
        try:
            yield self
        finally:
            for table, key, fn in undo:
                table[key] = fn

    def self_times(self) -> dict:
        """Span id -> duration minus the time its direct children cover."""
        own = {s.id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(vars(s)) + "\n")


# (name, unit) of every metric a traced run reports, in BENCHMARK.json order
PER_LAYER = [
    ("cli.interp_s", "s"), ("cli.import_s", "s"), ("cli.import.scipy_s", "s"),
    ("cli.self_s", "s"),
    ("grid.transform.calls", "count"), ("grid.transform.self_s", "s"),
    ("grid.transform.bytes", "bytes"),
    ("grid.io.write_s", "s"), ("grid.io.read_s", "s"), ("grid.io.bytes", "bytes"),
    ("grid.lebesgue_norm.self_s", "s"),
    ("wiener.amalgam_norm.smooth.calls", "count"), ("wiener.amalgam_norm.smooth.self_s", "s"),
    ("wiener.amalgam_norm.smooth.translates", "count"),
    ("wiener.amalgam_norm.cube.calls", "count"), ("wiener.amalgam_norm.cube.self_s", "s"),
    ("wiener.spacetime_amalgam_norm.self_s", "s"),
    ("propagator.kernel_on_grid.calls", "count"), ("propagator.kernel_on_grid.self_s", "s"),
    ("propagator.kernel_on_grid.nodes", "count"),
    ("propagator.kernel_on_grid.unconverged_frac", "fraction"),
    ("propagator.evolve_series.calls", "count"), ("propagator.evolve_series.self_s", "s"),
    ("propagator.evolve_series.slices", "count"),
    ("propagator.evolve.calls", "count"), ("propagator.evolve.self_s", "s"),
    ("propagator.adjoint_accumulate.self_s", "s"), ("propagator.hsigma_norm.self_s", "s"),
    ("exponents.sample_region.self_s", "s"), ("exponents.sample_region.points", "count"),
    ("exponents.predicate.calls", "count"), ("exponents.predicate.self_s", "s"),
    ("verify.fit_decay.self_s", "s"), ("verify.strichartz_ratio.self_s", "s"),
    ("verify.bilinear_form.self_s", "s"), ("verify.factorized_bilinear_form.self_s", "s"),
    ("verify.property_suite.self_s", "s"), ("verify.hls_check_1d.self_s", "s"),
    ("verify.band_limited_field.calls", "count"), ("verify.band_limited_field.self_s", "s"),
    ("trace.coverage", "fraction"), ("trace.overhead_frac", "fraction"),
]
# Metrics counted from arguments and results: they repeat exactly.
COMPUTED = {name for name, unit in PER_LAYER if unit in ("count", "bytes")}


def layer_metrics(tracer: Tracer) -> dict:
    """Aggregate spans into the span-derived PER_LAYER metrics."""
    own = tracer.self_times()
    agg: dict[str, dict] = {}
    for s in tracer.spans:
        a = agg.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        a["calls"] += 1
        a["self_s"] += own[s.id]
        for key, val in (s.counts or {}).items():
            a[key] = a.get(key, 0) + val
    out = {}
    for name, _ in PER_LAYER:
        if name.startswith(("cli.", "trace.")):
            continue
        key, field = name.rsplit(".", 1)
        if name.startswith("grid.io."):
            if field == "bytes":
                out[name] = sum(agg.get(k, {}).get("bytes", 0) for k in ("grid.io.write", "grid.io.read"))
            else:
                out[name] = agg.get("grid.io." + field[:-2], {}).get("self_s", 0.0)
        elif field == "unconverged_frac":
            a = agg.get(key, {})
            out[name] = a["unconverged"] / a["samples"] if a.get("samples") else 0.0
        else:
            out[name] = agg.get(key, {}).get(field, 0)
    return out
