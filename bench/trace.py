"""Outside-in layer tracing: timing wrappers on the engine's entry points.

Nothing here lives in ``src/``.  :class:`Tracer` replaces class attributes
(``TransitionKernel.enabled``) and module functions (``repro.core.generate``,
every ``repro.*`` binding of the same object) with wrappers that keep a span
stack, and restores every original afterwards.  Hot calls are aggregated
per (cell, layer) as calls / total seconds / self seconds; coarse spans are
also kept one by one (name, start, end, parent, cell).  A layer's self time
is its span minus the part its child spans cover, so within one cell the
self times add up to the cell's span exactly.

A probe whose target no longer exists is skipped, its metrics read ``None``
and its name is listed in ``probes_missing``; it never fails a run.

What cannot be seen from outside: the per-transition apply handlers
(``plan[0]``, bound inside ``TransitionKernel``) and the search driver loop
have no public entry point, so their time stays in ``search.self_s``, and
the parallel workers' own layers are counted in the worker processes where
nobody reads them (only the parent-side ``ShmEngine`` spans are reported).
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

CELL_LAYER = "bench.cell"


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point: ``module[:Class].attr`` timed as *layer*."""

    layer: str
    module: str
    owner: str | None  # class name inside *module*, or None for a function
    attr: str
    coarse: bool = False  # keep each span individually, not only the sums
    hook: str | None = None  # name of a Tracer method fed (args, result)


PROBES = (
    Probe("protocols.load", "repro.protocols", None, "load", coarse=True),
    Probe("core.generate", "repro.core", None, "generate", coarse=True,
          hook="_count_generated"),
    Probe("core.compile_spec", "repro.core", "GeneratedProtocol", "compiled",
          coarse=True),
    Probe("backends.emit_murphi", "repro.backends", None, "emit_murphi",
          coarse=True, hook="_count_murphi"),
    Probe("system.build", "repro.system", "System", "__init__", coarse=True),
    Probe("codec.build", "repro.system", "System", "codec"),
    Probe("kernel.build", "repro.system", "System", "kernel", coarse=True),
    Probe("vectorized.build", "repro.system", "System", "vectorized_kernel",
          coarse=True),
    Probe("verify", "repro.verification", None, "verify", coarse=True),
    Probe("kernel.enabled", "repro.system", "TransitionKernel", "enabled"),
    Probe("kernel.check", "repro.system", "TransitionKernel", "check"),
    Probe("kernel.is_quiescent", "repro.system", "TransitionKernel", "is_quiescent"),
    Probe("codec.pack", "repro.system", "StateCodec", "pack"),
    Probe("codec.encode", "repro.system", "StateCodec", "encode"),
    Probe("codec.decode", "repro.system", "StateCodec", "decode"),
    Probe("codec.relabel_via_tables", "repro.system", "StateCodec",
          "relabel_via_tables"),
    Probe("canonical.canonicalize", "repro.verification.engine.canonical",
          "EncodedCanonicalizer", "canonicalize", hook="_count_identity"),
    Probe("canonical.orbit_for", "repro.verification.engine.canonical",
          "EncodedCanonicalizer", "orbit_for"),
    Probe("store.intern", "repro.verification", "StateStore", "intern",
          hook="_count_intern"),
    Probe("store.intern_children", "repro.verification", "StateStore",
          "intern_children", hook="_count_intern_children"),
    Probe("store.intern_batch", "repro.verification", "StateStore",
          "intern_batch", hook="_count_intern_batch"),
    Probe("vectorized.collect_level", "repro.system", "VectorizedKernel",
          "collect_level", hook="_count_rows"),
    Probe("vectorized.assemble", "repro.system", "VectorizedKernel", "assemble"),
    Probe("vectorized.check_level", "repro.system", "VectorizedKernel",
          "check_level"),
    Probe("parallel.spinup", "repro.verification.engine", "ShmEngine", "spinup",
          coarse=True),
    Probe("parallel.drive", "repro.verification.engine", "ShmEngine", "drive",
          coarse=True),
    Probe("parallel.round", "repro.verification.engine", "ShmEngine", "_round",
          coarse=True),
    Probe("parallel.shutdown", "repro.verification.engine", "ShmEngine",
          "shutdown", coarse=True),
)


class Tracer:
    """Span stack + aggregated layer table for one traced run."""

    def __init__(self, probes=PROBES, extra_modules=()):
        self.probes = tuple(probes)
        #: Non-``repro`` modules whose bindings of a patched function are
        #: patched too (the harness's own ``from repro.core import generate``).
        self.extra_modules = tuple(extra_modules)
        self.probes_missing: list[str] = []
        #: (cell id, layer) -> [calls, total seconds, self seconds]
        self.table: dict[tuple[str, str], list] = {}
        #: (cell id, counter name) -> number, fed by the probe hooks
        self.counters: dict[tuple[str, str], float] = {}
        self.spans: list[dict] = []
        self.cell: str | None = None
        self._stack: list[float] = []  # child seconds of each open span
        self._open: list[int] = []  # indices of open coarse spans
        self._patched: list[tuple[object, str, object]] = []

    # -- install / restore -------------------------------------------------------
    def install(self) -> None:
        """Wrap every probe target that exists; list the rest as missing."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for probe in self.probes:
            try:
                module = importlib.import_module(probe.module)
                owner = getattr(module, probe.owner) if probe.owner else None
                original = (
                    vars(owner)[probe.attr]
                    if owner is not None
                    else getattr(module, probe.attr)
                )
            except (ImportError, AttributeError, KeyError):
                self.probes_missing.append(probe.layer)
                continue
            if not callable(original):
                self.probes_missing.append(probe.layer)
                continue
            hook = getattr(self, probe.hook) if probe.hook else None
            wrapper = self._wrap(original, probe.layer, probe.coarse, hook)
            if owner is not None:
                self._patch(owner, probe.attr, original, wrapper)
                continue
            # A module function is re-exported by name: patch every binding.
            modules = [
                mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == "repro" or name.startswith("repro."))
            ]
            for mod in modules + list(self.extra_modules):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back (safe to call twice)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- spans -------------------------------------------------------------------
    def _wrap(self, fn: Callable, layer: str, coarse: bool, hook) -> Callable:
        tracer = self
        stack = self._stack
        table = self.table
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._begin(layer) if coarse else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                row = table.get((tracer.cell, layer))
                if row is None:
                    row = table[(tracer.cell, layer)] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - children
                if span is not None:
                    tracer._end(span, start, elapsed)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _begin(self, layer: str) -> int:
        index = len(self.spans)
        self.spans.append({
            "name": layer,
            "cell": self.cell,
            "parent": self._open[-1] if self._open else None,
            "start": None,
            "end": None,
        })
        self._open.append(index)
        return index

    def _end(self, index: int, start: float, elapsed: float) -> None:
        self._open.pop()
        span = self.spans[index]
        span["start"] = start
        span["end"] = start + elapsed

    @contextmanager
    def cell_span(self, cell_id: str):
        """The root span of one cell; every wrapped call inside nests under it."""
        self.cell = cell_id
        span = self._begin(CELL_LAYER)
        self._stack.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            children = self._stack.pop()
            row = self.table.setdefault((cell_id, CELL_LAYER), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += elapsed
            row[2] += elapsed - children
            self._end(span, start, elapsed)
            self.cell = None

    # -- hooks (counts taken where the work happens) -------------------------------
    def _add(self, name: str, amount) -> None:
        key = (self.cell, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    def _count_generated(self, args, generated) -> None:
        self._add("generate.states",
                  generated.cache.num_states + generated.directory.num_states)
        self._add("generate.transitions",
                  generated.cache.num_transitions + generated.directory.num_transitions)

    def _count_murphi(self, args, text) -> None:
        self._add("emit_murphi.bytes", len(text.encode()))

    def _count_identity(self, args, result) -> None:
        # canonicalize(self, enc) -> (canonical enc, permutation applied)
        if result[1] == args[0].identity:
            self._add("canonicalize.identity", 1)

    def _count_intern(self, args, result) -> None:
        self._add("intern.attempts", 1)
        self._add("intern.new", 1 if result[1] else 0)

    def _count_intern_children(self, args, result) -> None:
        self._add("intern.attempts", len(args[2]))
        self._add("intern.new", len(result))

    def _count_intern_batch(self, args, result) -> None:
        self._add("intern.attempts", len(args[1]))
        self._add("intern.new", sum(1 for new_id in result if new_id >= 0))

    def _count_rows(self, args, result) -> None:
        self._add("vectorized.rows", len(args[1]))  # collect_level(self, ids, F, sids)

    # -- summaries ---------------------------------------------------------------
    def layer_totals(self) -> dict[str, list]:
        """layer -> [calls, total seconds, self seconds], summed over cells."""
        out: dict[str, list] = {}
        for (_cell, layer), (calls, total, own) in self.table.items():
            row = out.setdefault(layer, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        return out

    def counter_totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (_cell, name), value in self.counters.items():
            out[name] = out.get(name, 0) + value
        return out


# -- the per-layer metrics ---------------------------------------------------------

#: (name, unit, better).  BENCHMARK.json's ``per_layer`` lists exactly these.
#: ``x_s`` is the layer's inclusive seconds per traced pass unless noted in
#: bench/README.md (``kernel.build_s`` and ``search.self_s`` are self times).
METRICS = (
    ("protocols.load_s", "s", "lower"),
    ("core.generate_s", "s", "lower"),
    ("core.generate.states", "count", "lower"),
    ("core.generate.transitions", "count", "lower"),
    ("core.compile_spec_s", "s", "lower"),
    ("backends.emit_murphi_s", "s", "lower"),
    ("backends.emit_murphi.bytes", "bytes", "lower"),
    ("system.build_s", "s", "lower"),
    ("codec.build_s", "s", "lower"),
    ("kernel.build_s", "s", "lower"),
    ("vectorized.build_s", "s", "lower"),
    ("kernel.enabled_s", "s", "lower"),
    ("kernel.enabled.calls", "count", "lower"),
    ("kernel.check_s", "s", "lower"),
    ("kernel.check.calls", "count", "lower"),
    ("kernel.is_quiescent_s", "s", "lower"),
    ("kernel.is_quiescent.calls", "count", "lower"),
    ("codec.pack_s", "s", "lower"),
    ("codec.pack.calls", "count", "lower"),
    ("codec.encode.calls", "count", "lower"),
    ("codec.decode.calls", "count", "lower"),
    ("canonical.canonicalize_s", "s", "lower"),
    ("canonical.canonicalize.calls", "count", "lower"),
    ("canonical.orbit_for_s", "s", "lower"),
    ("canonical.orbit_for.calls", "count", "lower"),
    ("canonical.identity_share", "ratio", "higher"),
    ("codec.relabel_via_tables_s", "s", "lower"),
    ("codec.relabel_via_tables.calls", "count", "lower"),
    ("store.intern_s", "s", "lower"),
    ("store.intern.calls", "count", "lower"),
    ("store.intern_children_s", "s", "lower"),
    ("store.intern_children.calls", "count", "lower"),
    ("store.intern_batch_s", "s", "lower"),
    ("store.intern_batch.calls", "count", "lower"),
    ("store.new_share", "ratio", "higher"),
    ("search.dup_share", "ratio", "lower"),
    ("vectorized.collect_level_s", "s", "lower"),
    ("vectorized.collect_level.calls", "count", "lower"),
    ("vectorized.assemble_s", "s", "lower"),
    ("vectorized.check_level_s", "s", "lower"),
    ("vectorized.rows", "count", "lower"),
    ("vectorized.fallback_transitions", "count", "lower"),
    ("parallel.spinup_s", "s", "lower"),
    ("parallel.drive_s", "s", "lower"),
    ("parallel.drive.calls", "count", "lower"),
    ("parallel.shutdown_s", "s", "lower"),
    ("parallel.parent_cpu_s", "s", "lower"),
    ("parallel.worker_cpu_s", "s", "lower"),
    ("parallel.worker_peak_rss_mb", "MB", "lower"),
    ("parallel.steals", "count", "lower"),
    ("parallel.balance", "ratio", "higher"),
    ("search.self_s", "s", "lower"),
    ("verify.total_s", "s", "lower"),
    ("trace.layer_sum_share", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
)

#: Metrics read as the layer's *self* seconds; every other ``x_s`` is inclusive.
_SELF_TIME = {"kernel.build_s": "kernel.build", "search.self_s": "verify"}
_RENAMED = {"verify.total_s": "verify", "parallel.drive.calls": "parallel.round"}


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float | None]:
    """The table-derived metrics, per traced pass (``None`` = probe missing).

    Engine-reported and process-level metrics (``search.dup_share``,
    ``vectorized.fallback_transitions``, ``parallel.*_cpu_s`` ...) are added
    by the worker, which owns those readings.
    """
    totals = tracer.layer_totals()
    counters = tracer.counter_totals()
    missing = set(tracer.probes_missing)
    out: dict[str, float | None] = {}
    for name, _unit, _better in METRICS:
        if name in _SELF_TIME:
            layer, column = _SELF_TIME[name], 2
        elif name.endswith(".calls"):
            layer, column = _RENAMED.get(name, name[: -len(".calls")]), 0
        elif name.endswith("_s"):
            layer, column = _RENAMED.get(name, name[:-2]), 1
        else:
            continue
        if layer in missing:
            out[name] = None
        else:
            out[name] = totals.get(layer, [0, 0.0, 0.0])[column] / passes

    def ratio(name: str, probe: str, part: float, whole: float) -> None:
        out[name] = None if probe in missing else (part / whole if whole else 0.0)

    ratio("canonical.identity_share", "canonical.canonicalize",
          counters.get("canonicalize.identity", 0),
          totals.get("canonical.canonicalize", [0])[0])
    ratio("store.new_share", "store.intern",
          counters.get("intern.new", 0), counters.get("intern.attempts", 0))
    for name, counter, probe in (
        ("core.generate.states", "generate.states", "core.generate"),
        ("core.generate.transitions", "generate.transitions", "core.generate"),
        ("backends.emit_murphi.bytes", "emit_murphi.bytes", "backends.emit_murphi"),
        ("vectorized.rows", "vectorized.rows", "vectorized.collect_level"),
    ):
        out[name] = None if probe in missing else counters.get(counter, 0) / passes
    return out


def layer_self_seconds(tracer: Tracer) -> float:
    """Sum of every layer's self time (the cell glue included)."""
    return sum(row[2] for row in tracer.table.values())
