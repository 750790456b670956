"""Spans around the public functions of each roughfsm module.

The tracer is installed from outside the library: every traced function
is replaced by a wrapper in its defining module and in every roughfsm
module that imported it by name, so calls between layers pass through
the wrappers too. `Machine.__eq__` is wrapped on the class. Uninstalling
puts the original objects back.

Each call becomes a span (name, start, end, parent span, op id). Spans
stay in memory and are written once, at the end of a run. Self time is
a span's duration minus the time its child spans cover; with one thread
the spans nest strictly, so that is the duration minus the sum of the
children's durations, accumulated as the spans close.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("core", "machine", "morphism", "products", "propositions", "textio", "generate", "cli")

# Public functions left unwrapped, with the reason.
UNTRACED = {
    # Called once per printed name; a span would cost more than the call
    # and swamp the self time of every caller.
    "core.value_name",
    # The body of parse_machine; spanning it separately would move all of
    # the parse time out of textio.parse_machine.
    "textio.parse_document",
}

# cli has no __all__; main is its one entry point. The cmd_* handlers run
# inside main and count towards its self time.
CLI_TRACED = ("main",)


def _module(layer: str):
    return importlib.import_module(f"roughfsm.{layer}")


def traced_names() -> list[str]:
    """Qualified names ("layer.function") of every function to wrap."""
    out = []
    for layer in LAYERS:
        module = _module(layer)
        names = CLI_TRACED if layer == "cli" else module.__all__
        for name in names:
            obj = getattr(module, name)
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            qualified = f"{layer}.{name}"
            if qualified not in UNTRACED:
                out.append(qualified)
    return out


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list = []
        self.op = None
        self.calls = Counter()
        self.self_time = defaultdict(float)
        self.edges = Counter()
        self.counts = Counter()
        self._restore: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def parent_name(self):
        return self.names[self._stack[-1][2]] if self._stack else None

    def _enter(self, nid: int) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0.0, nid, parent]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float):
        index, child_time, nid, parent = frame
        self._stack.pop()
        self.spans[index] = (nid, start, end, parent, self.op)
        duration = end - start
        self.self_time[nid] += duration - child_time
        self.calls[nid] += 1
        if self._stack:
            outer = self._stack[-1]
            outer[1] += duration
            self.edges[(outer[2], nid)] += 1

    def wrap(self, name: str, fn, hook=None):
        """A wrapper recording one span per call of `fn`.

        `hook(tracer, parent_name, args, kwargs, result)` adds counters; it
        runs after the span closes, so its own cost is not in the span.
        """
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(nid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, start, perf_counter())
            if hook is not None:
                hook(tracer, tracer.parent_name(), args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function everywhere roughfsm refers to it."""
        package = [m for n, m in sys.modules.items() if n == "roughfsm" or n.startswith("roughfsm.")]
        for qualified in traced_names():
            layer, name = qualified.split(".")
            original = getattr(_module(layer), name)
            wrapped = self.wrap(qualified, original, HOOKS.get(qualified))
            for module in package:
                if module.__dict__.get(name) is original:
                    self._restore.append((module, name, original))
                    setattr(module, name, wrapped)
        machine_class = _module("machine").Machine
        original_eq = machine_class.__dict__["__eq__"]
        self._restore.append((machine_class, "__eq__", original_eq))
        machine_class.__eq__ = self.wrap("machine.Machine.eq", original_eq)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def span(self, name: str):
        """A context manager for a span opened by the benchmark itself."""
        return _Span(self, self.name_id(name))

    def calls_of(self, name: str) -> int:
        return self.calls[self._ids[name]] if name in self._ids else 0

    def self_s(self, name: str) -> float:
        return self.self_time[self._ids[name]] if name in self._ids else 0.0

    def edge_count(self, parent: str, child: str) -> int:
        if parent not in self._ids or child not in self._ids:
            return 0
        return self.edges[(self._ids[parent], self._ids[child])]

    def write(self, path, extra: dict):
        """Write every span, once, as gzip-compressed JSON."""
        doc = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
        }
        doc.update(extra)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.frame = self.tracer._enter(self.nid)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.frame, self.start, perf_counter())
        return False


# ---------------------------------------------------------------------------
# Counters recorded at the layer boundaries.


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _word_letters(tracer, parent, args, kwargs, result):
    tracer.counts["machine.word_step.letters"] += len(_arg(args, kwargs, 2, "word"))


def _block_start_states(tracer, parent, args, kwargs, result):
    current = _arg(args, kwargs, 1, "current")
    tracer.counts["machine.block_word_step.start_states"] += sum(
        len(current.space.blocks[i]) for i in current.block_ids
    )


def _search_found(tracer, parent, args, kwargs, result):
    tracer.counts["morphism.search_coverings.found"] += len(result)


def _product_entries(tracer, parent, args, kwargs, result):
    tracer.counts["products.entries"] += len(result.table)


def _parse_bytes(tracer, parent, args, kwargs, result):
    tracer.counts["textio.parse_machine.bytes"] += len(_arg(args, kwargs, 0, "text").encode("utf-8"))


def _serialize_bytes(tracer, parent, args, kwargs, result):
    tracer.counts["textio.serialize_machine.bytes"] += len(result.encode("utf-8"))


def _reports(tracer, parent, args, kwargs, result):
    # Count the reports handed out of the propositions layer, not the ones
    # run_claim_trials collects from its own witness calls.
    if parent is not None and parent.startswith("propositions."):
        return
    reports = result if isinstance(result, list) else [result]
    tracer.counts["propositions.reports"] += len(reports)
    tracer.counts["propositions.holds"] += sum(1 for r in reports if r.holds)


HOOKS = {
    "machine.word_step": _word_letters,
    "machine.block_word_step": _block_start_states,
    "morphism.search_coverings": _search_found,
    "products.full_direct": _product_entries,
    "products.restricted_direct": _product_entries,
    "products.general_direct": _product_entries,
    "products.wreath": _product_entries,
    "products.cascade": _product_entries,
    "textio.parse_machine": _parse_bytes,
    "textio.serialize_machine": _serialize_bytes,
    "propositions.run_claim_trials": _reports,
    "propositions.witness_restricted_in_full": _reports,
    "propositions.witness_wreath_exchange": _reports,
    "propositions.witness_cascade_in_wreath": _reports,
    "propositions.assoc_isomorphism": _reports,
    "propositions.lift_covering": _reports,
}


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics, as {name: (value, unit)}."""
    c = tracer.counts
    out = {}

    def calls(name):
        out[f"{name}.calls"] = (tracer.calls_of(name), "count")

    def self_s(name):
        out[f"{name}.self_s"] = (tracer.self_s(name), "s")

    for name in ("core.approximate", "core.is_definable"):
        calls(name)
        self_s(name)
    self_s("core.product_partition")

    calls("machine.word_step")
    out["machine.word_step.letters"] = (c["machine.word_step.letters"], "count")
    self_s("machine.word_step")
    calls("machine.block_word_step")
    out["machine.block_word_step.start_states"] = (c["machine.block_word_step.start_states"], "count")
    self_s("machine.block_word_step")
    calls("machine.make_machine")
    self_s("machine.make_machine")
    self_s("machine.Machine.eq")

    calls("morphism.check_covering")
    self_s("morphism.check_covering")
    out["morphism.check_covering.word_runs"] = (
        tracer.edge_count("morphism.check_covering", "machine.word_step"),
        "count",
    )
    self_s("morphism.check_isomorphism")
    calls("morphism.search_coverings")
    self_s("morphism.search_coverings")
    # Candidates are the map pairs the search hands to check_covering.
    candidates = tracer.edge_count("morphism.search_coverings", "morphism.check_covering")
    out["morphism.search_coverings.candidates"] = (candidates, "count")
    out["morphism.search_coverings.hit_ratio"] = (
        c["morphism.search_coverings.found"] / candidates if candidates else 0.0,
        "frac",
    )

    for kind in ("full_direct", "restricted_direct", "general_direct", "wreath", "cascade"):
        self_s(f"products.{kind}")
    out["products.entries"] = (c["products.entries"], "count")

    for name in ("textio.parse_machine", "textio.serialize_machine"):
        calls(name)
        out[f"{name}.bytes"] = (c[f"{name}.bytes"], "bytes")
        self_s(name)
    self_s("textio.render_tables")

    self_s("propositions.run_claim_trials")
    reports = c["propositions.reports"]
    out["propositions.reports"] = (reports, "count")
    out["propositions.holds_ratio"] = (c["propositions.holds"] / reports if reports else 0.0, "frac")

    self_s("generate.random_machine")
    calls("cli.main")
    self_s("cli.main")
    return out
