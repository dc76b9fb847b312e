"""Run-time tracing of pilab's layers, installed from outside the package.

``install()`` wraps every public function and public method of each pilab
module, and rebinds each wrapped name in every pilab namespace that imported
it (``cli.write_digit_file``, ``cf.truncate``, ...).  Each call becomes a span
with a name, a layer (the defining module), start, end and parent.  Streams
that ``constants`` and ``constructors`` create get their producer callbacks
wrapped too, so digits computed when a stream later grows are charged to the
layer that computes them rather than to ``radix``.

Calls made hundreds of thousands of times (``factorize``, ``is_prime``) are
counted, not timed; their time stays with the calling span.

Self time per layer is exclusive time: a span's duration minus the time its
child spans cover.  Spans stay in memory until ``Recorder.dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

LAYERS = ("radix", "constants", "primes", "constructors", "cf", "groups", "spectra", "cli")
COUNT_ONLY = {"groups.factorize", "primes.is_prime"}
# streams built in these modules compute their digits inside the producer
PRODUCER_LAYERS = ("constants", "constructors")


class Recorder:
    """Spans and counters for one traced process."""

    def __init__(self):
        # [name, layer, start, end, parent, resumes, busy]; a generator span is
        # resumed once per item, so busy can be less than end - start
        self.spans: list[list] = []
        self.stack: list[list] = []  # [span index, entered at, child time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def open(self, name: str, layer: str) -> int:
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append([name, layer, None, None, parent, 0, 0.0])
        return len(self.spans) - 1

    def enter(self, idx: int) -> None:
        now = time.perf_counter()
        span = self.spans[idx]
        if span[2] is None:
            span[2] = now
        self.stack.append([idx, now, 0.0])

    def exit(self) -> None:
        now = time.perf_counter()
        idx, entered, child = self.stack.pop()
        span = self.spans[idx]
        elapsed = now - entered
        span[3] = now
        span[5] += 1
        span[6] += elapsed
        self.self_s[span[1]] += elapsed - child
        if self.stack:
            self.stack[-1][2] += elapsed

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [
                        dict(zip(("name", "layer", "start", "end", "parent", "resumes", "busy"), s))
                        for s in self.spans
                    ],
                    "self_s": dict(self.self_s),
                    "counts": dict(self.counts),
                },
                fh,
            )


def _probe(rec: Recorder, name: str, args, kwargs, result) -> None:
    """Work counts read off a layer call's arguments and result."""
    if name == "radix.write_digit_file":
        rec.counts["radix.bytes_written"] += os.path.getsize(args[0])
    elif name == "radix.read_digit_file":
        rec.counts["radix.bytes_read"] += os.path.getsize(args[0])
    elif name == "radix.truncate":
        rec.counts["radix.truncate_calls"] += 1
    elif name.startswith("cf.audit_lemma_"):
        rec.counts["cf.audit_rows"] += len(result.rows)
    elif name == "groups.coset_structure":
        rec.counts["groups.coset_elements"] += result.g_size + result.h_size
    elif name == "spectra.expsum_magnitudes":
        rec.counts["spectra.expsum_bins"] += len(result)
    elif name == "spectra.shifted_points":
        rec.counts["spectra.points"] += len(result)
    elif name == "spectra.block_frequency":
        rec.counts["spectra.block_windows"] += result.windows
    elif name == "primes.primes_upto":
        limit = args[0] if args else kwargs["limit"]
        rec.counts["primes.sieve_limit"] = max(rec.counts["primes.sieve_limit"], limit)


def _timed(rec: Recorder, fn, name: str, layer: str):
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            idx = rec.open(name, layer)
            while True:
                rec.enter(idx)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    rec.exit()
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(rec.open(name, layer))
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        _probe(rec, name, args, kwargs, result)
        return result

    return wrapper


def _counted(rec: Recorder, fn, name: str):
    key = name + "_calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _wrap(rec: Recorder, fn, name: str, layer: str):
    return _counted(rec, fn, name) if name in COUNT_ONLY else _timed(rec, fn, name, layer)


def _producer_stream(rec: Recorder, base: type, layer: str) -> type:
    """A DigitStream whose producer runs as a ``<layer>.produce`` span."""

    def wrap_producer(produce):
        @functools.wraps(produce)
        def traced(n):
            rec.enter(rec.open(f"{layer}.produce", layer))
            try:
                out = produce(n)
            finally:
                rec.exit()
            rec.counts[f"{layer}.digits"] += len(out)
            return out

        return traced

    class ProducerStream(base):
        def __init__(self, b, produce, *args, **kwargs):
            super().__init__(b, wrap_producer(produce), *args, **kwargs)

    # finite copies (cache writes) are plain streams, not released digits
    ProducerStream.from_digits = staticmethod(base.from_digits)
    ProducerStream.from_rational = staticmethod(base.from_rational)
    return ProducerStream


def install() -> Recorder:
    """Wrap pilab's layers in place and return the recorder collecting spans."""
    rec = Recorder()
    modules = {layer: importlib.import_module(f"pilab.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped = _wrap(rec, obj, f"{layer}.{attr}", layer)
                replaced[id(obj)] = wrapped
                setattr(mod, attr, wrapped)
            elif inspect.isclass(obj):
                _wrap_methods(rec, obj, layer)
    # rebind the names other modules imported, e.g. cli.write_digit_file
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
    stream_cls = modules["radix"].DigitStream
    for layer in PRODUCER_LAYERS:
        modules[layer].DigitStream = _producer_stream(rec, stream_cls, layer)
    return rec


def _wrap_methods(rec: Recorder, cls: type, layer: str) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(_wrap(rec, raw.__func__, name, layer)))
        elif isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(_wrap(rec, raw.__func__, name, layer)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, _wrap(rec, raw, name, layer))


def _busy(spans: list[dict], names: set[str], parent_layer: str | None = None) -> float:
    """Busy time of the spans with these names that were not called directly
    from one of them, optionally only those called from a ``parent_layer`` span."""
    total = 0.0
    for span in spans:
        if span["name"] not in names:
            continue
        parent = spans[span["parent"]] if span["parent"] >= 0 else None
        if parent is not None and parent["name"] in names:
            continue
        if parent_layer is not None and (parent is None or parent["layer"] != parent_layer):
            continue
        total += span["busy"]
    return total


def layer_metrics(data: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from a ``Recorder.dump`` file."""
    spans, self_s = data["spans"], data["self_s"]
    counts = data["counts"]
    constants_s = self_s.get("constants", 0.0)
    released = counts.get("constants.digits", 0)
    return {
        "constants.self_s": constants_s,
        "constants.digits_released": released,
        "constants.digits_per_s": released / constants_s if constants_s else 0.0,
        "constants.cache_read_s": _busy(
            spans, {"radix.read_digit_file", "radix.DigitStream.prefix_string"}, "constants"
        ),
        "cf.self_s": self_s.get("cf", 0.0),
        "cf.audit_rows": counts.get("cf.audit_rows", 0),
        "radix.self_s": self_s.get("radix", 0.0),
        "radix.write_s": _busy(spans, {"radix.write_digit_file"}),
        "radix.read_s": _busy(spans, {"radix.read_digit_file"}),
        "radix.bytes_written": counts.get("radix.bytes_written", 0),
        "radix.bytes_read": counts.get("radix.bytes_read", 0),
        "radix.truncate_calls": counts.get("radix.truncate_calls", 0),
        "constructors.self_s": self_s.get("constructors", 0.0),
        "constructors.digits": counts.get("constructors.digits", 0),
        "primes.self_s": self_s.get("primes", 0.0),
        "primes.sieve_limit": counts.get("primes.sieve_limit", 0),
        "groups.self_s": self_s.get("groups", 0.0),
        "groups.factorize_calls": counts.get("groups.factorize_calls", 0),
        "groups.coset_elements": counts.get("groups.coset_elements", 0),
        "spectra.expsum_s": _busy(
            spans, {"spectra.subgroup_expsum", "spectra.expsum_magnitudes", "spectra.parseval_sum"}
        ),
        "spectra.expsum_bins": counts.get("spectra.expsum_bins", 0),
        "spectra.shift_s": _busy(spans, {"spectra.shifted_points"}),
        "spectra.points": counts.get("spectra.points", 0),
        "spectra.block_s": _busy(spans, {"spectra.block_frequency"}),
        "spectra.block_windows": counts.get("spectra.block_windows", 0),
        "cli.self_s": self_s.get("cli", 0.0),
    }


def top_spans(data: dict, count: int) -> list[tuple[str, float]]:
    """The span names with the most busy time; a span called directly from a
    span of the same name is not counted twice."""
    spans = data["spans"]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        parent = span["parent"]
        if parent < 0 or spans[parent]["name"] != span["name"]:
            totals[span["name"]] += span["busy"]
    return sorted(totals.items(), key=lambda item: -item[1])[:count]
