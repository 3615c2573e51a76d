"""Spans around calls into mdsigma's public functions, and the per-layer
metrics derived from them.

The tracer wraps every function named in a module's ``__all__`` (plus
``DitherStream.draw``) by rebinding each name in every mdsigma module that
holds it, so calls between modules are timed as well.  Nothing under
``src/`` changes.  Spans live in memory: (name, start, end, parent).

Layer times are exclusive: a span's self time (its duration minus its
children's) goes to the metric of its function, or of its nearest ancestor
that has one.  Everything inside the lambda bisection counts as bisection,
so ``shaping.design_s`` holds only the designs made outside it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field

from oracles import check_loop

MB = float(1 << 20)

TRACED_MODULES = ("dsp", "ecdq", "shaping", "theory", "codec", "harness")

# function -> layer metric; functions not listed charge their nearest
# ancestor's metric
METRIC_OF = {
    "codec.delta_sigma_loop": "codec.loop_s",
    "codec.encode": "codec.encode_s",
    "codec.decode_central": "codec.decode_central_s",
    "codec.decode_side": "codec.decode_side_s",
    "codec.decode_subset_k4": "codec.decode_subset_s",
    "codec.reconstruction_mse": "codec.mse_s",
    "dsp.ideal_upsample": "dsp.upsample_s",
    "dsp.ideal_lowpass_downsample": "dsp.lowpass_downsample_s",
    "dsp.ideal_fractional_delay": "dsp.fractional_delay_s",
    "ecdq.DitherStream.draw": "ecdq.dither_s",
    "harness.estimate_index_entropy": "harness.entropy_s",
    "harness.run": "harness.self_s",
    "shaping.find_lambda_for_ratio": "shaping.find_lambda_s",
    "shaping.design_yule_walker": "shaping.design_s",
    "shaping.design_multiband": "shaping.design_s",
    "shaping.min_phase_check": "shaping.min_phase_s",
}
ABSORBING = ("shaping.find_lambda_for_ratio",)

LAYER_TIMES = (
    "codec.encode_s",
    "codec.decode_central_s",
    "codec.decode_side_s",
    "codec.decode_subset_s",
    "codec.mse_s",
    "dsp.upsample_s",
    "dsp.lowpass_downsample_s",
    "dsp.fractional_delay_s",
    "ecdq.dither_s",
    "harness.entropy_s",
    "shaping.find_lambda_s",
    "shaping.design_s",
    "shaping.min_phase_s",
)


def _rss_bytes() -> int | None:
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return None


class RssSampler:
    """Samples this process's resident set on a thread while it runs."""

    def __init__(self, interval: float = 0.025):
        self.interval = interval
        self.start_bytes = self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = None

    def __enter__(self):
        self.start_bytes = self.peak_bytes = _rss_bytes() or 0
        self._stop.clear()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self):
        while not self._stop.wait(self.interval):
            rss = _rss_bytes()
            if rss is not None and rss > self.peak_bytes:
                self.peak_bytes = rss

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        rss = _rss_bytes()
        if rss is not None and rss > self.peak_bytes:
            self.peak_bytes = rss

    @property
    def added_bytes(self) -> int:
        return self.peak_bytes - self.start_bytes


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    round: int
    tail: float = 0.0  # wrapper time outside [start, end]


@dataclass
class RoundCounters:
    loop_samples: int = 0
    loop_peak_bytes: int = 0
    trace_bytes: int = 0
    loop_problems: list = field(default_factory=list)


class Tracer:
    """Installs timing wrappers into the mdsigma modules while active."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.counters: dict[int, RoundCounters] = {}
        self.round = -1
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def _targets(self):
        for mod_name in TRACED_MODULES:
            mod = getattr(self.package, mod_name)
            for name in mod.__all__:
                obj = getattr(mod, name)
                if callable(obj) and not isinstance(obj, type):
                    yield f"{mod_name}.{name}", obj

    def install(self):
        wrappers = {id(fn): (fn, self._wrap(qual, fn)) for qual, fn in self._targets()}
        prefix = self.package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        stream = self.package.ecdq.DitherStream
        draw = stream.draw
        self._patches.append((stream, "draw", draw))
        stream.draw = self._wrap("ecdq.DitherStream.draw", draw)

    def uninstall(self):
        while self._patches:
            owner, attr, val = self._patches.pop()
            setattr(owner, attr, val)

    def start_round(self, index: int):
        self.round = index
        self.counters[index] = RoundCounters()

    # -- spans -------------------------------------------------------------

    def _wrap(self, qual: str, fn):
        tracer = self
        is_loop = qual == "codec.delta_sigma_loop"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            counters = tracer.counters[tracer.round]
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(qual, 0.0, 0.0, parent, tracer.round)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            sampler = RssSampler() if is_loop else contextlib.nullcontext()
            try:
                with sampler:
                    span.start = time.perf_counter()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        span.end = time.perf_counter()
            finally:
                tracer._stack.pop()
            if is_loop:
                step = args[3] if len(args) > 3 else kwargs["step"]
                counters.loop_samples += int(result.indices.shape[0])
                counters.loop_peak_bytes = max(counters.loop_peak_bytes, sampler.added_bytes)
                counters.loop_problems += check_loop(result, float(step))
            elif qual == "codec.encode":
                packets, trace = result
                held = sum(
                    v.nbytes for v in vars(trace).values() if hasattr(v, "nbytes")
                ) + sum(pkt.indices.nbytes for pkt in packets)
                counters.trace_bytes = max(counters.trace_bytes, held)
            # the wrapper's own time (sampler, checks) is tracing overhead,
            # kept out of every layer
            span.tail = time.perf_counter() - entered - (span.end - span.start)
            return result

        return traced

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self, round_index: int, round_seconds: float) -> dict:
        """Per-layer metrics of one traced round whose timed work took
        ``round_seconds``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.round == round_index and s.parent >= 0:
                child_time[s.parent] += s.end - s.start + s.tail
        totals = {name: 0.0 for name in LAYER_TIMES}
        totals["codec.loop_s"] = 0.0
        for i, s in enumerate(spans):
            if s.round != round_index:
                continue
            metric = None
            j = i
            while j >= 0:
                name = spans[j].name
                if name in ABSORBING:
                    metric = METRIC_OF[name]
                elif metric is None:
                    metric = METRIC_OF.get(name)
                j = spans[j].parent
            if metric is not None and metric != "harness.self_s":
                totals[metric] += (s.end - s.start) - child_time[i]
        c = self.counters[round_index]
        loop_s = totals.pop("codec.loop_s")
        out = {
            "codec.loop_ns_per_sample": 1e9 * loop_s / c.loop_samples if c.loop_samples else 0.0,
            "codec.loop_peak_mb": c.loop_peak_bytes / MB,
            "codec.trace_mb": c.trace_bytes / MB,
        }
        out.update(totals)
        tails = sum(s.tail for s in spans if s.round == round_index)
        out["harness.self_s"] = round_seconds - tails - loop_s - sum(totals.values())
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                     "round": s.round, "tail": s.tail}
                    for s in self.spans
                ],
                fh,
            )
