"""In-memory span tracer that wraps the program's public functions from the
outside, without editing the program.

Every public function of the package's modules is replaced, in every module
that binds it, by a wrapper that records one span: name, parent span, start
and end. Self time is a span's duration minus the durations of its direct
children, so summed over all spans it telescopes to the time covered by the
root spans. `restore` puts the original functions back.
"""

from __future__ import annotations

import builtins
import inspect
import os
import time
from array import array

import numpy as np

# Spans whose individual durations are kept for percentiles.
PERCENTILE_SPANS = (
    "optics.apply_beamsplitter",
    "bell.evaluate_settings",
    "scan.evaluate_point",
)

OUTPUT_SPAN = "cli.output"


class Tracer:
    """Wraps the public functions of `modules` (a list of the package's
    module objects, the package itself included) while installed."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self._injected: list[object] = []
        self.reset()

    # -- span recording ----------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def reset(self) -> None:
        """Drop recorded spans and the counters the hooks fill."""
        for arr in (self.parent, self.name, self.t0, self.t1):
            del arr[:]
        self.stack[:] = [-1]
        self.bytes_moved: dict[str, int] = {}
        self.state_bytes_max = 0
        self.cutoffs: list[int] = []
        self.output_bytes = 0

    def open(self, nid: int) -> int:
        sid = len(self.t0)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.t1.append(0.0)
        self.stack.append(sid)
        self.t0.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.t1[sid] = time.perf_counter()
        self.stack.pop()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, span: str, hook):
        nid = self.name_id(span)
        open_, close = self.open, self.close

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's own work between
            # items is not charged to the generator
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = open_(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(sid)
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            sid = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result
        return traced

    def _state_hook(self, span, args, kwargs, result):
        amps = getattr(result, "amps", None)
        if amps is not None:
            self.state_bytes_max = max(self.state_bytes_max, amps.nbytes)

    def _bytes_hook(self, span, args, kwargs, result):
        """Computed bytes moved: input plus output amplitude array sizes."""
        state = args[0] if args else kwargs["state"]
        moved = state.amps.nbytes + result.amps.nbytes
        self.bytes_moved[span] = self.bytes_moved.get(span, 0) + moved
        self._state_hook(span, args, kwargs, result)

    def _input_hook(self, span, args, kwargs, result):
        self.cutoffs.append(result.cutoffs[0])
        self._state_hook(span, args, kwargs, result)

    def _hook_for(self, span: str):
        if span in ("optics.apply_beamsplitter", "fock.reorder_modes"):
            return self._bytes_hook
        if span == "optics.build_input_state":
            return self._input_hook
        if span.startswith(("fock.", "optics.")):
            return self._state_hook
        return None

    def _output_open(self, file, mode="r", *args, **kwargs):
        """`open` as seen by the cli module: files opened for writing get one
        span from entering to leaving their `with` block, which covers
        formatting and writing the output."""
        fh = builtins.open(file, mode, *args, **kwargs)
        if "w" not in mode:
            return fh
        return _OutputFile(self, fh)

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                span = f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"
                wrappers[id(obj)] = self._wrap(obj, span, self._hook_for(span))
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
            if mod.__name__.endswith(".cli"):
                mod.open = self._output_open
                self._injected.append(mod)
        self.name_id(OUTPUT_SPAN)

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        for mod in self._injected:
            del mod.open
        self._saved.clear()
        self._injected.clear()

    # -- aggregation ---------------------------------------------------------

    def summarize(self) -> dict:
        """Per-name call counts and self times of the recorded spans, the
        time covered by root spans, and raw durations for PERCENTILE_SPANS."""
        n_names = len(self.names)
        # copies, so the arrays stay resizable after this returns
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        dur = np.frombuffer(self.t1, dtype=np.float64) \
            - np.frombuffer(self.t0, dtype=np.float64)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        self_time = dur - children
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_time, minlength=n_names)
        durations = {}
        for span in PERCENTILE_SPANS:
            if span in self._ids:
                durations[span] = dur[name == self._ids[span]].copy()
        return {
            "calls": {s: int(calls[i]) for i, s in enumerate(self.names)},
            "self_s": {s: float(self_s[i]) for i, s in enumerate(self.names)},
            "root_s": float(dur[~has_parent].sum()),
            "spans": int(len(dur)),
            "durations": durations,
        }


class _OutputFile:
    """Context manager around a file opened for writing; see
    Tracer._output_open."""

    def __init__(self, tracer: Tracer, fh):
        self.tracer = tracer
        self.fh = fh
        self.sid = -1

    def __enter__(self):
        self.sid = self.tracer.open(self.tracer.name_id(OUTPUT_SPAN))
        return self.fh.__enter__()

    def __exit__(self, *exc):
        try:
            return self.fh.__exit__(*exc)
        finally:
            self.tracer.close(self.sid)
            self.tracer.output_bytes += os.path.getsize(self.fh.name)
