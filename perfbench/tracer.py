"""Span tracer that wraps the program's public functions from outside.

Installing the tracer replaces every public function of the traced modules
at every binding site: a name imported with ``from .x import f`` is a
separate binding in each importing module, so each one is patched.  The
public methods listed in ``TRACED_METHODS`` are patched on their class.
``cli._sweep_job`` is wrapped as the worker-process boundary of ``sweep``:
forked workers inherit the patched modules, record their own spans, and
write them to ``spill_dir`` after each job for the parent to merge.

A span is (name, start, end, self time, span id, parent id, parent pid,
pid, case id).  Spans stay in memory as a flat float array and are written
out once, by ``save``.  Self time is the span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import glob
import inspect
import os
import time
from array import array
from collections import Counter

import numpy as np

LAYER_MODULES = ("cli", "scenarios", "dynamics", "observables", "stats", "bounds", "linalg", "channels")
TRACED_METHODS = (("observables", "TimeDependentObservable", ("evaluate", "partial_time")),)
WORKER_BOUNDARY = ("cli", "_sweep_job", "cli.sweep_job")
FIELDS = ("name", "start", "end", "self", "span", "parent", "parent_pid", "pid", "case")


def _count_csv_bytes(result, counters):
    counters["scenarios.csv.bytes"] += len(result.encode("utf-8"))


def _count_steps(result, counters):
    counters["dynamics.integrate.steps"] += len(result) - 1


def _count_report(result, counters):
    counters["bounds.reports"] += 1
    counters["bounds.skipped"] += int(result.skipped)


OBSERVERS = {
    "scenarios.rows_to_csv_text": _count_csv_bytes,
    "dynamics.integrate": _count_steps,
    "bounds.open_bound": _count_report,
    "bounds.closed_bound": _count_report,
}


class Tracer:
    def __init__(self, modules: dict, spill_dir: str):
        self.modules = modules
        self.spill_dir = spill_dir
        self.names: list = []
        self._name_ids: dict = {}
        self.active = False
        self.case = -1
        self._patches: list = []
        self.owner_pid = os.getpid()
        self._reset(root=(0, 0))

    def _reset(self, root) -> None:
        self.pid = os.getpid()
        self.buf = array("d")
        self.stack: list = []  # [span id, child time] per open span
        self.root = root       # (pid, span) adopted as parent by top-level spans
        self.next_span = 1
        self.counters = Counter()
        self.spills = 0

    def _after_fork(self) -> None:
        parent = (self.pid, self.stack[-1][0]) if self.stack else (0, 0)
        self._reset(root=parent)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str, after=None):
        nid = self._name_id(name)
        observe = OBSERVERS.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if tracer.pid != os.getpid():
                tracer._after_fork()
            stack = tracer.stack
            if stack:
                parent, parent_pid = stack[-1][0], tracer.pid
            else:
                parent_pid, parent = tracer.root
            span = tracer.next_span
            tracer.next_span = span + 1
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer.buf.extend((nid, start, end, dur - frame[1], span, parent,
                                   parent_pid, tracer.pid, tracer.case))
            if observe is not None:
                observe(result, tracer.counters)
            if after is not None:
                after()
            return result

        return traced

    def _spill(self) -> None:
        """Write this worker's spans and counters so far, then drop them."""
        if self.pid == self.owner_pid:
            return
        path = os.path.join(self.spill_dir, f"worker-{self.pid}-{self.spills}.npz")
        keys = sorted(self.counters)
        np.savez(path, spans=np.frombuffer(self.buf, dtype=float),
                 counter_keys=np.array(keys, dtype=str),
                 counter_values=np.array([self.counters[k] for k in keys], dtype=float))
        self.spills += 1
        self.buf = array("d")
        self.counters = Counter()

    def _targets(self) -> dict:
        """Public package functions -> traced name ("module.function")."""
        found = {}
        for short in LAYER_MODULES:
            mod = self.modules[short]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    found[obj] = f"{short}.{attr}"
        return found

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for short, cls_name, methods in TRACED_METHODS:
            cls = getattr(self.modules[short], cls_name)
            for meth in methods:
                fn = vars(cls)[meth]
                self._patch(cls, meth, self._wrap(fn, f"{short}.{cls_name}.{meth}"))
        short, attr, name = WORKER_BOUNDARY
        mod = self.modules[short]
        self._patch(mod, attr, self._wrap(getattr(mod, attr), name, after=self._spill))
        self.active = True

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -------------------------------------------------------------

    def collect_workers(self) -> None:
        """Merge and delete the span files forked workers wrote."""
        for path in sorted(glob.glob(os.path.join(self.spill_dir, "worker-*.npz"))):
            with np.load(path, allow_pickle=False) as f:
                self.buf.extend(f["spans"])
                for key, value in zip(f["counter_keys"], f["counter_values"]):
                    self.counters[str(key)] += int(value)
            os.remove(path)

    def spans(self) -> np.ndarray:
        return np.frombuffer(self.buf, dtype=float).reshape(-1, len(FIELDS))

    def save(self, path: str) -> None:
        np.savez_compressed(path, spans=self.spans(), names=np.array(self.names, dtype=str),
                            fields=np.array(FIELDS, dtype=str))


def summarize(tracer: Tracer) -> dict:
    """Per traced name: calls, self seconds, inclusive seconds, worker pids."""
    spans = tracer.spans()
    out = {}
    if spans.size == 0:
        return out
    ids = spans[:, 0].astype(int)
    for nid, name in enumerate(tracer.names):
        rows = spans[ids == nid]
        out[name] = {
            "calls": int(rows.shape[0]),
            "self_s": float(rows[:, 3].sum()),
            "total_s": float((rows[:, 2] - rows[:, 1]).sum()),
        }
    return out


def worker_pids_per_case(tracer: Tracer) -> dict:
    """Case id -> number of distinct non-owner processes that recorded spans."""
    spans = tracer.spans()
    pairs = np.unique(spans[spans[:, 7] != tracer.owner_pid][:, [8, 7]], axis=0)
    cases, counts = np.unique(pairs[:, 0], return_counts=True)
    return {int(c): int(n) for c, n in zip(cases, counts)}
