"""Span recorder for the traced run.

Each traced function is wrapped by replacing its name in the namespace
that calls it (``blesim.harness`` or ``blesim.receiver``).  A call becomes
a span ``[name, start, end, parent, frame, pid]`` kept in memory; spans of
one frame share the frame id ``(campaign, mode, point, frame index)``.
Pool workers are forks of the benchmark process, so they inherit the
wrappers; each chunk of frames ships its spans back with its counts.
"""
from __future__ import annotations

import functools
import inspect
import os
import re
import time
from collections import Counter

NAME, START, END, PARENT, FRAME, PID = range(6)

# Span name -> (namespace, attribute) pairs to wrap.  The span name is the
# module that defines the function, so a function reached from both
# namespaces records under one name.
TRACED = {
    "harness.run_campaign": [("harness", "run_campaign")],
    "harness.run_frame": [("harness", "run_frame")],
    "bits.random_bits": [("harness", "random_bits")],
    "llpacket.assemble_uncoded": [("harness", "assemble_uncoded")],
    "llpacket.whiten": [("receiver", "whiten")],
    "llpacket.validate_packet": [("receiver", "validate_packet")],
    "coded.assemble_coded": [("harness", "assemble_coded")],
    "coded.viterbi_decode": [("receiver", "viterbi_decode")],
    "gmsk.gaussian_taps": [("harness", "gaussian_taps"), ("receiver", "gaussian_taps")],
    "gmsk.gmsk_modulate": [("harness", "gmsk_modulate"), ("receiver", "gmsk_modulate")],
    "gmsk.matched_filter": [("receiver", "matched_filter")],
    "channel.fade": [("harness", "fade")],
    "channel.apply_cfo": [("harness", "apply_cfo")],
    "channel.apply_dc": [("harness", "apply_dc")],
    "channel.interferer_at_rate": [("harness", "interferer_at_rate")],
    "channel.mix": [("harness", "mix")],
    "channel.awgn": [("harness", "awgn")],
    "chansel.csa2_select": [("harness", "csa2_select")],
    "receiver.receive": [("harness", "receive")],
    "receiver.agc": [("receiver", "agc")],
    "receiver.dc_notch": [("receiver", "dc_notch")],
    "receiver.coarse_cfo_estimate": [("receiver", "coarse_cfo_estimate")],
    "receiver.synchronize": [("receiver", "synchronize")],
}
POOL = "harness.pool"
SPAN_NAMES = tuple(TRACED) + (POOL,)
# Names recorded under harness.run_frame, in pool workers when jobs > 1.
WORKER_SIDE = tuple(name for name in TRACED if name != "harness.run_campaign")

OUTCOMES = ("ok", "no_signal", "sync_miss", "aa_mismatch", "crc_fail", "other")
# Failure reasons with their numbers replaced by '#'.
_REASONS = {
    "no signal": "no_signal",
    "peak correlation # below threshold #": "sync_miss",
    "frame (#) shorter than sync reference (#)": "sync_miss",
    "access address mismatch": "aa_mismatch",
    "crc check failed": "crc_fail",
}
_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def outcome(report) -> str:
    """Bucket a receiver report into one of OUTCOMES."""
    if report.crc_ok:
        return "ok"
    return _REASONS.get(_NUMBER.sub("#", report.reason), "other")


class ChunkCounts(tuple):
    """A worker's (detected, valid) pair carrying the chunk's spans."""

    spans: list
    outcomes: Counter


class Recorder:
    """In-memory spans of one process plus its pool workers' spans."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list = []
        self.stack: list = []
        self.frame = None
        self.campaign = 0
        self.outcomes: Counter = Counter()
        self.pools_created = 0
        self.untraced_chunks = 0
        self.missing: set = set()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0,
                self.stack[-1] if self.stack else None, self.frame, os.getpid()]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        if name == "harness.run_frame":
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                a = sig.bind(*args, **kwargs)
                a.apply_defaults()
                a = a.arguments
                mode = a.get("mode")
                self.frame = (self.campaign, getattr(mode, "value", mode),
                              a.get("point_idx"), a.get("frame_idx"))
                span = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(span)
                    self.frame = None
        elif name == "receiver.receive":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = self._open(name)
                try:
                    report = fn(*args, **kwargs)
                finally:
                    self._close(span)
                self.outcomes[outcome(report)] += 1
                return report
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(span)
        return traced

    def _chunk_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(args):
            if os.getpid() == self.pid:  # jobs=1 runs chunks in-process
                return fn(args)
            # In a pool worker: ship only this chunk's spans back.
            self.spans, self.stack, self.outcomes = [], [], Counter()
            out = ChunkCounts(fn(args))
            out.spans, out.outcomes = self.spans, self.outcomes
            return out
        return traced

    def _pool_class(self, base):
        rec = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                rec.pools_created += 1
                self._span = rec._open(POOL)
                self._index = rec.stack[-1]
                try:
                    super().__init__(*args, **kwargs)
                except BaseException:
                    rec._close(self._span)
                    raise

            def map(self, fn, *iterables, **kwargs):
                for res in super().map(fn, *iterables, **kwargs):
                    rec.merge(res, self._index)
                    yield res

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._span[END] == 0.0:
                        rec._close(self._span)

        return TracedPool

    def merge(self, res, parent: int) -> None:
        """Adopt a worker chunk's spans under the pool span at ``parent``."""
        spans = getattr(res, "spans", None)
        if spans is None:
            self.untraced_chunks += 1
            return
        offset = len(self.spans)
        for s in spans:
            s = list(s)
            s[PARENT] = parent if s[PARENT] is None else s[PARENT] + offset
            self.spans.append(s)
        self.outcomes.update(res.outcomes)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every TRACED name that blesim still has; note the rest."""
        from blesim import harness, receiver

        modules = {"harness": harness, "receiver": receiver}
        for name, targets in TRACED.items():
            for ns, attr in targets:
                mod = modules[ns]
                if not hasattr(mod, attr):
                    self.missing.add(f"{ns}.{attr}")
                    continue
                self._patch(mod, attr, self._wrap(name, getattr(mod, attr)))
        for attr, make in (("ProcessPoolExecutor", self._pool_class),
                           ("_count_chunk", self._chunk_wrapper)):
            if hasattr(harness, attr):
                self._patch(harness, attr, make(getattr(harness, attr)))
            else:
                self.missing.add(f"harness.{attr}")

    def _patch(self, mod, attr, value) -> None:
        self._undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def missing_names(self, jobs: int, frames: int) -> list:
        """Span names whose figures would be wrong: reported, never zeroed.

        A name is missing when none of its targets exists.  Every
        worker-side name is missing too when the spans of the ``frames``
        frames run with ``jobs`` did not all come back: a chunk returned
        without spans (a pool created before install, a non-fork start
        method, a chunk function reached by another name), no traced pool
        was created, the chunk function is gone, or fewer run_frame spans
        were recorded than frames were run.  The pool's own figures are
        missing when jobs > 1 created no traced pool.
        """
        out = [name for name, targets in TRACED.items()
               if all(f"{ns}.{attr}" in self.missing for ns, attr in targets)]
        if ("harness.ProcessPoolExecutor" in self.missing
                or (jobs > 1 and not self.pools_created)):
            out.append(POOL)
        run_frames = sum(s[NAME] == "harness.run_frame" for s in self.spans)
        lost = (self.untraced_chunks
                or (jobs > 1 and (not self.pools_created
                                  or "harness._count_chunk" in self.missing))
                or ("harness.run_frame" not in out and run_frames != frames))
        if lost:
            out += [name for name in WORKER_SIDE if name not in out]
        return out


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus what its children cover.

    Children in the same process nest inside their parent and do not
    overlap, so they cover the sum of their durations.  Worker spans run
    in other processes, in parallel, under a pool span; they are not
    subtracted from it, so the pool's self time is the time the parent
    spent creating, feeding, waiting for and shutting down the pool.
    """
    child = [0.0] * len(spans)
    for s in spans:
        p = s[PARENT]
        if p is not None and spans[p][PID] == s[PID]:
            child[p] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def summarize(spans: list, pid: int) -> dict:
    """Per span name: total self seconds and calls; plus process totals."""
    selfs = self_times(spans)
    by_name = {name: [0.0, 0] for name in SPAN_NAMES}
    parent_self = worker_self = 0.0
    for s, t in zip(spans, selfs):
        acc = by_name.setdefault(s[NAME], [0.0, 0])
        acc[0] += t
        acc[1] += 1
        if s[PID] == pid:
            parent_self += t
        else:
            worker_self += t
    return {"by_name": by_name, "parent_self_s": parent_self,
            "worker_self_s": worker_self}
