"""Run one statmon CLI command with timing spans around each layer's public functions.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.npz COMMAND_ID SPAWN_TIME -- ARGV...

The program is not changed: after `statmon.cli` is imported, every target
below is replaced by a wrapper in each statmon module namespace that holds
the same object (so `from .eigh import symmetric_spectrum` copies are
caught too), and target methods are replaced on their class.  Then
`statmon.cli.main(ARGV)` runs exactly as `python -m statmon.cli ARGV` would.

Spans stay in memory, one buffer per thread, and are written to SPANS.npz
when the command ends: start and end (`time.monotonic`, the same clock as
SPAWN_TIME in the parent), name index, parent span and thread.  A span
opened by a pool thread with no open span of its own takes the innermost
open span of the main thread as parent, so audit shards nest under
`monogamy.region_audit`.
"""

from __future__ import annotations

import functools
import inspect
import json
import operator
import sys
import threading
import time
from array import array

# Layer -> public names wrapped in it ("Class.method" for methods).
TARGETS = {
    "group_core": ("exchange_operator", "PermutationOperator.matrix"),
    "states": ("PureState.__init__", "random_amplitudes", "MixedState.__init__"),
    "observables": ("chi_state", "v_vector", "expectation"),
    "eigh": ("symmetric_spectrum", "hermitian_min_eigenvalue"),
    "monogamy": ("surface_state", "check_sqrt", "theta_family_margin", "write_mesh_csv", "region_audit"),
    "extremal": ("max_expectation", "constrained_extremal", "joint_eigenspace_basis", "Objective.matrix"),
    "npartite": ("triangle_bounds", "spectral_bound"),
    "cli": ("main",),
    "selftest": ("run_selftest",),
}

SPAN_NAMES = tuple(f"{layer}.{target}" for layer, names in TARGETS.items() for target in names)


class _Buffer:
    """Spans recorded by one thread."""

    def __init__(self, tid: int):
        self.tid = tid
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent_tid = array("i")
        self.parent_idx = array("i")
        self.stack: list[int] = []


class _CountingStream:
    """Forwards writes and counts the characters (bytes, for ASCII CSV)."""

    def __init__(self, stream, recorder: "Recorder", key: str):
        self._stream, self._recorder, self._key = stream, recorder, key

    def write(self, text):
        self._recorder.add(self._key, len(text))
        return self._stream.write(text)


def _count_matrix_bytes(rec, bound):
    rec.add("group_core.PermutationOperator.matrix.bytes", bound.arguments["self"].dim ** 2 * 8)


def _count_rows(rec, bound):
    rec.add("states.random_amplitudes.rows", int(bound.arguments["count"]))


def _count_spectrum(rec, bound):
    dim = len(bound.arguments["matrix"])
    rec.add("eigh.symmetric_spectrum.dim3_sum", dim**3)
    rec.add("eigh.symmetric_spectrum.dim_max", dim, combine=max)


def _count_csv(rec, bound):
    bound.arguments["stream"] = _CountingStream(bound.arguments["stream"], rec, "monogamy.write_mesh_csv.bytes")


def _count_draws(rec, bound):
    rec.add("monogamy.region_audit.draws", int(bound.arguments["samples"]) + int(bound.arguments["mixed_samples"]))


# Span name -> hook run with the recorder and the bound arguments before the call.
HOOKS = {
    "group_core.PermutationOperator.matrix": _count_matrix_bytes,
    "states.random_amplitudes": _count_rows,
    "eigh.symmetric_spectrum": _count_spectrum,
    "monogamy.write_mesh_csv": _count_csv,
    "monogamy.region_audit": _count_draws,
}


class Recorder:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers: list[_Buffer] = []
        self.counters: dict[str, float] = {}
        self.main = self._buffer()

    def add(self, key: str, amount: float, combine=operator.add) -> None:
        """Fold `amount` into a counter; safe to call from pool threads."""
        with self._lock:
            self.counters[key] = combine(self.counters[key], amount) if key in self.counters else amount

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self.buffers))
                self.buffers.append(buf)
            self._local.buf = buf
        return buf

    def wrap(self, name: str, fn):
        name_id = SPAN_NAMES.index(name)
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        clock = time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            if buf.stack:
                parent_tid, parent_idx = buf.tid, buf.stack[-1]
            elif buf is not self.main and self.main.stack:
                parent_tid, parent_idx = self.main.tid, self.main.stack[-1]
            else:
                parent_tid, parent_idx = -1, -1
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound)
                args, kwargs = bound.args, bound.kwargs
            idx = len(buf.start)
            buf.name.append(name_id)
            buf.parent_tid.append(parent_tid)
            buf.parent_idx.append(parent_idx)
            buf.end.append(0.0)
            buf.stack.append(idx)
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()

        return wrapper

    def install(self) -> dict:
        """Wrap every target; returns the original callables by span name."""
        modules = [m for key, m in sys.modules.items() if key == "statmon" or key.startswith("statmon.")]
        originals = {}
        for layer, names in TARGETS.items():
            module = sys.modules[f"statmon.{layer}"]
            for target in names:
                span = f"{layer}.{target}"
                if "." in target:
                    cls_name, method = target.split(".")
                    cls = getattr(module, cls_name)
                    originals[span] = cls.__dict__[method]
                    setattr(cls, method, self.wrap(span, originals[span]))
                    continue
                original = originals[span] = getattr(module, target)
                wrapper = self.wrap(span, original)
                for attr in ("cache_info", "cache_clear"):
                    if hasattr(original, attr):
                        setattr(wrapper, attr, getattr(original, attr))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        return originals

    def save(self, path: str, meta: dict) -> None:
        import numpy as np

        offsets = np.cumsum([0] + [len(b.start) for b in self.buffers])
        parent = []
        for b in self.buffers:
            ptid = np.frombuffer(b.parent_tid, dtype=np.int32)
            pidx = np.frombuffer(b.parent_idx, dtype=np.int32)
            parent.append(np.where(pidx >= 0, offsets[np.maximum(ptid, 0)] + pidx, -1))
        meta = dict(meta, counters=self.counters)
        np.savez(
            path,
            start=np.concatenate([np.frombuffer(b.start) for b in self.buffers]),
            end=np.concatenate([np.frombuffer(b.end) for b in self.buffers]),
            name=np.concatenate([np.frombuffer(b.name, dtype=np.int32) for b in self.buffers]),
            thread=np.concatenate([np.full(len(b.start), b.tid) for b in self.buffers]),
            parent=np.concatenate(parent),
            names=np.array(SPAN_NAMES),
            meta=np.array(json.dumps(meta)),
        )


def main(argv: list[str]) -> int:
    spans_path, command_id, spawn_time = argv[1], argv[2], float(argv[3])
    if argv[4] != "--":
        raise SystemExit("usage: tracer.py SPANS.npz COMMAND_ID SPAWN_TIME -- ARGV...")
    import statmon.cli

    imported = time.monotonic()
    recorder = Recorder()
    originals = recorder.install()
    try:
        return statmon.cli.main(argv[5:])
    finally:
        info = originals["group_core.exchange_operator"].cache_info()
        recorder.save(
            spans_path,
            {
                "command": command_id,
                "spawn": spawn_time,
                "imported": imported,
                "exchange_operator_hits": info.hits,
                "exchange_operator_misses": info.misses,
            },
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv))
