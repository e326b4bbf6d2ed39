"""In-memory span tracer that times calls into a program from outside.

The tracer replaces named attributes (module functions, class methods,
dict entries) with thin wrappers that record one span per call: name,
start, end, parent span and trace id. Spans live in parallel lists until
the run ends; nothing is written while the program runs. A target that
does not exist is recorded as absent instead of failing, so the
benchmark keeps working when the program renames or deletes internals.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import time
from collections import defaultdict

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.traces: list[int] = []
        self.trace_id = 0
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.state: dict = {}
        self._stack = [NO_PARENT]
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def timed(self, name, fn, done=None, failed=None, begin=None):
        """Return ``fn`` wrapped so that each call records a span.

        ``begin(tracer, args, kwargs)`` runs before the span opens,
        ``done(tracer, args, kwargs, result)`` after it closes and
        ``failed(tracer)`` when the call raised. Hook errors are counted
        and ignored: a hook reading a shape the program no longer has
        must not change the program's behaviour.
        """
        names, starts, ends = self.names, self.starts, self.ends
        parents, traces, stack = self.parents, self.traces, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if begin is not None:
                tracer._hook(begin, args, kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            traces.append(tracer.trace_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                if failed is not None:
                    tracer._hook(failed)
                raise
            ends[idx] = clock()
            stack.pop()
            if done is not None:
                tracer._hook(done, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, hook, *args):
        try:
            hook(self, *args)
        except Exception:  # noqa: BLE001 - a stale hook must not break the run
            self.counts["trace.hook_errors"] += 1

    # -- patching ----------------------------------------------------------

    def _resolve(self, target: str):
        """Split ``"pkg.mod:Attr.attr"`` or ``"pkg.mod:table[key]"``.

        Returns ``(owner, key, original)`` with ``original`` None when
        any part of the path is missing.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None, None, None
        key = None
        if path.endswith("]"):
            path, _, key = path[:-1].partition("[")
        *chain, attr = path.split(".")
        for part in chain:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, None
        if key is None:
            return owner, attr, getattr(owner, attr, None)
        table = getattr(owner, attr, None)
        if not isinstance(table, dict) or key not in table:
            return None, None, None
        return table, key, table[key]

    def patch(self, target: str, make) -> bool:
        """Replace ``target`` by ``make(original)`` until :meth:`restore`."""
        owner, key, original = self._resolve(target)
        if original is None or not callable(original):
            self.absent.append(target)
            return False
        replacement = make(original)
        if isinstance(owner, dict):
            self._undo.append((owner, key, original, True))
            owner[key] = replacement
        else:
            had_own = not isinstance(owner, type) or key in vars(owner)
            self._undo.append((owner, key, original, had_own))
            setattr(owner, key, replacement)
        return True

    def wrap(self, target: str, name: str, **hooks) -> bool:
        return self.patch(target, lambda fn: self.timed(name, fn, **hooks))

    def restore(self) -> None:
        while self._undo:
            owner, key, original, had_own = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            elif had_own:
                setattr(owner, key, original)
            else:
                delattr(owner, key)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one CSV row (gzip), times in microseconds."""
        base = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span", "name", "start_us", "end_us", "parent", "trace"])
            for idx, name in enumerate(self.names):
                writer.writerow(
                    [
                        idx,
                        name,
                        f"{(self.starts[idx] - base) * 1e6:.3f}",
                        f"{(self.ends[idx] - base) * 1e6:.3f}",
                        self.parents[idx],
                        self.traces[idx],
                    ]
                )


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent != NO_PARENT:
            children[parent].append(idx)
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        covered = 0.0
        run_start = run_end = None
        for kid in sorted(kids, key=lambda k: starts[k]):
            s, e = max(starts[kid], lo), min(ends[kid], hi)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[parent] -= covered
    return out
