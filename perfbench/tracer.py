"""Span tracing from outside the program.

A :class:`Tracer` replaces module attributes of the program with wrappers
that record one span per call (name, parent span, start, end).  Generator
functions are timed inside each ``next()``, so a span covers the work done
to produce one item and nothing the consumer does between items.  Spans
stay in memory in flat arrays; :meth:`Tracer.summary` folds them into
per-name totals and self times once the traced run is over.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np


class _TimedIterator:
    """Iterator proxy that records a span around every ``next()``."""

    __slots__ = ("_tracer", "_name", "_it")

    def __init__(self, tracer, name, it):
        self._tracer = tracer
        self._name = name
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        tr = self._tracer
        idx = tr._open(self._name)
        try:
            item = next(self._it)
        finally:
            tr._close(idx)
        tr.items[self._name] += 1
        return item


class Tracer:
    """Records nested spans of wrapped callables; restores them on exit."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.calls: Counter = Counter()   # generator creations per name
        self.items: Counter = Counter()   # generator yields per name
        self._tried: set[str] = set()
        self._wrapped: set[str] = set()

    # -- span recording --------------------------------------------------
    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self._t0)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._t1.append(0.0)
        self._stack.append(idx)
        self._t0.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._t1[idx] = time.perf_counter()
        self._stack.pop()

    # -- patching ----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, label=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper.

        ``label(args, kwargs)`` may refine the span name per call.  A missing
        attribute is skipped (see :attr:`missing`) instead of failing, so the
        benchmark keeps running after the program drops a function.
        """
        self._tried.add(name)
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._wrapped.add(name)
        tracer = self
        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                return _TimedIterator(tracer, name, original(*args, **kwargs))
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                idx = tracer._open(label(args, kwargs) if label else name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._close(idx)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    @property
    def missing(self) -> set[str]:
        """Names none of whose attributes existed to be wrapped."""
        return self._tried - self._wrapped

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- aggregation -------------------------------------------------------
    def spans(self) -> dict[str, np.ndarray]:
        """The raw spans as arrays (names indexed into :attr:`names`)."""
        return {"name": np.array(self._name, dtype=np.int32),
                "parent": np.array(self._parent, dtype=np.int32),
                "t0": np.array(self._t0), "t1": np.array(self._t1)}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``s`` (summed time), ``self_s``, ``spans``.

        ``self_s`` subtracts the time of direct children; ``ctx_s``
        subtracts only children whose name starts with ``theorems.check.``
        (used for the context-build share of ``check_all``).
        """
        sp = self.spans()
        k = len(self.names)
        if not len(sp["t0"]):
            return {}
        dur = sp["t1"] - sp["t0"]
        has_parent = sp["parent"] >= 0
        parents = sp["parent"][has_parent]
        child = np.bincount(parents, weights=dur[has_parent],
                            minlength=len(dur))
        is_check = np.array([n.startswith("theorems.check.")
                             for n in self.names])[sp["name"]]
        law_child = np.bincount(parents, weights=(dur * is_check)[has_parent],
                                minlength=len(dur))
        total = np.bincount(sp["name"], weights=dur, minlength=k)
        self_s = np.bincount(sp["name"], weights=dur - child, minlength=k)
        ctx_s = np.bincount(sp["name"], weights=dur - law_child, minlength=k)
        count = np.bincount(sp["name"], minlength=k)
        return {n: {"s": float(total[i]), "self_s": float(self_s[i]),
                    "ctx_s": float(ctx_s[i]), "spans": int(count[i])}
                for i, n in enumerate(self.names)}
