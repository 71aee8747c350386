"""In-memory span tracer that wraps library callables at run time.

The library source is never edited.  :meth:`Tracer.install` replaces each
listed function in every ``cdindex`` module that binds it (a name imported
with ``from .ncpoly import ab_to_cd`` is a separate binding in each
importing module) and each listed method on its defining class.  A span
records its name, start, end, parent span, operation id and busy time;
busy time equals ``end - start`` except for generator spans, which only
count the time spent inside the generator between resumptions.  Self time
is busy time minus the busy time of the direct children.

A call to a name that is already open further up the stack (recursion,
or ``ab_index`` calling ``ab_index_from``) is folded into the open span,
so recursive helpers cost one span per outermost call.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

NAME, START, END, PARENT, OP, BUSY = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op = -1
        self.recording = False
        self._stack: list[int] = []
        self._open_names: Counter = Counter()

    # -- span bookkeeping ----------------------------------------------------

    def _push(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), 0.0, parent, self.op, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._open_names[name] += 1
        return span

    def _pop(self, span: list) -> None:
        span[END] = perf_counter()
        span[BUSY] = span[END] - span[START]
        self._stack.pop()
        self._open_names[span[NAME]] -= 1

    def call(self, name: str, fn, hook, args, kwargs):
        if not self.recording or self._open_names[name]:
            return fn(*args, **kwargs)
        span = self._push(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._pop(span)
            if hook is not None:
                hook(self.counters, args, None, exc)
            raise
        self._pop(span)
        if hook is not None:
            hook(self.counters, args, result, None)
        return result

    def generator(self, name: str, gen):
        """Wrap a generator so each resumption is busy time of one span."""
        parent = self._stack[-1] if self._stack else -1
        start = perf_counter()
        span = [name, start, start, parent, self.op, 0.0]
        index = len(self.spans)
        self.spans.append(span)
        yielded = 0
        try:
            while True:
                self._stack.append(index)
                self._open_names[name] += 1
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    span[BUSY] += t1 - t0
                    span[END] = t1
                    self._stack.pop()
                    self._open_names[name] -= 1
                yielded += 1
                yield item
        finally:
            self.counters[name + ".yielded"] += yielded

    def begin_op(self, op: int) -> list:
        """Open the root span of one benchmark operation."""
        self.op = op
        return self._push("op")

    def end_op(self, span: list) -> None:
        self._pop(span)
        self.op = -1

    # -- installation --------------------------------------------------------

    def install(self, package: str, layers) -> None:
        """Wrap every callable named in ``layers``.

        ``layers`` holds ``(span_name, targets, hook)`` triples; a target is
        ``"module:function"`` or ``"module:Class.method"``.  Functions are
        replaced in every loaded module of ``package`` that binds them.
        """
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for span_name, targets, hook in layers:
            for target in targets:
                module_name, qualname = target.split(":")
                owner = sys.modules[module_name]
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = self._wrap(span_name, original, hook)
                if path:
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def _wrap(self, name: str, fn, hook):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not tracer.recording:
                    return gen
                return tracer.generator(name, gen)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, hook, args, kwargs)

        return wrapper

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [span[BUSY] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[BUSY]
        return own

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def dump(self, path) -> None:
        """Write one JSON array per span: name, start, end, parent, op, busy."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
