"""Span recording around the program's public functions (traced runs only).

:class:`Tracer` replaces a function or method *where its callers look it
up* — a module global such as ``repro.core.cubelsi.tucker_als``, or a class
attribute such as ``SearchEngine.build`` — with a wrapper that times each
call, and puts the original back on :meth:`Tracer.close`.  Spans are kept in
memory as ``name -> [durations]`` and summarised when the run ends.  The
untraced runs install no patch, so they pay nothing.
"""

from __future__ import annotations

import functools
import gc
import time
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = {}
        self.ends: Dict[str, List[float]] = {}
        self._restore: List[Callable[[], None]] = []
        self._gc_start: Dict[int, float] = {}
        self.gc_pauses: List[float] = []
        self.gc_gen2 = 0

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def _timed(self, name: str, function: Callable, on_result: Optional[Callable] = None) -> Callable:
        spans = self.spans.setdefault(name, [])
        ends = self.ends.setdefault(name, [])

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                spans.append(ended - started)
                ends.append(ended)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def wrap(self, owner, attribute: str, name: str, on_result: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attribute`` under span ``name``.

        ``on_result(args, result)``, when given, sees each call's positional
        arguments and return value (for counts such as batch sizes).

        ``owner`` is a module (for a function looked up as a global) or a
        class (for a method, classmethod or staticmethod).
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if isinstance(original, classmethod):
            replacement = classmethod(self._timed(name, original.__func__, on_result))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(self._timed(name, original.__func__, on_result))
        else:
            replacement = self._timed(name, original, on_result)
        setattr(owner, attribute, replacement)
        self._restore.append(lambda: setattr(owner, attribute, original))

    # ------------------------------------------------------------------ #
    # Python runtime
    # ------------------------------------------------------------------ #
    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        generation = info["generation"]
        if phase == "start":
            self._gc_start[generation] = time.perf_counter()
        elif generation in self._gc_start:
            self.gc_pauses.append(time.perf_counter() - self._gc_start.pop(generation))
            if generation == 2:
                self.gc_gen2 += 1

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._restore.append(lambda: gc.callbacks.remove(self._on_gc))

    def close(self) -> None:
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def total(self, name: str) -> float:
        return float(sum(self.spans.get(name, ())))

    def calls(self, name: str) -> int:
        return len(self.spans.get(name, ()))
