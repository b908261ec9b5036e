"""Outside-in tracing: spans recorded around calls into the cvmc layers.

The tracer replaces each named entry point with a wrapper that records a
span (name, start, end, parent, call id) in memory and, optionally, work
counters derived from the call's arguments or result. Nothing under
``src/`` is changed; the wrappers are installed for a traced pass and
removed afterwards, so untraced passes run the original code.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class EntryPoint:
    """One public entry point of a layer, named by its import path.

    ``path`` is "module:qualname", e.g. "cvmc.model:LogReturnSampler.rows".
    ``counters`` maps (args, kwargs, result) to a dict of counter
    increments; it runs only when the call returned.
    """

    path: str
    span: str
    counters: object = None


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    call: int | None
    raised: bool = False


def _resolve(path: str):
    """(owner, attribute, original) for "module:qualname", or None if absent."""
    module_name, _, qualname = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = qualname.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attribute) if isinstance(owner, type) else getattr(owner, attribute, None)
    if original is None:
        return None
    return owner, attribute, original


class Tracer:
    """Records spans and counters while installed; restores the originals on uninstall."""

    def __init__(self, entry_points):
        self.entry_points = tuple(entry_points)
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.absent: set[str] = set()
        self.call: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for entry in self.entry_points:
            found = _resolve(entry.path)
            if found is None:
                self.absent.add(entry.span)
                continue
            owner, attribute, original = found
            wrapper = self._wrap(entry, original)
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)
            if not isinstance(owner, type):
                # A function re-exported by name (``from .model import f``)
                # is looked up in the importing module, so patch every alias.
                for module in list(sys.modules.values()):
                    if module is owner or not getattr(module, "__name__", "").startswith("cvmc"):
                        continue
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, name, original))
                            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _wrap(self, entry: EntryPoint, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(
                id=len(tracer.spans),
                name=entry.span,
                start=0.0,
                end=0.0,
                parent=tracer._stack[-1] if tracer._stack else None,
                call=tracer.call,
            )
            tracer.spans.append(span)
            tracer._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if entry.counters is not None:
                for key, value in entry.counters(args, kwargs, result).items():
                    tracer.counters[key] = tracer.counters.get(key, 0) + value
            return result

        return wrapper

    def reset(self) -> None:
        self.spans = []
        self.counters = {}


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children.

    The wrappers are synchronous and single-threaded, so children are
    strictly nested in their parent and never overlap one another.
    """
    own = {span.id: span.end - span.start for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


def self_time_by_name(spans) -> dict[str, float]:
    """Total self time per span name."""
    totals: dict[str, float] = {}
    own = self_times(spans)
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
    return totals
