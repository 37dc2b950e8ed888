"""Outside-in tracer for peerlab.

The tracer replaces each public function of the layer modules, wherever a
``peerlab.*`` module namespace (or a module-level dict such as
``verify.SUITES``) holds it, with a timing wrapper.  It also wraps the
``__post_init__`` validators of ``Distribution``, ``JointDistribution`` and
``TransitionMatrix``, so object construction shows as its own span.  Spans are
named ``<layer>.<function>`` (``probability.<Class>`` for the validators).

Per span it aggregates calls, total time and self time in memory.  Self time
is a span's duration minus the time covered by the spans it calls, so the
self times of all spans add up to the time spent inside peerlab.
``uninstall`` puts every replaced attribute back as it was.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("probability", "measures", "agents", "sampling", "mechanisms", "verify", "cli")
VALIDATED_CLASSES = ("Distribution", "JointDistribution", "TransitionMatrix")


def layer_targets() -> dict[str, object]:
    """Span name -> original callable, for every function the tracer wraps."""
    targets = {}
    for layer in LAYERS:
        module = importlib.import_module(f"peerlab.{layer}")
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
            ):
                targets[f"{layer}.{name}"] = obj
    probability = importlib.import_module("peerlab.probability")
    for cls_name in VALIDATED_CLASSES:
        targets[f"probability.{cls_name}"] = vars(getattr(probability, cls_name))["__post_init__"]
    return targets


class Tracer:
    """Aggregating span tracer; use as a context manager around traced work.

    ``hooks`` maps a span name to ``(counter, fn)``: on every call of that span
    ``fn(args, kwargs)`` returns an integer that is added to
    ``counts[counter]``.
    """

    def __init__(self, hooks: dict | None = None):
        self.hooks = dict(hooks or {})
        self.stats: dict[str, list] = {}  # span -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {counter: 0 for counter, _ in self.hooks.values()}
        self._stack: list[float] = []
        self._undo: list[tuple] = []

    # -- aggregation -------------------------------------------------------

    def reset(self) -> None:
        """Zero every aggregate, keeping the wrappers installed."""
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        for counter in self.counts:
            self.counts[counter] = 0

    def snapshot(self) -> dict:
        """Copy of the aggregates: ``{"spans": {...}, "counts": {...}}``."""
        spans = {
            name: {"calls": calls, "total_s": total, "self_s": self_s}
            for name, (calls, total, self_s) in sorted(self.stats.items())
        }
        return {"spans": spans, "counts": dict(self.counts)}

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` spent outside peerlab, inside the innermost open
        span, out of that span's self time."""
        if self._stack:
            self._stack[-1] += seconds

    # -- installation ------------------------------------------------------

    def _wrap(self, span: str, fn):
        entry = self.stats.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        hook = self.hooks.get(span)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                counts[hook[0]] += hook[1](args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _replace_attr(self, owner, name: str, value) -> None:
        self._undo.append((setattr, owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _replace_item(self, owner: dict, key, value) -> None:
        self._undo.append((dict.__setitem__, owner, key, owner[key]))
        owner[key] = value

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        targets = layer_targets()
        wrappers = {id(fn): (fn, self._wrap(span, fn)) for span, fn in targets.items()}
        probability = importlib.import_module("peerlab.probability")
        for cls_name in VALIDATED_CLASSES:
            cls = getattr(probability, cls_name)
            self._replace_attr(cls, "__post_init__", wrappers[id(vars(cls)["__post_init__"])][1])
        modules = [
            module for name, module in sorted(sys.modules.items())
            if name == "peerlab" or name.startswith("peerlab.")
        ]
        for module in modules:
            for name, obj in list(vars(module).items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    self._replace_attr(module, name, found[1])
                elif type(obj) is dict:
                    for key, value in list(obj.items()):
                        found = wrappers.get(id(value))
                        if found is not None and found[0] is value:
                            self._replace_item(obj, key, found[1])

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, name, original = self._undo.pop()
            setter(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
