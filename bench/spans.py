"""Spans around strictlin's public calls, recorded from outside the package.

``instrument`` replaces public functions and methods of the ``explorer``,
``checker`` and ``history`` modules with wrappers and restores them on exit.
Because the package's own code looks these names up at call time, the
wrappers also see the calls composite entry points (``compare_observables``,
``check_concurrent_implementation``, ...) make internally, which gives those
composites child spans.  Spans inside the package are left to the package.

Untraced passes install only the cheap collector on ``explore`` and
``run_atomic``, so every query's explorations can be checked for truncation
and approximation without timing anything else.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from strictlin import checker, explorer

# the package re-exports a function named ``history`` over the module's name
history = importlib.import_module("strictlin.history")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    query: str
    attrs: dict

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """Spans of one pass, and the explorations of the running query."""

    query: str = ""
    spans: list[Span] = field(default_factory=list)
    explorations: list[Any] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def start_query(self, qid: str) -> None:
        # a query cut off by its time cap may leave spans open on the stack
        self.query = qid
        self.explorations.clear()
        self._stack.clear()

    def span_wrapper(self, name: str, fn: Callable, pre=None, post=None) -> Callable:
        def wrapper(*args, **kwargs):
            note = pre(*args, **kwargs) if pre else None
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(sid, name, 0.0, 0.0, parent, self.query, {}))
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = self.spans[sid]
                span.start, span.end = start, end
            if post:
                span.attrs = post(result, note)
            return result

        return wrapper

    def collector(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            ex = fn(*args, **kwargs)
            self.explorations.append(ex)
            return ex

        return wrapper


def _exploration_attrs(ex, _note) -> dict:
    return {"configs": len(ex.order), "transitions": ex.transitions_explored}


def _scc_cached(self, *_a, **_k) -> bool:
    return getattr(self, "_scc", None) is not None


def _scc_attrs(info, cached) -> dict:
    if cached:
        return {"cached": True}
    comps = info["comps"]
    return {
        "cached": False,
        "sccs": len(comps),
        "largest_scc": max((len(c) for c in comps), default=0),
        "cyclic_sccs": len(info["cyclic"]),
    }


def _results_note(self, projection="interface") -> tuple[str, bool]:
    return projection, projection in getattr(self, "_results", {})


def _results_attrs(res, note) -> dict:
    projection, cached = note
    return {"projection": projection, "cached": cached, "outcomes": len(res)}


def _count(res, _note) -> dict:
    return {"count": len(res)}


# (owner, attribute, span name, pre, post)
TARGETS = [
    (explorer, "explore", "explorer.explore", None, _exploration_attrs),
    (explorer, "run_atomic", "explorer.run_atomic", None, _exploration_attrs),
    (explorer.Exploration, "scc_info", "explorer.scc_info", _scc_cached, _scc_attrs),
    (explorer.Exploration, "results", "explorer.results", _results_note, _results_attrs),
    (explorer, "final_states", "explorer.final_states", None, None),
    (explorer, "compare_observables", "explorer.compare_observables", None, None),
    (explorer, "compare_divergence", "explorer.compare_divergence", None, None),
    (checker, "recorded_executions", "checker.recorded_executions", None, _count),
    (checker, "check_strict", "checker.check_strict", None, None),
    (checker, "check_general", "checker.check_general", None, None),
    (checker, "check_concurrent_implementation", "checker.check_concurrent_implementation",
     None, None),
    (checker, "find_linearization", "checker.find_linearization", None, None),
    (checker, "find_strict_linearization", "checker.find_strict_linearization", None, None),
    (history, "parse_history", "history.parse_history", None, _count),
]
EXPLORING = {"explorer.explore", "explorer.run_atomic"}


@contextlib.contextmanager
def instrument(rec: Recorder, traced: bool):
    """Install the wrappers for one pass; spans only when ``traced``."""
    saved = []
    try:
        for owner, attr, name, pre, post in TARGETS:
            fn = getattr(owner, attr, None)
            if fn is None or (not traced and name not in EXPLORING):
                continue
            saved.append((owner, attr, fn))
            wrapped = rec.span_wrapper(name, fn, pre, post) if traced else fn
            if name in EXPLORING:
                wrapped = rec.collector(wrapped)
            setattr(owner, attr, wrapped)
        yield rec
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

_STRICT = {"checker.check_strict", "checker.find_linearization",
           "checker.find_strict_linearization"}
_SEARCHES = {"checker.find_linearization", "checker.find_strict_linearization"}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s.dur for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.dur
    return out


def layer_metrics(spans: list[Span], n_queries: int, truncated: int, approximate: int) -> dict:
    own = self_times(spans)
    m: dict[str, float] = {k: 0.0 for k in (
        "explorer.build_s", "explorer.configs", "explorer.transitions",
        "explorer.scc_s", "explorer.sccs", "explorer.largest_scc", "explorer.cyclic_sccs",
        "explorer.atomic_build_s", "explorer.results_history_s",
        "explorer.outcomes_history", "explorer.results_client_s",
        "explorer.outcomes_client", "explorer.final_states_s",
        "checker.record_s", "checker.records", "checker.strict_s", "checker.general_s",
        "checker.impl_s", "checker.executions_checked",
        "history.parse_s", "history.events",
        "explorer.self_s", "checker.self_s", "history.self_s")}
    explorations_run = 0
    for s, self_s in zip(spans, own):
        m[f"{s.layer}.self_s"] += self_s
        parent = spans[s.parent].name if s.parent is not None else None
        a = s.attrs
        if s.name == "explorer.explore":
            explorations_run += 1
            m["explorer.build_s"] += s.dur
            m["explorer.configs"] += a.get("configs", 0)
            m["explorer.transitions"] += a.get("transitions", 0)
        elif s.name == "explorer.run_atomic":
            explorations_run += 1
            m["explorer.atomic_build_s"] += s.dur
        elif s.name == "explorer.scc_info":
            m["explorer.scc_s"] += s.dur
            if not a.get("cached", True):
                m["explorer.sccs"] += a["sccs"]
                m["explorer.cyclic_sccs"] += a["cyclic_sccs"]
                m["explorer.largest_scc"] = max(m["explorer.largest_scc"], a["largest_scc"])
        elif s.name == "explorer.results" and a.get("projection") in ("history", "client"):
            p = a["projection"]
            m[f"explorer.results_{p}_s"] += self_s
            if not a["cached"]:
                m[f"explorer.outcomes_{p}"] += a["outcomes"]
        elif s.name == "explorer.final_states":
            m["explorer.final_states_s"] += self_s
        elif s.name == "checker.recorded_executions":
            m["checker.record_s"] += self_s
            m["checker.records"] += a.get("count", 0)
        elif s.name == "history.parse_history":
            m["history.parse_s"] += s.dur
            m["history.events"] += a.get("count", 0)
        if s.name in _SEARCHES:
            m["checker.executions_checked"] += 1
        # top-level checker time, each by the mode the query asked for
        if s.name.startswith("checker.check_") or s.name in _SEARCHES:
            if parent is None or not parent.startswith("checker."):
                if s.name == "checker.check_general":
                    m["checker.general_s"] += s.dur
                elif s.name == "checker.check_concurrent_implementation":
                    m["checker.impl_s"] += s.dur
                elif s.name in _STRICT:
                    m["checker.strict_s"] += s.dur
    build = m["explorer.build_s"]
    m["explorer.configs_per_s"] = m["explorer.configs"] / build if build else 0.0
    outcomes = m["explorer.outcomes_history"]
    m["checker.useful_ratio"] = m["checker.records"] / outcomes if outcomes else 0.0
    m["explorer.explorations"] = explorations_run / n_queries if n_queries else 0.0
    m["explorer.truncated"] = truncated
    m["explorer.approximate"] = approximate
    m["trace.spans"] = len(spans)
    return m
