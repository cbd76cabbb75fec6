"""Slow reference implementations that the fast paths are tested against."""

from typing import Any, Sequence

from strictlin.explorer import Config, ExecutionResult, Kind, _Interp, _projector
from strictlin.models import ObjectModel
from strictlin.programs import Program
from strictlin.values import Value


def enumerate_executions_naive(
    prog: Program,
    model: ObjectModel,
    init_client: Sequence[tuple[str, Value]] = (),
    init_obj: Any = None,
    max_steps: int = 10_000,
    projection: str = "full",
) -> frozenset[ExecutionResult]:
    """Schedule-by-schedule enumeration without configuration hashing.

    Exponential; a cross-check oracle for small programs.  Divergence is
    detected by a configuration repeat along the current schedule.
    """
    obj = model.initial_state if init_obj is None else init_obj
    interp = _Interp(prog, model, tuple(sorted(init_client)), obj)
    keep = _projector(projection)
    results: set[ExecutionResult] = set()

    def walk(c: Config, trace: tuple, path: dict, depth: int) -> None:
        if depth > max_steps:
            results.add(ExecutionResult(trace, Kind.UNKNOWN, note="step budget exhausted"))
            return
        succ = interp.successors(c)
        if not succ:
            if all(t.done for t in c.threads) and c.phase + 1 >= len(prog.phases):
                results.add(ExecutionResult(trace, Kind.TERMINATED, c.client, c.obj))
            else:
                results.add(
                    ExecutionResult(
                        trace, Kind.OBJECT_DIVERGENT, note="all pending threads blocked"
                    )
                )
            return
        for tr in succ:
            ev = tuple(e for e in tr.events if keep(e))
            if tr.target is None:
                results.add(ExecutionResult(trace + ev, Kind.ABORTED, note="runtime error"))
                continue
            if tr.target in path:
                cut = path[tr.target]
                cyc = trace[cut:] + ev
                kind = (
                    Kind.CLIENT_DIVERGENT
                    if all(e.is_client for e in cyc)
                    else Kind.OBJECT_DIVERGENT
                )
                results.add(ExecutionResult(trace[:cut], kind, cycle=cyc))
                continue
            path[tr.target] = len(trace + ev)
            walk(tr.target, trace + ev, path, depth + 1)
            del path[tr.target]

    walk(interp.init, (), {interp.init: 0}, 0)
    return frozenset(results)
