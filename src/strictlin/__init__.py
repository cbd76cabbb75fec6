"""Bounded model exploration and linearizability checking for small
concurrent objects.

The package is organized around five layers:

* :mod:`strictlin.history`  -- events, histories, completions, the
  happened-before order, and the linearization relation;
* :mod:`strictlin.specs`    -- sequential specifications, ADTs, abstraction
  and renaming functions, and bounded refinement checks;
* :mod:`strictlin.models`   -- executable object models (array queue,
  lock-free linked queue, coarse-grained control queue);
* :mod:`strictlin.explorer` -- exhaustive interleaving exploration,
  divergence detection, client traces and final states, and atomic-version
  comparisons;
* :mod:`strictlin.checker`  -- strict/general linearizability and
  concurrent-implementation checks over recorded executions.
"""

# the models register their specs and abstraction functions with ``specs``
# as they load, so a lookup by name finds them whatever was imported first
from . import models  # noqa: F401
from .history import (
    Event,
    History,
    completions,
    happened_before,
    history,
    is_complete,
    is_sequential,
    is_well_formed,
    linearizes,
    parse_history,
    pending,
    project_thread,
    serialize_history,
)
from .values import EMPTY, NULL, UNIT, Value

__all__ = [
    "EMPTY",
    "NULL",
    "UNIT",
    "Event",
    "History",
    "Value",
    "completions",
    "happened_before",
    "history",
    "is_complete",
    "is_sequential",
    "is_well_formed",
    "linearizes",
    "parse_history",
    "pending",
    "project_thread",
    "serialize_history",
]
