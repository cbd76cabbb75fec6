"""Mutant models: which checks catch each seeded fault, and on what history.

The mutants and their pins are in ``tests/mutants.py``.
"""

import pytest

from mutants import mutants
from strictlin import checker, explorer, specs
from strictlin.checker import RecordedExecution, brute_force_linearizations, find_linearization
from strictlin.history import parse_history, serialize_history
from strictlin.programs import parse_program
from strictlin.specs import legal_seq_outcomes

MUTANTS = mutants()
IDS = [m.name for m in MUTANTS]


def _verdicts(model, m):
    """The strict, general and impl reports on ``m``'s program over
    ``model``, and whether ``compare`` finds the two sides alike, each as
    the CLI decides it."""
    prog = parse_program(m.program)
    ex = explorer.explore(prog, model)
    reports = {mode: checker.check_exploration(ex, mode, specs.queue_adt(), m.af)
               for mode in ("strict", "general", "impl")}
    _, _, verdict, _ = explorer.compare(ex, explorer.run_atomic(prog, model.seq_spec))
    return reports, verdict == "pass"


@pytest.mark.parametrize("m", MUTANTS, ids=IDS)
def test_mutant_keeps_the_shipped_spec(m):
    assert m.model.seq_spec is m.shipped.seq_spec
    assert m.model.methods != m.shipped.methods


@pytest.mark.parametrize("m", MUTANTS, ids=IDS)
def test_shipped_model_passes_the_mutant_program(m):
    reports, alike = _verdicts(m.shipped, m)
    assert [mode for mode, r in reports.items() if r.verdict != "pass"] == []
    assert alike


@pytest.mark.parametrize("m", MUTANTS, ids=IDS)
def test_mutant_is_caught_by_the_pinned_checks(m):
    reports, alike = _verdicts(m.model, m)
    caught = {mode for mode, r in reports.items() if r.verdict == "fail"}
    if not alike:
        caught.add("compare")
    assert caught == m.caught
    for mode in caught - {"compare"}:
        assert (len(reports[mode].failing()), len(reports[mode].entries)) == m.failing, mode
    first = reports["strict"].failing()[0].execution
    assert serialize_history(first.history) == m.history
    assert first.final_state == m.final


def test_dequeue_past_a_lost_tail_aborts():
    # the plain link can leave Tail on a lost node; a dequeue that then finds
    # Head with no successor although Head != Tail aborts instead of raising
    m = next(m for m in MUTANTS if m.name == "ms-plain-link")
    prog = parse_program("thread { call Q.Enqueue('a') ; call y2 = Q.Dequeue() }\n"
                         "thread { call Q.Enqueue('a') ; call y4 = Q.Dequeue() }")
    ex = explorer.explore(prog, m.model)
    assert ex.has_abort
    assert checker.check_exploration(ex, "strict").verdict == "fail"


@pytest.mark.parametrize("m", MUTANTS, ids=IDS)
def test_pinned_history_fails_by_brute_force(m):
    # no order-consistent permutation of the history is a legal sequential
    # run reaching its final state; one is legal at all exactly when the
    # general check, which ignores final states, lets the mutant pass
    h = parse_history(m.history)
    assert len(h.operations()) <= 4
    spec = m.shipped.seq_spec
    start = spec.initial_states[0]
    perms = brute_force_linearizations(h)
    assert perms
    finals = [spec.state_key(s) for w in perms for s in legal_seq_outcomes(spec, start, w)]
    assert spec.state_key(m.final) not in finals
    assert bool(finals) == ("general" not in m.caught)
    lin = find_linearization(RecordedExecution(start, h, True, m.final), spec)
    assert (lin is None) == ("general" in m.caught)
    assert lin is None or lin.strict is None
