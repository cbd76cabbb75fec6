"""Sequential specs, ADTs, abstraction functions, refinement checks."""

import dataclasses
import os
import subprocess
import sys

import pytest

import strictlin
from strictlin import models, specs
from strictlin.history import history, inv, ret, ret_abort
from strictlin.specs import (
    AbstractionFunction,
    Adt,
    RenamingFunction,
    SeqSpec,
    UnknownMethodError,
    apply,
    injectivity_scan,
    is_sequential_implementation,
    legal_seq_outcomes,
    multiset_adt,
    pseudo_queue_adt,
    queue_adt,
)
from strictlin.values import EMPTY, NULL, UNIT


def seq(*pairs):
    ev = []
    for i, (m, a, r) in enumerate(pairs, start=1):
        ev.append(inv(1, i, m, a))
        ev.append(ret(1, i, r))
    return history(ev)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


def test_queue_enqueue_appends():
    assert apply(queue_adt(), "Enqueue", (), "c") == ((("c",), UNIT),)


def test_queue_dequeue_empty_returns_empty():
    assert apply(queue_adt(), "Dequeue", (), UNIT) == (((), EMPTY),)


def test_multiset_remove_two_outcomes():
    # distinct outcomes in repr order of the (state, return) pair
    got = apply(multiset_adt(), "Remove", ("a", "b"), UNIT)
    assert got == ((("a",), "b"), (("b",), "a"))


def test_pseudo_queue_single_element_keeps_it():
    assert apply(pseudo_queue_adt(), "Dequeue", ("x",), UNIT) == ((("x",), EMPTY),)


def test_pseudo_queue_dequeue_discards_front_returns_new_front():
    assert apply(pseudo_queue_adt(), "Dequeue", ("x", "a", "b"), UNIT) == (
        (("a", "b"), "a"),
    )


def test_pseudo_queue_blocks_on_empty():
    assert not apply(pseudo_queue_adt(), "Dequeue", (), UNIT)


def test_unknown_method():
    with pytest.raises(UnknownMethodError):
        apply(queue_adt(), "Pop", (), UNIT)
    # an abstract method the renaming does not reach
    spec = specs.get_spec("coarse-queue-seq")
    with pytest.raises(UnknownMethodError, match="^renaming: unknown abstract method 'Add'$"):
        is_sequential_implementation(spec, multiset_adt(), AbstractionFunction(
            "contents", lambda s: s[-1]), RF_ID, spec.initial_states)


def test_apply_respects_state_domain():
    adt = multiset_adt()
    for st in [(), ("a",), ("a", "a", "b")]:
        for m in adt.method_names():
            for inp in adt.method_inputs[m]:
                for s2, _ in apply(adt, m, st, inp):
                    assert adt.is_state(s2)


# ---------------------------------------------------------------------------
# legal sequential outcomes
# ---------------------------------------------------------------------------


def test_legal_outcomes_narrative_sequence():
    h = seq(("Enqueue", "d", UNIT), ("Enqueue", "c", UNIT), ("Dequeue", UNIT, "d"))
    assert legal_seq_outcomes(queue_adt(), (), h) == {("c",)}


def test_legal_outcomes_empty_history():
    assert legal_seq_outcomes(queue_adt(), ("a",), history([])) == {("a",)}


def test_legal_outcomes_illegal_return():
    h = seq(("Dequeue", UNIT, "z"),)
    assert legal_seq_outcomes(queue_adt(), (), h) == frozenset()


def test_legal_outcomes_multiset_fold():
    h = seq(("Remove", UNIT, "a"), ("Remove", UNIT, "b"))
    assert legal_seq_outcomes(multiset_adt(), ("a", "b"), h) == {()}


def test_legal_outcomes_deterministic_spec_at_most_one():
    adt = queue_adt()
    h = seq(("Enqueue", "a", UNIT), ("Dequeue", UNIT, "a"))
    assert len(legal_seq_outcomes(adt, (), h)) <= 1


def test_legal_outcomes_of_an_aborted_operation_are_empty():
    h = history([inv(1, 1, "Enqueue", "a"), ret(1, 1, UNIT),
                 inv(1, 2, "Dequeue", UNIT), ret_abort(1, 2)])
    assert legal_seq_outcomes(queue_adt(), (), h) == frozenset()


@pytest.mark.parametrize("events, message", [
    pytest.param([inv(1, 1, "Enqueue", "a"), inv(2, 2, "Dequeue", UNIT),
                  ret(1, 1, UNIT), ret(2, 2, "a")], "history is not sequential", id="overlap"),
    pytest.param([inv(1, 1, "Enqueue", "a"), ret(1, 1, UNIT), inv(1, 2, "Dequeue", UNIT)],
                 "history is not complete", id="pending"),
])
def test_legal_outcomes_refuse_a_history_that_is_no_sequential_execution(events, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        legal_seq_outcomes(queue_adt(), (), history(events))


# ---------------------------------------------------------------------------
# sequential implementation
# ---------------------------------------------------------------------------

RF_ID = RenamingFunction.identity(("Enqueue", "Dequeue"))
RF_MSET = RenamingFunction.of({"Enqueue": "Add", "Dequeue": "Remove"})


def test_hw_implements_queue_over_reachable_states():
    m = models.hw_model(4)
    states = list(m.enumerate_states(("a", "b")))
    v = is_sequential_implementation(
        m.seq_spec, queue_adt(), models.af_hw_prefix(), RF_ID, states
    )
    assert v.ok and v.states_checked == len(states)


def test_ms_implements_pseudo_queue():
    m = models.ms_model(4)
    states = list(models.enumerate_ms_states(4, ("a", "b")))
    v = is_sequential_implementation(
        m.seq_spec, pseudo_queue_adt(), models.af_pseudo(), RF_ID, states
    )
    assert v.ok


def test_ms_implements_multiset():
    m = models.ms_model(4)
    states = list(models.enumerate_ms_states(4, ("a", "b")))
    v = is_sequential_implementation(
        m.seq_spec, multiset_adt(), models.af_multiset(), RF_MSET, states
    )
    assert v.ok


def test_broken_queue_spec_yields_counterexample():
    def last_out_dequeue(s, _):
        for i in range(s.back - 1, 0, -1):
            if s.items[i - 1] is not NULL:
                items = list(s.items)
                items[i - 1] = NULL
                return [(dataclasses.replace(s, items=tuple(items)), s.items[i - 1])]
        return []

    broken = models.hw_model(4).seq_spec
    broken.methods = dict(broken.methods, Dequeue=last_out_dequeue)
    states = list(models.hw_model(4).enumerate_states(("a", "b")))
    v = is_sequential_implementation(
        broken, queue_adt(), models.af_hw_prefix(), RF_ID, states
    )
    assert not v.ok
    assert v.counterexample.method == "Dequeue"


_MULTISET_AS_QUEUE = """
from strictlin.specs import (AbstractionFunction, RenamingFunction,
                             is_sequential_implementation, multiset_adt, queue_adt)
v = is_sequential_implementation(
    multiset_adt(), queue_adt(), AbstractionFunction("identity", lambda s: s),
    RenamingFunction.of({"Add": "Enqueue", "Remove": "Dequeue"}), [("a", "b", "c")])
print(v.counterexample.detail)
"""


def test_impl_counterexample_does_not_depend_on_hash_seed():
    """A multiset Remove has three outcomes at {a,b,c}, two of them with no
    queue match; the one reported is the first in ``apply``'s order under
    every string hash seed."""
    src = os.path.dirname(os.path.dirname(strictlin.__file__))
    details = [
        subprocess.run([sys.executable, "-c", _MULTISET_AS_QUEUE],
                       env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src),
                       capture_output=True, text=True, check=True).stdout
        for seed in range(10)
    ]
    assert details == ["concrete outcome ({'a','b'}, 'c') has no abstract match\n"] * 10


_LOOKUP_FIRST = """
from strictlin import specs
print(specs.get_spec("hw-queue-seq").name, specs.get_af("af-queue").name)
"""


def test_spec_and_af_lookups_do_not_depend_on_import_order():
    """A fresh interpreter that imports ``specs`` alone finds the specs and
    abstraction functions that ``models`` registers."""
    src = os.path.dirname(os.path.dirname(strictlin.__file__))
    out = subprocess.run([sys.executable, "-c", _LOOKUP_FIRST],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out == "hw-queue-seq af-queue\n"


# ---------------------------------------------------------------------------
# abstraction functions
# ---------------------------------------------------------------------------


def test_af_queue_not_injective():
    af = models.af_queue()
    states = list(models.enumerate_ms_states(4, ("a", "b")))
    collisions = injectivity_scan(af, states, models.ms_state_key)
    assert collisions  # dummy values differ, images agree


def test_seed_state_needs_from_contents():
    with pytest.raises(ValueError, match="^plain: no contents-based initial state$"):
        SeqSpec("plain", {}, ((),)).seed_state(())


def test_renaming_must_be_bijective():
    with pytest.raises(ValueError):
        RenamingFunction.of({"A": "X", "B": "X"})
