"""Object models: step machines, companion specs, abstraction functions."""

import itertools

import pytest

from strictlin import explorer, models
from strictlin.models import (
    Done,
    HWQueueState,
    MSQueueState,
    enumerate_ms_states,
    hw_model,
    ms_model,
    coarse_queue_model,
    ms_state_key,
    ms_well_formed,
)
from strictlin.programs import parse_program
from strictlin.specs import DEFAULT_ALPHABET, apply, enumerate_sequences
from strictlin.values import EMPTY, NULL, UNIT


def run_in_isolation(model, method, arg, state, max_steps=200):
    """Drive one method alone: (final state, return) on termination, 'abort',
    or 'divergent' when a configuration repeats without a state change."""
    machine = model.methods[method]
    ((local, state),) = machine.start(arg, state)  # fine-grained: never blocks
    seen = {(repr(local), model.seq_spec.state_key(state))}
    for _ in range(max_steps):
        if isinstance(local, Done):
            return state, local.value
        (step,) = machine.step(local, state)  # deterministic in isolation
        if step.abort:
            return "abort"
        local, state = step.local, step.shared
        key = (repr(local), model.seq_spec.state_key(state))
        if key in seen:
            return "divergent"
        seen.add(key)
    raise AssertionError("isolation run exceeded step cap")


# ---------------------------------------------------------------------------
# array queue
# ---------------------------------------------------------------------------


def test_hw_sequential_enqueue_dequeue():
    m = hw_model(4)
    s1, r1 = run_in_isolation(m, "Enqueue", "c", m.seq_spec.initial_states[0])
    assert r1 is UNIT and s1 == HWQueueState(2, ("c", NULL, NULL, NULL))
    s2, r2 = run_in_isolation(m, "Dequeue", UNIT, s1)
    assert r2 == "c" and s2.items == (NULL,) * 4


def test_hw_dequeue_spins_on_empty():
    m = hw_model(4)
    assert run_in_isolation(m, "Dequeue", UNIT, m.seq_spec.initial_states[0]) == "divergent"


def test_hw_enqueue_aborts_past_bound():
    m = hw_model(2)
    s = HWQueueState(3, ("a", "b"))
    assert run_in_isolation(m, "Enqueue", "c", s) == "abort"


def test_hw_fig3_final_state_reachable():
    from strictlin.reproductions import TWO_ENQUEUES_ONE_DEQUEUE, FIG3_FINAL

    m = hw_model(4)
    ex = explorer.explore(TWO_ENQUEUES_ONE_DEQUEUE, m)
    finals = {ex.states[ex.config(i).sid] for i in ex.terminal_done}
    assert FIG3_FINAL in finals


# ---------------------------------------------------------------------------
# linked queue
# ---------------------------------------------------------------------------


def test_ms_sequential_enqueue_dequeue():
    m = ms_model(4)
    s1, r1 = run_in_isolation(m, "Enqueue", 1, m.seq_spec.initial_states[0])
    assert r1 is UNIT
    s2, r2 = run_in_isolation(m, "Dequeue", UNIT, s1)
    assert r2 == 1


def test_ms_dequeue_fresh_returns_empty():
    m = ms_model(4)
    s, r = run_in_isolation(m, "Dequeue", UNIT, m.seq_spec.initial_states[0])
    assert r is EMPTY and s == m.seq_spec.initial_states[0]


def test_ms_enqueue_aborts_when_pool_exhausted():
    m = ms_model(2)
    s1, _ = run_in_isolation(m, "Enqueue", "a", m.seq_spec.initial_states[0])
    assert run_in_isolation(m, "Enqueue", "b", s1) == "abort"


def test_ms_well_formedness_quiescent_vs_lagging():
    states = list(enumerate_ms_states(4, ("a", "b")))
    assert all(ms_well_formed(s) for s in states)
    # mid-enqueue lag: linked but tail not swung
    m = ms_model(3)
    s = m.seq_spec.initial_states[0]
    s = models._ms_set_node(s, 1, models.Node("a", None, True))
    s = models._ms_set_node(s, 0, models.Node(NULL, 1, True))
    lag = s  # tail still points at the dummy
    assert not ms_well_formed(lag)
    assert m.invariant_ok(lag)


def test_ms_state_key_forgets_node_identity():
    # same list through nodes 0->1 vs 0->2; equal canonical keys
    a = MSQueueState(
        (models.Node(NULL, 1, True), models.Node("a", None, True), models.FREE_NODE),
        0, 1,
    )
    b = MSQueueState(
        (models.Node(NULL, 2, True), models.FREE_NODE, models.Node("a", None, True)),
        0, 2,
    )
    assert a != b and ms_state_key(a) == ms_state_key(b)
    assert models.ms_render(a) == models.ms_render(b)


def test_ms_render_shows_garbage():
    s = MSQueueState(
        (models.Node("x", None, True), models.Node("g", None, True)), 0, 0
    )
    assert "garbage=[g]" in models.ms_render(s)


def test_ms_invariant_preserved_during_exploration():
    m = ms_model(3)
    p = parse_program("thread { call Q.Enqueue('a') }\nthread { call y = Q.Dequeue() }")
    ex = explorer.explore(p, m)
    # every configuration's object state is in the table, numbered once
    assert {ex.config(i).sid for i in range(len(ex.configs))} == set(range(len(ex.states)))
    assert len(set(ex.states)) == len(ex.states)
    assert all(m.invariant_ok(s) for s in ex.states)
    assert all(ms_well_formed(ex.states[ex.config(i).sid]) for i in ex.terminal_done)


# ---------------------------------------------------------------------------
# coarse queue
# ---------------------------------------------------------------------------


def test_coarse_queue_matches_adt_semantics():
    m = coarse_queue_model(4)
    s, r = run_in_isolation(m, "Enqueue", "c", m.seq_spec.initial_states[0])
    assert r is UNIT and s[-1] == ("c",)
    s2, r2 = run_in_isolation(m, "Dequeue", UNIT, s)
    assert r2 == "c" and s2[-1] == ()
    _, r3 = run_in_isolation(m, "Dequeue", UNIT, m.seq_spec.initial_states[0])
    assert r3 is EMPTY


# ---------------------------------------------------------------------------
# companion-spec agreement: the machine run alone reproduces the spec
# ---------------------------------------------------------------------------


ALPHABET = ("a", "b")


def _hw_states(n):
    # every cell over the alphabet + null, cells at or past back included
    for back in range(1, n + 2):
        for items in itertools.product((NULL,) + ALPHABET, repeat=n):
            yield HWQueueState(back, items)


def _reached_ms_states(model):
    # every state the spec reaches from each seeded start: head moved,
    # garbage nodes left behind, the pool partly used up
    p = len(model.seq_spec.initial_states[0].nodes)
    todo = [model.seq_spec.seed_state(vs)
            for k in range(p) for vs in itertools.product(ALPHABET, repeat=k)]
    seen = set(todo)
    while todo:
        s = todo.pop()
        for method in model.method_names():
            for arg in (ALPHABET if method == "Enqueue" else (UNIT,)):
                for s2, _ in apply(model.seq_spec, method, s, arg):
                    if s2 not in seen:
                        seen.add(s2)
                        todo.append(s2)
    return sorted(seen, key=repr)


def _agreement_cases():
    yield [(hw_model(n), list(_hw_states(n))) for n in (1, 2, 3)]
    yield [(m, _reached_ms_states(m)) for m in (ms_model(3), ms_model(4))]
    yield [(coarse_queue_model(c), [(c, q) for q in enumerate_sequences(ALPHABET, c)])
           for c in (0, 1, 2)]


@pytest.mark.parametrize("cases", list(_agreement_cases()), ids=["hw", "ms", "coarse"])
def test_companion_spec_agreement(cases):
    # the relation derived from each machine, and the spec built from it,
    # give exactly the one outcome of the lone run, or none where the lone
    # run aborts or spins
    for model, states in cases:
        for state in states:
            for method in model.method_names():
                for arg in (ALPHABET if method == "Enqueue" else (UNIT,)):
                    got = run_in_isolation(model, method, arg, state)
                    want = () if got in ("abort", "divergent") else (got,)
                    derived = models.sequential_relation(model.methods[method])
                    assert set(derived(state, arg)) == set(want), (state, method, arg)
                    assert apply(model.seq_spec, method, state, arg) == want


def test_hw_purely_blocking_from_reachable_configurations():
    # every pending method, run alone, terminates or leaves the state as it was
    from strictlin.reproductions import TWO_ENQUEUES_ONE_DEQUEUE

    m = hw_model(4)
    ex = explorer.explore(TWO_ENQUEUES_ONE_DEQUEUE, m)
    for cfg in map(ex.config, range(len(ex.configs))):
        for ts in cfg.threads:
            if ts.done:
                continue
            rule, stmt, _, _ = ex.code[ts.pc]
            if rule is not explorer.Exploration._body or isinstance(ts.reg, Done):
                continue
            machine = m.methods[stmt.method]
            local, state = ts.reg, ex.states[cfg.sid]
            seen = set()
            for _ in range(200):
                if isinstance(local, Done):
                    break
                key = (repr(local), state)
                if key in seen:
                    assert state == ex.states[cfg.sid]  # spinning must not modify state
                    break
                seen.add(key)
                (step,) = machine.step(local, state)
                assert not step.abort
                local, state = step.local, step.shared
            else:
                raise AssertionError("isolation run neither terminated nor looped")


# ---------------------------------------------------------------------------
# abstraction functions
# ---------------------------------------------------------------------------


def _list_state(values, pool=4):
    nodes = [
        models.Node(v, i + 1 if i + 1 < len(values) else None, True)
        for i, v in enumerate(values)
    ]
    nodes += [models.FREE_NODE] * (pool - len(values))
    return MSQueueState(tuple(nodes), 0, len(values) - 1)


def test_af_dummy_only():
    s = _list_state([NULL])
    assert models.af_queue()(s) == ()
    assert models.af_pseudo()(s) == (NULL,)
    assert models.af_multiset()(s) == ()


def test_af_two_elements():
    s = _list_state([NULL, "a", "b"])
    assert models.af_queue()(s) == ("a", "b")
    assert models.af_pseudo()(s) == (NULL, "a", "b")
    assert models.af_multiset()(s) == ("a", "b")


def test_af_dummy_value_distinguishes_pseudo_only():
    s1, s2 = _list_state(["u", "a"]), _list_state(["v", "a"])
    assert models.af_queue()(s1) == models.af_queue()(s2)
    assert models.af_pseudo()(s1) != models.af_pseudo()(s2)


def test_af_rejects_malformed_state():
    s = _list_state([NULL, "a"])
    bad = models.MSQueueState(s.nodes, 0, 0)  # tail lags behind the last node
    with pytest.raises(ValueError):
        models.af_pseudo()(bad)


def test_ms_tail_off_the_list_is_keyed_and_rendered_as_malformed():
    # a lost enqueue leaves Tail on an allocated node the list skips; two
    # such states that differ only in the lost value render differently
    lost = [
        models.MSQueueState((models.Node(NULL, 1, True), models.Node(a, None, True),
                             models.Node(b, None, True)), 0, 2)
        for a, b in (("a", "b"), ("b", "a"))
    ]
    keys = [models.ms_state_key(s) for s in lost]
    assert keys[0] != keys[1] and all(k[0] == "ms-malformed" for k in keys)
    lines = [models.ms_render(s) for s in lost]
    assert lines == ["malformed head=n0 tail=n2 nodes=[n0:null->n1,n1:'a',n2:'b']",
                     "malformed head=n0 tail=n2 nodes=[n0:null->n1,n1:'b',n2:'a']"]
    assert not any(map(models.ms_invariant_ok, lost))


@pytest.mark.parametrize("state, line", [
    pytest.param(MSQueueState((models.Node(NULL, 1, True), models.Node("a", 0, True)), 0, 1),
                 "malformed head=n0 tail=n1 nodes=[n0:null->n1,n1:'a'->n0]", id="cycle"),
    pytest.param(MSQueueState((models.Node(NULL, 1, True), models.FREE_NODE), 0, 0),
                 "malformed head=n0 tail=n0 nodes=[n0:null->n1,n1:free:null]", id="onto-free"),
    pytest.param(MSQueueState((models.Node(NULL, 2, True), models.Node("a", None, True)), 0, 0),
                 "malformed head=n0 tail=n0 nodes=[n0:null->n2,n1:'a']", id="off-the-pool"),
])
def test_ms_cyclic_or_escaping_list_is_keyed_and_rendered_as_malformed(state, line):
    assert models.ms_list_indices(state) is None
    assert ms_state_key(state) == ("ms-malformed", state.nodes, state.head, state.tail)
    assert models.ms_render(state) == line
    assert not ms_well_formed(state) and not models.ms_invariant_ok(state)


def test_integer_cell_renders_as_its_value():
    p = parse_program("thread { call Q.Enqueue(5) }")
    (line,) = explorer.final_states(explorer.explore(p, hw_model(4))).renderings
    assert line == "client: - | object: back=2 items=[5,·,·,·]"


def _reference_samples(model, size, alphabet):
    """Each model's state sample as its own loops built it, kept as the
    reference for the samplers that go through the spec's contents."""
    if model == "hw-queue":  # every cell at or past back is null
        for back in range(1, size + 2):
            for used in itertools.product((NULL,) + alphabet, repeat=back - 1):
                yield HWQueueState(back, used + (NULL,) * (size - back + 1))
    elif model == "ms-queue":  # the dummy holds null or a symbol
        for length in range(1, size + 1):
            for dummy in (NULL,) + alphabet:
                for rest in itertools.product(alphabet, repeat=length - 1):
                    yield _list_state((dummy,) + rest, size)
    else:
        for length in range(size + 1):
            for seq in itertools.product(alphabet, repeat=length):
                yield (size, seq)


@pytest.mark.parametrize("model, size", [("hw-queue", n) for n in (1, 2, 3, 4)]
                         + [("ms-queue", p) for p in (2, 3, 4)]
                         + [("coarse-queue", c) for c in (0, 1, 2, 3)])
def test_sampled_states_match_the_reference_in_order(model, size):
    factory = {"hw-queue": hw_model, "ms-queue": ms_model, "coarse-queue": coarse_queue_model}
    m = factory[model](size)
    want = list(_reference_samples(model, size, DEFAULT_ALPHABET))
    assert list(m.enumerate_states(DEFAULT_ALPHABET)) == want


def test_model_registry():
    assert models.parse_model_ref("hw-queue,N=3").seq_spec.initial_states[0].items == (NULL,) * 3
    assert models.parse_model_ref("ms-queue,P=2").seq_spec.initial_states[0].nodes[0].allocated


# parameter syntax and repeats are checked before the model name, then each
# parameter in the order given; a parameter without ``=`` is quoted unstripped
@pytest.mark.parametrize("ref,message", [
    ("no-such-model", "unknown model 'no-such-model'"),
    ("hw-queue,N", "bad model parameter 'N'"),
    ("hw-queue, N", "bad model parameter ' N'"),
    ("foo,N=2,N=3", "foo: parameter N given twice"),
    ("hw-queue,N=x,P=2", "hw-queue: parameter N must be an integer, not 'x'"),
    ("hw-queue,P=x,N=2", "hw-queue takes parameter 'N', not 'P'"),
    ("hw-queue,P=2", "hw-queue takes parameter 'N', not 'P'"),
    ("ms-queue,P=2,N=9", "ms-queue takes parameter 'P', not 'N'"),
    ("coarse-queue,N=2", "coarse-queue takes parameter 'C', not 'N'"),
    ("hw-queue,=3", "hw-queue takes parameter 'N', not ''"),
    ("hw-queue,N=2,N=3", "hw-queue: parameter N given twice"),
    ("hw-queue,N=x", "hw-queue: parameter N must be an integer, not 'x'"),
    ("hw-queue,N=\u0662", "hw-queue: parameter N must be an integer, not '\u0662'"),
    ("ms-queue,P=03", "ms-queue: parameter P must be an integer, not '03'"),
    ("coarse-queue,C=-1", "queue capacity C must be >= 0"),
])
def test_model_registry_rejects_unknown_parameters(ref, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        models.parse_model_ref(ref)
