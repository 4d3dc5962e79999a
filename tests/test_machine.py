"""Machine core: hand-traced oracles, bounded runs, file round-trips."""

import json
import shutil
import tracemalloc
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfcycle import (CapacityError, Configuration, MachineSpecError, PreconditionError,
                       TMSpec, initial_config, load_machine, run, tape_content)
from halfcycle.machine import DEFAULT_PERIOD_CAP

BLANK = "_"


def canonical(config):
    """A hashable form of ``config``; configurations compare by content but
    hold a dict, so tests that hash them go through this."""
    return (config.state, config.head, tuple(sorted(config.tape.items())))


def reference_step(spec, config):
    """One transition read straight off ``spec.transitions``, without the
    package's stepper: the reference that replayed traces are checked
    against."""
    nstate, wsymbol, move = spec.transitions[(config.state, config.tape.get(config.head, BLANK))]
    tape = {cell: sym for cell, sym in config.tape.items() if cell != config.head}
    if wsymbol != BLANK:
        tape[config.head] = wsymbol
    return Configuration(tape, config.head + {"L": -1, "R": 1, "S": 0}[move], nstate)


def simple_spec(transitions, states, initial, results, alphabet=("0", "1", BLANK)):
    return TMSpec(
        states=frozenset(states),
        alphabet=frozenset(alphabet),
        blank=BLANK,
        transitions=transitions,
        initial=initial,
        result_states=frozenset(results),
    )


def test_incrementer_full_trace_on_zero():
    # hand simulation: scan right over "0", bounce off the blank, write the carry
    inc = load_machine("incrementer")
    trace = run(inc, initial_config(inc, "0"), 100)
    assert trace.halted
    assert trace.n_steps == 3
    expected = [
        Configuration({0: "0"}, 0, "scan"),
        Configuration({0: "0"}, 1, "scan"),
        Configuration({0: "0"}, 0, "carry"),
        Configuration({0: "1"}, 0, "done"),
    ]
    assert list(trace.steps) == expected
    assert trace.result == (0, "1")


@pytest.mark.parametrize("word,expected", [
    ("0", "1"), ("1", "10"), ("11", "100"), ("101", "110"), ("111", "1000"), ("", "1"),
])
def test_incrementer_adds_one(word, expected):
    inc = load_machine("incrementer")
    trace = run(inc, initial_config(inc, word), 1000)
    assert trace.halted
    assert trace.result == (0, expected)


def test_unary_successor_appends_a_mark():
    suc = load_machine("unary_successor")
    trace = run(suc, initial_config(suc, "11"), 100)
    assert trace.halted
    assert trace.result == (0, "111")


@pytest.mark.parametrize("word,bit", [("", "0"), ("1", "1"), ("101", "0"), ("111", "1"), ("1001", "0")])
def test_parity_checker_matches_classical_count(word, bit):
    par = load_machine("parity")
    trace = run(par, initial_config(par, word), 1000)
    assert trace.halted
    assert trace.result == (0, bit)
    assert bit == str(word.count("1") % 2)


def test_loop_machine_exhausts_budget():
    loop = load_machine("loop")
    trace = run(loop, initial_config(loop, ""), 50)
    assert not trace.halted
    assert trace.n_steps == 50
    assert trace.result is None


def test_stay_machine_step_is_identity():
    spec = simple_spec(
        {("q", s): ("q", s, "S") for s in ("0", "1", BLANK)},
        states=["q"], initial="q", results=[],
    )
    config = initial_config(spec, "")
    assert reference_step(spec, config) == config
    assert run(spec, config, 1).final == config


def test_budget_smaller_than_trace():
    inc = load_machine("incrementer")
    trace = run(inc, initial_config(inc, "0"), 1)
    assert not trace.halted
    assert trace.n_steps == 1


def test_run_rejects_zero_budget():
    inc = load_machine("incrementer")
    with pytest.raises(PreconditionError):
        run(inc, initial_config(inc, "0"), 0)


def test_run_refuses_budget_past_the_step_cap():
    # a halted trace of s steps needs a period of at least 2s + 2
    cap = DEFAULT_PERIOD_CAP // 2 - 1
    loop = load_machine("loop")
    config = initial_config(loop, "")
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"step budget {cap + 1} exceeds cap {cap}$"):
            run(loop, config, cap + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16
    inc = load_machine("incrementer")
    assert run(inc, initial_config(inc, "0"), cap).halted


def test_run_keeps_one_tape():
    # 4002 steps over a 2000-cell tape: a trace that kept every configuration
    # would hold ~4000 tape copies (hundreds of MB)
    inc = load_machine("incrementer")
    config = initial_config(inc, "1" * 2000)
    tracemalloc.start()
    try:
        trace = run(inc, config, 10 ** 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.result == (0, "1" + "0" * 2000)
    assert trace.n_steps == 4002
    assert peak < 4 * 2 ** 20


def test_step_is_pure():
    # neither a run nor its replay touches the configuration it started from
    inc = load_machine("incrementer")
    config = initial_config(inc, "0")
    before = canonical(config)
    trace = run(inc, config, 10)
    assert len(trace.steps) == 4 and trace.at(1) != config
    assert canonical(config) == before


def test_step_rejects_unknown_state():
    inc = load_machine("incrementer")
    with pytest.raises(MachineSpecError):
        run(inc, Configuration({}, 0, "nope"), 10)


def test_step_rejects_unknown_symbol():
    inc = load_machine("incrementer")
    with pytest.raises(MachineSpecError):
        run(inc, Configuration({0: "x"}, 0, "scan"), 10)


def test_partial_transition_table_rejected():
    with pytest.raises(MachineSpecError):
        simple_spec({("q", "0"): ("q", "0", "S")}, states=["q"], initial="q", results=[])


def test_configuration_equality_is_canonical():
    assert Configuration({0: "1"}, 0, "q") == Configuration({0: "1"}, 0, "q")
    assert Configuration({0: "1"}, 0, "q") != Configuration({0: "1"}, 1, "q")
    assert Configuration({}, 0, "q") != Configuration({1: "1"}, 0, "q")
    assert Configuration({0: "1", 1: "0"}, 0, "q") == Configuration({1: "0", 0: "1"}, 0, "q")
    assert (hash(canonical(Configuration({0: "1", 1: "0"}, 0, "q")))
            == hash(canonical(Configuration({1: "0", 0: "1"}, 0, "q"))))


def test_result_reads_tape_left_to_right():
    par = load_machine("parity")
    config = Configuration({-2: "1", 3: "0", 0: "1"}, 0, "done")
    assert run(par, config, 5).result == (0, "110")
    assert run(par, Configuration({0: "1"}, 0, "even"), 1).result is None  # not halted


def test_initial_config_rejects_foreign_symbols():
    inc = load_machine("incrementer")
    with pytest.raises(MachineSpecError):
        initial_config(inc, "2")


def test_machine_file_round_trip(tmp_path):
    inc = load_machine("incrementer")
    path = tmp_path / "inc.json"
    with resources.as_file(resources.files("halfcycle") / "machines/incrementer.json") as shipped:
        shutil.copy(shipped, path)
    again = load_machine(path)
    assert again.transitions == inc.transitions
    assert again.result_states == inc.result_states
    trace = run(again, initial_config(again, "11"), 100)
    assert trace.result == (0, "100")


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"states": [,]}')
    with pytest.raises(MachineSpecError, match="line"):
        load_machine(path)


def test_missing_field_reported(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"states": ["q"], "alphabet": ["_"]}))
    with pytest.raises(MachineSpecError, match="blank"):
        load_machine(path)


SHIPPED = json.loads((resources.files("halfcycle") / "machines/incrementer.json").read_text())


@pytest.mark.parametrize("field, value, message", [
    ("transitions", 5, "'transitions' must be a list$"),
    ("states", 7, "'states' must be a list of strings"),
    ("alphabet", ["0", 1, "_"], "'alphabet' must be a list of strings"),
    ("result_states", "done", "'result_states' must be a list of strings"),
    ("blank", ["_"], "'blank' must be a string"),
    ("initial", None, "'initial' must be a string"),
    ("transitions", [["scan", "0", ["scan"], "0", "R"]], "transitions.0. is not a list of five"),
    ("transitions", [["scan", "0", "scan", "0", ["R"]]], "transitions.0. is not a list of five"),
    ("transitions", ["scan0"], "transitions.0. is not a list of five"),
    ("transitions", [["scan", "0", "scan", "0"]], "transitions.0. is not a list of five"),
])
def test_machine_file_with_wrong_json_types_rejected(tmp_path, field, value, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**SHIPPED, field: value}))
    with pytest.raises(MachineSpecError, match=message):
        load_machine(path)


def test_machine_file_must_hold_an_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(list(SHIPPED)))
    with pytest.raises(MachineSpecError, match="JSON object"):
        load_machine(path)


# --- property tests over random total machines -----------------------------

SYMS = ("0", "1", BLANK)


@st.composite
def total_machines(draw):
    n_states = draw(st.integers(1, 4))
    states = [f"s{i}" for i in range(n_states)]
    transitions = {}
    for state in states:
        for sym in SYMS:
            transitions[(state, sym)] = (
                draw(st.sampled_from(states)),
                draw(st.sampled_from(SYMS)),
                draw(st.sampled_from(("L", "R", "S"))),
            )
    results = draw(st.sets(st.sampled_from(states), max_size=n_states - 1)) if n_states > 1 else set()
    return simple_spec(transitions, states=states, initial="s0", results=results)


@given(total_machines(), st.text(alphabet="01", max_size=5), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_trace_consistency_and_canonical_tape(spec, word, budget):
    trace = run(spec, initial_config(spec, word), budget)
    steps = trace.steps
    assert len(steps) == trace.n_steps + 1
    for a, b in zip(steps, steps[1:]):
        assert reference_step(spec, a) == b
        assert BLANK not in b.tape.values()
    assert [trace.at(i) for i in range(len(steps))] == list(steps)
    assert trace.final == steps[-1]
    for i in (-1, trace.n_steps + 1):
        with pytest.raises(IndexError):
            trace.at(i)
    assert trace.n_steps <= budget
    if trace.halted:
        assert steps[-1].state in spec.result_states
        assert trace.result == (0, tape_content(steps[-1]))


@given(total_machines(), st.text(alphabet="01", max_size=4))
@settings(max_examples=40, deadline=None)
def test_step_is_deterministic(spec, word):
    config = initial_config(spec, word)
    first, again = run(spec, config, 10), run(spec, config, 10)
    assert first.steps == again.steps
    assert first.final == again.final and first.n_steps == again.n_steps
