"""Cycle builder: construction arithmetic, verification, window helpers."""

import time
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfcycle import (CapacityError, PreconditionError, alpha_for_period,
                       build_alpha_cycle, centered_window, initial_config, load_machine,
                       run, verify_cycle)
from halfcycle.cycle import LabeledCycle, cycle_result
from halfcycle.machine import Configuration, TMSpec, Trace

HALTING_MACHINES = {"incrementer": "01", "unary_successor": "1", "parity": "01"}


def canonical(config):
    """A hashable form of ``config`` (configurations compare by content but
    hold a dict)."""
    return (config.state, config.head, tuple(sorted(config.tape.items())))


def tag(cycle, j):
    """(phase, counter) control tag of cycle position ``j``: the phase is
    "fwd", "wait", "unwind" or "rev", and the counter is the number of
    steps already taken in it (j taken mod p)."""
    s, w = cycle.s, cycle.w
    j %= cycle.p
    if j < s:
        return ("fwd", j)
    if j < s + w:
        return ("wait", j - s)
    if j < s + 2 * w:
        return ("unwind", j - s - w)
    return ("rev", j - s - 2 * w)


def enumerated_verdict(cycle):
    """``(ok, violations)`` of verify_cycle, found by walking all p
    positions and checking every invariant of a waiting cycle: the
    reference that the fields and the one ratio check must agree with."""
    p, s = cycle.p, cycle.s
    v = []
    if p % 2 != 0:
        v.append("period is odd")
    true_idx = [j for j in range(p) if cycle_result(cycle, j)[0] == 0]
    if true_idx != list(cycle.window):
        v.append("labels are not true exactly on the window")
    if not true_idx or true_idx != list(range(true_idx[0], true_idx[-1] + 1)):
        v.append("window is empty or not contiguous")
    if Fraction(len(true_idx), p) < cycle.alpha_requested:
        v.append("waiting ratio below requested alpha")
    if p // 2 not in true_idx:
        v.append("midpoint p/2 outside window")
    if len({tag(cycle, j) for j in range(p)}) != p:
        v.append("cycle states are not pairwise distinct")
    idx = list(map(cycle.trace_index, range(p)))
    if idx[1:] != idx[:0:-1]:  # idx(j) == idx(p - j) for 0 < j < p
        v.append("configuration walk is not a closed palindrome")
    if {idx[j] for j in true_idx} - {s}:
        v.append("window states do not all hold the result tape")
    return not v, tuple(v)


def verdict(cycle):
    report = verify_cycle(cycle)
    return report.ok, report.violations


def materialised_states(cycle):
    """Every (phase, counter, configuration) state of the cycle, read off
    its trace through the index map."""
    configs = cycle.trace.steps
    return [(*tag(cycle, j), configs[cycle.trace_index(j)]) for j in range(cycle.p)]


def stored_states(trace, s, w):
    """The states as the cycle once stored them, one object per position:
    forward, waiting, unwinding, then the reversed trace."""
    configs = trace.steps
    return ([("fwd", j, configs[j]) for j in range(s)]
            + [("wait", i, configs[s]) for i in range(w)]
            + [("unwind", i, configs[s]) for i in range(w)]
            + [("rev", i, configs[s - i]) for i in range(s)])


def content_level_violations(cycle, states):
    """The walk checks on configuration content, by hashing and ==: the
    reference the index-level checks of verify_cycle must agree with."""
    p = cycle.p
    if len(states) != p:
        return ["state sequence length differs from period"]
    v = []
    if len({(phase, i, canonical(config)) for phase, i, config in states}) != p:
        v.append("cycle states are not pairwise distinct")
    seq = [config for _, _, config in states]
    if any(seq[i] != seq[(p - i) % p] for i in range(p)):
        v.append("configuration walk is not a closed palindrome")
    if any(seq[j] != seq[cycle.s] for j in cycle.window):
        v.append("window states do not all hold the result tape")
    return v


def still_trace(s):
    """A halted trace of exactly s steps that never moves the head or
    writes: states 0..s in a row, s the result state."""
    states = [str(i) for i in range(s + 1)]
    spec = TMSpec(states=frozenset(states), alphabet=frozenset("_"), blank="_",
                  transitions={(q, "_"): (str(min(int(q) + 1, s)), "_", "S") for q in states},
                  initial="0", result_states=frozenset({str(s)}))
    trace = run(spec, initial_config(spec, ""), max(s, 1))
    assert trace.halted and trace.n_steps == s
    return trace


def halted_trace(n_steps=2):
    # the unary successor halts after n_steps = len(word) + 1 steps
    suc = load_machine("unary_successor")
    word = "1" * (n_steps - 1)
    trace = run(suc, initial_config(suc, word), 1000)
    assert trace.halted and trace.n_steps == n_steps
    return trace


def test_construction_s2_alpha_half():
    cycle = build_alpha_cycle(halted_trace(2), Fraction(1, 2))
    assert (cycle.s, cycle.w, cycle.p) == (2, 2, 8)
    assert cycle.window == range(2, 6)
    assert cycle.alpha_actual == Fraction(1, 2)


def test_construction_tiny_alpha_keeps_one_wait_step():
    cycle = build_alpha_cycle(halted_trace(2), Fraction(1, 1000))
    assert (cycle.w, cycle.p) == (1, 6)
    assert len(list(cycle.window)) == 2


def test_construction_s3_alpha_three_quarters():
    cycle = build_alpha_cycle(halted_trace(3), Fraction(3, 4))
    assert (cycle.w, cycle.p) == (9, 24)
    assert len(list(cycle.window)) == 18
    assert cycle.alpha_actual == Fraction(3, 4)


def test_nonhalted_trace_rejected():
    loop = load_machine("loop")
    trace = run(loop, initial_config(loop, ""), 10)
    with pytest.raises(PreconditionError):
        build_alpha_cycle(trace, Fraction(1, 2))


def test_cycle_refuses_trace_that_did_not_halt():
    suc = load_machine("unary_successor")
    trace = run(suc, initial_config(suc, "11"), 2)  # halts after 3 steps
    assert not trace.halted and trace.n_steps == 2
    with pytest.raises(PreconditionError, match="halted trace"):
        LabeledCycle(trace=trace, w=2, alpha_requested=Fraction(1, 2))


def test_cycle_refuses_fewer_than_one_wait_step():
    for w in (0, -1):
        with pytest.raises(PreconditionError, match="wait count"):
            LabeledCycle(trace=halted_trace(2), w=w, alpha_requested=Fraction(1, 2))


def test_cycle_refuses_period_over_cap():
    trace = halted_trace(2)
    LabeledCycle(trace=trace, w=2 ** 21 - 2, alpha_requested=Fraction(1, 2))  # p = 2^22
    with pytest.raises(CapacityError, match="exceeds cap"):
        LabeledCycle(trace=trace, w=2 ** 21 - 1, alpha_requested=Fraction(1, 2))


def test_cycle_is_its_trace_and_wait_count():
    cycle = build_alpha_cycle(halted_trace(2), Fraction(1, 2))
    assert [f.name for f in fields(cycle)] == ["trace", "w", "alpha_requested", "source"]
    for derived in ("p", "s", "window", "alpha_actual"):
        with pytest.raises(TypeError):
            replace(cycle, **{derived: getattr(cycle, derived)})


def test_s_p_and_window_follow_the_trace():
    cycle = replace(build_alpha_cycle(halted_trace(2), Fraction(1, 2)), trace=halted_trace(3))
    assert (cycle.s, cycle.w, cycle.p, cycle.window) == (3, 2, 10, range(3, 7))
    assert cycle.alpha_actual == Fraction(2, 5)


def test_alpha_bounds_rejected():
    trace = halted_trace(2)
    for bad in (0, 1, -1, 2):
        with pytest.raises(PreconditionError):
            build_alpha_cycle(trace, bad)


def test_period_cap():
    # s = 2 and w = 2 * 9999999 give p ~ 4e7, past DEFAULT_PERIOD_CAP = 2^22
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="exceeds cap"):
            build_alpha_cycle(halted_trace(2), Fraction(9999999, 10 ** 7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_verify_accepts_built_cycle():
    report = verify_cycle(build_alpha_cycle(halted_trace(2), Fraction(1, 2)))
    assert report.ok and not report.violations


def test_verify_near_the_period_cap_allocates_nothing_per_position():
    trace = halted_trace(2)
    tracemalloc.start()
    try:
        cycle = build_alpha_cycle(trace, Fraction(99999, 100000))
        report = verify_cycle(cycle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cycle.p == 400_000 and report.ok
    assert peak < 2 ** 20


def test_closed_form_checks_agree_with_enumeration():
    # every cycle with s <= 3 forward and w <= 4 wait steps, with requested
    # ratios below, at and above the actual one
    cases = 0
    for s in range(4):
        trace = still_trace(s)
        for w in range(1, 5):
            for alpha in (Fraction(1, 100), Fraction(w, s + w), Fraction(99, 100)):
                cycle = LabeledCycle(trace=trace, w=w, alpha_requested=alpha, source="grid")
                ok, violations = enumerated_verdict(cycle)
                assert verdict(cycle) == (ok, violations), cycle
                assert set(violations) <= {"waiting ratio below requested alpha"}
                cases += 1
    assert cases == 48


def test_verify_flags_short_window():
    cycle = LabeledCycle(trace=still_trace(4), w=1, alpha_requested=Fraction(99, 100))
    report = verify_cycle(cycle)
    assert not report.ok and cycle.alpha_actual == Fraction(1, 5)
    assert report.violations == ("waiting ratio below requested alpha",)


def test_cycle_walk_is_closed_palindrome_of_distinct_states():
    cycle = build_alpha_cycle(halted_trace(3), Fraction(1, 2))
    states = materialised_states(cycle)
    assert len({(phase, i, canonical(config)) for phase, i, config in states}) == cycle.p
    seq = [config for _, _, config in states]
    assert all(seq[i] == seq[(cycle.p - i) % cycle.p] for i in range(cycle.p))
    assert [cycle.trace_index(j) for j in range(cycle.p)] == [0, 1, 2, 3, 3, 3, 3, 3, 3, 3, 2, 1]


def test_cycle_results_window_holds_final_value():
    trace = halted_trace(3)  # successor on "11" -> "111"
    cycle = build_alpha_cycle(trace, Fraction(1, 2), source="succ(11)")
    for j in range(cycle.p):
        z, v = cycle_result(cycle, j)
        if j in cycle.window:
            assert (z, v) == (0, "111")
        else:
            assert z == 1


def test_cycle_result_reads_the_position_mod_p():
    inc = load_machine("incrementer")
    cycle = build_alpha_cycle(run(inc, initial_config(inc, "0"), 100), Fraction(3, 4))
    s, p = cycle.s, cycle.p
    assert cycle_result(cycle, s) == cycle_result(cycle, s + p) == (0, "1")
    assert cycle_result(cycle, -1) == cycle_result(cycle, p - 1)
    assert cycle_result(cycle, -1)[0] == 1


def test_cycle_result_reads_a_numpy_index_as_an_int():
    inc = load_machine("incrementer")
    cycle = build_alpha_cycle(run(inc, initial_config(inc, "0"), 100), Fraction(3, 4))
    for j in (0, cycle.s, cycle.p - 1, cycle.p + 3, -1):
        assert cycle_result(cycle, np.int64(j)) == cycle_result(cycle, j)
        assert cycle.trace_index(np.int64(j)) == cycle.trace_index(j)
    # p = 4,000,000: a numpy index once scanned the window range (about 0.25 s);
    # the fastest of three reads is timed, so a moment of load does not fail it
    unary = load_machine("unary_successor")
    big = build_alpha_cycle(run(unary, initial_config(unary, "1"), 100), 0.999999)
    assert big.p == 4_000_000
    for j in (0, big.p - 1):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            cycle_result(big, np.int64(j))
            times.append(time.perf_counter() - start)
        assert min(times) < 0.02


def test_alpha_for_period_values():
    assert alpha_for_period(256) == 0.9375
    assert alpha_for_period(4) == 0.5
    assert alpha_for_period(10 ** 4) == 0.99
    with pytest.raises(PreconditionError):
        alpha_for_period(2)


def test_centered_window_is_centered_and_covers_alpha():
    for p in (64, 256, 1024):
        win = centered_window(p, alpha_for_period(p))
        assert len(win) >= alpha_for_period(p) * p
        assert win.start + win.stop == p  # symmetric about p/2
        assert p // 2 in win


def test_to_dict_round_trips_fields():
    cycle = build_alpha_cycle(halted_trace(2), Fraction(1, 2), source="succ(1)")
    d = cycle.to_dict()
    assert d["p"] == 8 and d["window"] == [2, 6] and d["source"] == "succ(1)"


@given(st.integers(1, 6), st.fractions(Fraction(1, 100), Fraction(99, 100)))
@settings(max_examples=80, deadline=None)
def test_period_arithmetic_properties(n_steps, alpha):
    cycle = build_alpha_cycle(halted_trace(n_steps), alpha)
    assert cycle.p == 2 * cycle.s + 2 * cycle.w
    assert cycle.p % 2 == 0
    assert cycle.alpha_actual >= alpha
    assert list(cycle.window) == list(range(cycle.s, cycle.s + 2 * cycle.w))
    assert cycle.p // 2 in cycle.window  # w >= 1 always puts the midpoint inside
    assert verify_cycle(cycle).ok


@st.composite
def built_cycles(draw):
    name = draw(st.sampled_from(sorted(HALTING_MACHINES)))
    spec = load_machine(name)
    word = draw(st.text(alphabet=HALTING_MACHINES[name], max_size=8))
    trace = run(spec, initial_config(spec, word), 1000)
    assert trace.halted
    alpha = draw(st.fractions(Fraction(1, 100), Fraction(99, 100)))
    return build_alpha_cycle(trace, alpha, source=f"{name}({word})")


@given(built_cycles())
@settings(max_examples=120, deadline=None)
def test_index_checks_agree_with_content_level_checks(cycle):
    # what the fields guarantee, checked on configuration content
    states = stored_states(cycle.trace, cycle.s, cycle.w)
    assert materialised_states(cycle) == states
    assert content_level_violations(cycle, states) == []
    assert cycle.p % 2 == 0
    assert cycle.p // 2 in cycle.window
    assert cycle.alpha_actual >= cycle.alpha_requested
    assert verify_cycle(cycle).ok


def test_verify_reports_the_checks_it_ran():
    cycle = build_alpha_cycle(halted_trace(2), Fraction(1, 2))
    assert verify_cycle(cycle).checks == ("waiting_ratio",)


def test_verify_hashes_no_configuration(monkeypatch):
    inc = load_machine("incrementer")
    trace = run(inc, initial_config(inc, "1" * 500), 20000)
    cycle = build_alpha_cycle(trace, Fraction(3, 4))
    assert cycle.p == 8016
    calls = {"at": 0, "eq": 0}

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(Trace, "at", counting("at", Trace.at))
    monkeypatch.setattr(Configuration, "__eq__", counting("eq", Configuration.__eq__))
    report = verify_cycle(cycle)
    assert report.ok and calls == {"at": 0, "eq": 0}
    assert trace.at(0) == trace.initial  # the counters see a read when one happens
    assert calls == {"at": 1, "eq": 1}
