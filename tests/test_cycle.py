"""Cycle builder: construction arithmetic, verification, window helpers."""

import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfcycle import (CapacityError, PreconditionError, TMSpec, alpha_for_period,
                       build_alpha_cycle, centered_window, cycle_result,
                       initial_config, load_machine, run, verify_cycle)
from halfcycle.cycle import LabeledCycle
from halfcycle.machine import Configuration, Trace

HALTING_MACHINES = {"incrementer": "01", "unary_successor": "1", "parity": "01"}
WALK_MESSAGES = {"trace did not halt", "trace length differs from s + 1",
                 "state sequence length differs from period",
                 "cycle states are not pairwise distinct",
                 "configuration walk is not a closed palindrome",
                 "window states do not all hold the result tape"}


def canonical(config):
    """A hashable form of ``config`` (configurations compare by content but
    hold a dict)."""
    return (config.state, config.head, tuple(sorted(config.tape.items())))


def tag(cycle, j):
    """(phase, counter) control tag of cycle position ``j``: the phase is
    "fwd", "wait", "unwind" or "rev", and the counter is the number of
    steps already taken in it (j taken mod 2s + 2w)."""
    s, w = cycle.s, cycle.w
    j %= 2 * (s + w)
    if j < s:
        return ("fwd", j)
    if j < s + w:
        return ("wait", j - s)
    if j < s + 2 * w:
        return ("unwind", j - s - w)
    return ("rev", j - s - 2 * w)


def enumerated_verdict(cycle):
    """``(ok, violations, checks)`` of verify_cycle, found by walking all p
    positions: the reference its closed forms must agree with."""
    v = []
    checks = ["even_period", "labels_on_window", "window_contiguous", "window_nonempty",
              "waiting_ratio", "midpoint_in_window"]
    if cycle.p % 2 != 0:
        v.append("period is odd")
    true_idx = [j for j in range(cycle.p) if j in cycle.window]
    if true_idx != list(cycle.window):
        v.append("labels are not true exactly on the window")
    if true_idx and true_idx != list(range(true_idx[0], true_idx[-1] + 1)):
        v.append("window is not contiguous")
    if not true_idx:
        v.append("window is empty")
    if cycle.alpha_actual < cycle.alpha_requested:
        v.append("waiting ratio below requested alpha")
    if cycle.alpha_actual >= Fraction(1, 2) and cycle.p // 2 not in cycle.window:
        v.append("midpoint p/2 outside window despite waiting ratio >= 1/2")
    p, s = cycle.p, cycle.s
    checks += ["trace_halted", "trace_length", "index_walk_length"]
    if not cycle.trace.halted:
        v.append("trace did not halt")
    if len(cycle.trace.steps) != s + 1:
        v.append("trace length differs from s + 1")
    if 2 * (s + cycle.w) != p:
        v.append("state sequence length differs from period")
    if s + cycle.w > 0:
        checks += ["index_tags_distinct", "index_palindrome", "index_window_at_s"]
        if len({tag(cycle, j) for j in range(p)}) != p:
            v.append("cycle states are not pairwise distinct")
        idx = list(map(cycle.trace_index, range(p)))
        if idx[1:] != idx[:0:-1]:  # idx(j) == idx(p - j) for 0 < j < p
            v.append("configuration walk is not a closed palindrome")
        if set(map(cycle.trace_index, cycle.window)) - {s}:
            v.append("window states do not all hold the result tape")
    return not v, tuple(v), tuple(checks)


def verdict(cycle):
    report = verify_cycle(cycle)
    return report.ok, report.violations, report.checks


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
    # odd and even periods, every walk length up to 2(3 + 3), and windows
    # that are empty, reversed, or reach outside [0, p) on either side
    alpha = Fraction(1, 3)
    cases = 0
    for s in range(4):
        trace = still_trace(s)
        for w in range(4):
            for p in range(1, 14):
                for a in range(-2, p + 2):
                    for b in range(a - 1, p + 3):
                        for window in (range(a, b), range(b - 1, a - 1, -1)):
                            cycle = LabeledCycle(p=p, window=window, alpha_requested=alpha,
                                                 s=s, w=w, source="grid", trace=trace)
                            assert verdict(cycle) == enumerated_verdict(cycle), cycle
                            cases += 1
    assert cases > 20_000


def test_verify_flags_odd_period():
    cycle = LabeledCycle(p=7, window=range(2, 5), alpha_requested=Fraction(1, 3),
                         s=2, w=1, source="hand", trace=halted_trace(2))
    report = verify_cycle(cycle)
    assert not report.ok
    assert any("odd" in v for v in report.violations)


def test_verify_flags_short_window():
    cycle = LabeledCycle(p=8, window=range(3, 5), alpha_requested=Fraction(3, 4),
                         s=3, w=1, source="hand", trace=halted_trace(3))
    report = verify_cycle(cycle)
    assert not report.ok
    assert any("below requested" in v for v in report.violations)


def test_verify_flags_noncontiguous_labels():
    cycle = build_alpha_cycle(halted_trace(2), Fraction(1, 2))  # s = w = 2, p = 8
    cycle = replace(cycle, window=range(2, 6, 2), alpha_requested=Fraction(1, 4))
    assert verdict(cycle) == enumerated_verdict(cycle)
    assert verify_cycle(cycle).violations == ("window is not contiguous",)


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
    cycle = build_alpha_cycle(trace, alpha, source=f"{name}({word})")
    change = draw(st.sampled_from(["none", "period", "window"]))
    if change == "period":
        cycle = replace(cycle, p=cycle.p + 2 * draw(st.sampled_from([-1, 1, 2])))
    elif change == "window":
        shift = draw(st.integers(-cycle.s, cycle.s).filter(bool))
        cycle = replace(cycle, window=range(cycle.window.start + shift,
                                            cycle.window.stop + shift))
    return cycle


@given(built_cycles())
@settings(max_examples=120, deadline=None)
def test_index_checks_agree_with_content_level_checks(cycle):
    states = stored_states(cycle.trace, cycle.s, cycle.w)
    if cycle.p == len(states):
        assert materialised_states(cycle) == states
    content = content_level_violations(cycle, states)
    report = verify_cycle(cycle)
    walk = [v for v in report.violations if v in WALK_MESSAGES]
    labels_ok = len(walk) == len(report.violations)
    assert bool(walk) == bool(content)
    assert report.ok == (labels_ok and not content)


def test_verify_flags_trace_that_did_not_halt():
    cycle = build_alpha_cycle(halted_trace(2), Fraction(1, 2))
    suc = load_machine("unary_successor")
    trace = run(suc, initial_config(suc, "11"), 2)  # halts after 3 steps
    assert not trace.halted and trace.n_steps == 2
    report = verify_cycle(replace(cycle, trace=trace))
    assert report.violations == ("trace did not halt",)


def test_verify_flags_s_inconsistent_with_trace_length():
    cycle = build_alpha_cycle(halted_trace(2), Fraction(1, 2))
    report = verify_cycle(replace(cycle, trace=halted_trace(3)))
    assert report.violations == ("trace length differs from s + 1",)


def test_verify_flags_walk_longer_than_period():
    cycle = build_alpha_cycle(halted_trace(2), Fraction(1, 2))  # s = w = 2, p = 8
    report = verify_cycle(replace(cycle, p=6))
    assert report.violations == ("state sequence length differs from period",
                                 "configuration walk is not a closed palindrome")


def test_verify_flags_walk_repeating_within_period():
    cycle = build_alpha_cycle(halted_trace(2), Fraction(1, 2))  # s = w = 2, p = 8
    report = verify_cycle(replace(cycle, p=10, alpha_requested=Fraction(2, 5)))
    assert report.violations == ("state sequence length differs from period",
                                 "cycle states are not pairwise distinct",
                                 "configuration walk is not a closed palindrome")


def test_verify_flags_window_off_the_result_index():
    cycle = build_alpha_cycle(halted_trace(2), Fraction(1, 2))  # window [2, 6)
    report = verify_cycle(replace(cycle, window=range(1, 5)))
    assert report.violations == ("window states do not all hold the result tape",)


def test_verify_reports_the_checks_it_ran():
    cycle = build_alpha_cycle(halted_trace(2), Fraction(1, 2))
    assert verify_cycle(cycle).checks == (
        "even_period", "labels_on_window", "window_contiguous", "window_nonempty",
        "waiting_ratio", "midpoint_in_window", "trace_halted", "trace_length",
        "index_walk_length", "index_tags_distinct", "index_palindrome", "index_window_at_s")


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
