"""Deterministic Turing machines: specs, configurations, bounded execution.

A machine is a total transition table over a finite state set and alphabet.
Configurations use a sparse, unbounded tape (a dict from cell index to
symbol) that never stores blank cells, so two configurations are equal
exactly when their contents coincide.  Distinct configurations stand in for
mutually orthogonal computational states downstream.  A run steps one tape
in place and keeps its two ends; the configurations between are replayed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import DEFAULT_PERIOD_CAP, MachineSpecError, check_length

MOVES = {"L": -1, "R": +1, "S": 0}


@dataclass(frozen=True)
class TMSpec:
    """A deterministic Turing machine with a total transition table.

    ``transitions`` maps every (state, symbol) pair to a
    (next_state, written_symbol, head_move) triple; head_move is one of
    "L", "R", "S".  ``result_states`` are the z = 0 states: entering one
    halts a bounded run and marks the tape content as the result value.
    """

    states: frozenset[str]
    alphabet: frozenset[str]
    blank: str
    transitions: dict
    initial: str
    result_states: frozenset[str]
    name: str = ""

    def __post_init__(self):
        if self.blank not in self.alphabet:
            raise MachineSpecError(f"blank symbol {self.blank!r} not in alphabet")
        if self.initial not in self.states:
            raise MachineSpecError(f"initial state {self.initial!r} not in states")
        if not self.result_states <= self.states:
            raise MachineSpecError("result_states must be a subset of states")
        for state in self.states:
            for symbol in self.alphabet:
                key = (state, symbol)
                if key not in self.transitions:
                    raise MachineSpecError(f"transition table not total: missing {key!r}")
                nstate, wsymbol, move = self.transitions[key]
                if nstate not in self.states:
                    raise MachineSpecError(f"transition {key!r} targets unknown state {nstate!r}")
                if wsymbol not in self.alphabet:
                    raise MachineSpecError(f"transition {key!r} writes unknown symbol {wsymbol!r}")
                if move not in MOVES:
                    raise MachineSpecError(f"transition {key!r} has bad head move {move!r}")
        if len(self.transitions) != len(self.states) * len(self.alphabet):
            raise MachineSpecError("transition table has entries outside states x alphabet")


@dataclass(frozen=True)
class Configuration:
    """An instantaneous machine configuration.  The tape dict holds only
    non-blank cells, so the generated equality compares configurations by
    content (dict equality ignores insertion order)."""

    tape: dict
    head: int
    state: str


@dataclass(frozen=True)
class Trace:
    """A bounded run, kept as what cannot be derived: the machine, the
    initial and final configurations and the step count.  ``halted`` iff the
    final state is a result state, else the budget was exceeded (possible
    non-termination is a value, never an exception).  :meth:`at` replays
    any other configuration, so a trace takes O(|tape|) memory.
    """

    spec: TMSpec
    initial: Configuration
    final: Configuration
    n_steps: int

    @property
    def halted(self) -> bool:
        return self.final.state in self.spec.result_states

    @property
    def result(self) -> tuple | None:
        return decode_result(self.spec, self.final) if self.halted else None

    def at(self, i: int) -> Configuration:
        """Configuration ``i``: ``final`` at i = n_steps, otherwise replayed
        from ``initial`` in O(i) time and O(|tape|) memory."""
        if not 0 <= i <= self.n_steps:
            raise IndexError(f"trace index {i} outside [0, {self.n_steps}]")
        return self.final if i == self.n_steps else _walk(self.spec, self.initial, i)[0]

    @property
    def steps(self) -> tuple:
        """All n_steps + 1 configurations, replayed into a new tuple on each
        access: O(s·|tape|) memory, for inspecting short runs."""
        tape, head, state = dict(self.initial.tape), self.initial.head, self.initial.state
        configs = [self.initial]
        for _ in range(self.n_steps):
            head, state = _advance(self.spec, tape, head, state)
            configs.append(Configuration(tape=dict(tape), head=head, state=state))
        return tuple(configs)


def tape_content(config: Configuration) -> str:
    """Non-blank tape content read left to right."""
    return "".join(symbol for _, symbol in sorted(config.tape.items()))


def decode_result(spec: TMSpec, config: Configuration) -> tuple:
    """Decode r = (z, v): z = 0 iff the state is a result state, v is the
    non-blank tape content."""
    z = 0 if config.state in spec.result_states else 1
    return (z, tape_content(config))


def initial_config(spec: TMSpec, word: str) -> Configuration:
    """Write ``word`` on cells 0..len-1 and park the head on cell 0."""
    for ch in word:
        if ch not in spec.alphabet:
            raise MachineSpecError(f"input symbol {ch!r} not in alphabet")
    tape = {i: ch for i, ch in enumerate(word) if ch != spec.blank}
    return Configuration(tape=tape, head=0, state=spec.initial)


def _advance(spec: TMSpec, tape: dict, head: int, state: str) -> tuple:
    """Apply one transition to ``tape`` in place; returns (head, state).  The
    table is total, so a missing entry is an unknown state or symbol."""
    key = (state, tape.get(head, spec.blank))
    try:
        nstate, wsymbol, move = spec.transitions[key]
    except KeyError:
        raise MachineSpecError(f"unknown state or symbol under head: {key!r}") from None
    if wsymbol == spec.blank:
        tape.pop(head, None)
    else:
        tape[head] = wsymbol
    return head + MOVES[move], nstate


def _walk(spec: TMSpec, config: Configuration, max_steps: int) -> tuple:
    """Step one copy of ``config``'s tape until a result state is entered or
    ``max_steps`` steps are taken; returns (final configuration, steps)."""
    tape, head, state = dict(config.tape), config.head, config.state
    n = 0
    while n < max_steps and state not in spec.result_states:
        head, state = _advance(spec, tape, head, state)
        n += 1
    return Configuration(tape=tape, head=head, state=state), n


def run(spec: TMSpec, config: Configuration, max_steps: int) -> Trace:
    """Run until a result state is entered or the step budget is exhausted.

    A halted trace of s steps makes a cycle of period at least 2s + 2, so a
    budget past DEFAULT_PERIOD_CAP // 2 - 1 is refused before the first step.
    """
    check_length("step budget", max_steps, cap=DEFAULT_PERIOD_CAP // 2 - 1)
    final, n_steps = _walk(spec, config, max_steps)
    return Trace(spec=spec, initial=config, final=final, n_steps=n_steps)


# --- machine files ---------------------------------------------------------

def spec_to_dict(spec: TMSpec) -> dict:
    return {
        "states": sorted(spec.states),
        "alphabet": sorted(spec.alphabet),
        "blank": spec.blank,
        "transitions": [
            [state, symbol, nstate, wsymbol, move]
            for (state, symbol), (nstate, wsymbol, move) in sorted(spec.transitions.items())
        ],
        "initial": spec.initial,
        "result_states": sorted(spec.result_states),
    }


def spec_from_dict(data: dict, name: str = "") -> TMSpec:
    for key in ("states", "alphabet", "blank", "transitions", "initial", "result_states"):
        if key not in data:
            raise MachineSpecError(f"machine file missing field {key!r}")
    transitions = {}
    for i, entry in enumerate(data["transitions"]):
        if len(entry) != 5:
            raise MachineSpecError(f"transitions[{i}] is not a 5-tuple: {entry!r}")
        state, symbol, nstate, wsymbol, move = entry
        if (state, symbol) in transitions:
            raise MachineSpecError(f"transitions[{i}] duplicates ({state!r}, {symbol!r})")
        transitions[(state, symbol)] = (nstate, wsymbol, move)
    return TMSpec(
        states=frozenset(data["states"]),
        alphabet=frozenset(data["alphabet"]),
        blank=data["blank"],
        transitions=transitions,
        initial=data["initial"],
        result_states=frozenset(data["result_states"]),
        name=name,
    )


def load_machine(source) -> TMSpec:
    """Load a machine from a JSON file path or a shipped machine name.

    Shipped machines: incrementer, unary_successor, loop, parity.
    """
    path = Path(source)
    if path.suffix == ".json" or path.exists():
        try:
            text = path.read_text()
        except OSError as exc:
            raise MachineSpecError(f"cannot read machine file {source!r}: {exc}") from exc
        name = path.stem
    else:
        ref = resources.files("halfcycle").joinpath(f"machines/{source}.json")
        if not ref.is_file():
            raise MachineSpecError(f"no machine file or shipped machine named {source!r}")
        text = ref.read_text()
        name = str(source)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MachineSpecError(f"machine file {name}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return spec_from_dict(data, name=name)


def save_machine(spec: TMSpec, path) -> None:
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n")
