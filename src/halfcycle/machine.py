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
        """r = (z, v) of a halted trace: z = 0 and v its non-blank tape
        content; None if the budget was exceeded."""
        return (0, tape_content(self.final)) if self.halted else None

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
        configs = [self.initial]
        for _ in range(self.n_steps):
            configs.append(_walk(self.spec, configs[-1], 1)[0])
        return tuple(configs)


def tape_content(config: Configuration) -> str:
    """Non-blank tape content read left to right."""
    return "".join(symbol for _, symbol in sorted(config.tape.items()))


def initial_config(spec: TMSpec, word: str) -> Configuration:
    """Write ``word`` on cells 0..len-1 and park the head on cell 0."""
    for ch in word:
        if ch not in spec.alphabet:
            raise MachineSpecError(f"input symbol {ch!r} not in alphabet")
    tape = {i: ch for i, ch in enumerate(word) if ch != spec.blank}
    return Configuration(tape=tape, head=0, state=spec.initial)


def _walk(spec: TMSpec, config: Configuration, max_steps: int) -> tuple:
    """Step one copy of ``config``'s tape until a result state is entered or
    ``max_steps`` steps are taken; returns (final configuration, steps).
    This is the one loop that steps a machine.  The table is total, so a
    missing entry is an unknown state or symbol."""
    tape, head, state = dict(config.tape), config.head, config.state
    transitions, blank, results = spec.transitions, spec.blank, spec.result_states
    n = 0
    while n < max_steps and state not in results:
        key = (state, tape.get(head, blank))
        try:
            state, wsymbol, move = transitions[key]
        except KeyError:
            raise MachineSpecError(f"unknown state or symbol under head: {key!r}") from None
        if wsymbol == blank:
            tape.pop(head, None)
        else:
            tape[head] = wsymbol
        head += MOVES[move]
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

def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def spec_from_dict(data: dict, name: str = "") -> TMSpec:
    """The machine of a parsed machine file: a JSON object whose
    ``states``, ``alphabet`` and ``result_states`` are lists of strings,
    ``blank`` and ``initial`` strings, and ``transitions`` a list of
    [state, symbol, next_state, written_symbol, move] lists of strings."""
    if not isinstance(data, dict):
        raise MachineSpecError("machine file must hold a JSON object")
    for key in ("states", "alphabet", "blank", "transitions", "initial", "result_states"):
        if key not in data:
            raise MachineSpecError(f"machine file missing field {key!r}")
    for key in ("states", "alphabet", "result_states"):
        if not _strings(data[key]):
            raise MachineSpecError(f"field {key!r} must be a list of strings")
    for key in ("blank", "initial"):
        if not isinstance(data[key], str):
            raise MachineSpecError(f"field {key!r} must be a string")
    if not isinstance(data["transitions"], list):
        raise MachineSpecError("field 'transitions' must be a list")
    transitions = {}
    for i, entry in enumerate(data["transitions"]):
        if not _strings(entry) or len(entry) != 5:
            raise MachineSpecError(f"transitions[{i}] is not a list of five strings: {entry!r}")
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
        except (OSError, UnicodeDecodeError) as exc:
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
    except RecursionError:
        raise MachineSpecError(f"machine file {name}: JSON nested too deeply") from None
    return spec_from_dict(data, name=name)

