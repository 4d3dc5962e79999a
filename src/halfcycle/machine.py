"""Deterministic Turing machines: specs, configurations, bounded execution.

A machine is a total transition table over a finite state set and alphabet.
Configurations use a sparse, unbounded tape (a dict from cell index to
symbol) that never stores blank cells, so two configurations are equal
exactly when their canonical forms coincide.  Distinct configurations stand
in for mutually orthogonal computational states downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import CapacityError, MachineSpecError, PreconditionError

MOVES = {"L": -1, "R": +1, "S": 0}

DEFAULT_PERIOD_CAP = 2 ** 22  # of cycles, profiles and random implementations


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


@dataclass(frozen=True, eq=False)
class Configuration:
    """An instantaneous machine configuration.

    The tape dict holds only non-blank cells (canonical form); equality and
    hashing go through :meth:`canonical` so configurations compare by
    content, not identity.
    """

    tape: dict
    head: int
    state: str

    def canonical(self) -> tuple:
        return (self.state, self.head, tuple(sorted(self.tape.items())))

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())


@dataclass(frozen=True)
class Trace:
    """A bounded execution history.

    ``steps`` includes the initial configuration, so a trace of n steps has
    n + 1 entries.  ``halted`` is set iff a result state was entered within
    the budget; otherwise the budget was exceeded (possible non-termination
    is a value, never an exception).
    """

    steps: tuple
    halted: bool
    result: tuple | None

    @property
    def budget_exceeded(self) -> bool:
        return not self.halted

    @property
    def n_steps(self) -> int:
        return len(self.steps) - 1


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


def step(spec: TMSpec, config: Configuration) -> Configuration:
    """Apply one transition.  Pure: the input configuration is untouched."""
    if config.state not in spec.states:
        raise MachineSpecError(f"unknown state {config.state!r}")
    symbol = config.tape.get(config.head, spec.blank)
    if symbol not in spec.alphabet:
        raise MachineSpecError(f"unknown symbol {symbol!r} under head")
    nstate, wsymbol, move = spec.transitions[(config.state, symbol)]
    tape = dict(config.tape)
    if wsymbol == spec.blank:
        tape.pop(config.head, None)
    else:
        tape[config.head] = wsymbol
    return Configuration(tape=tape, head=config.head + MOVES[move], state=nstate)


def run(spec: TMSpec, config: Configuration, max_steps: int) -> Trace:
    """Run until a result state is entered or the step budget is exhausted.

    A halted trace of s steps makes a cycle of period at least 2s + 2, so a
    budget past DEFAULT_PERIOD_CAP // 2 - 1 raises CapacityError at once.
    """
    if max_steps < 1:
        raise PreconditionError("max_steps must be >= 1")
    if max_steps > DEFAULT_PERIOD_CAP // 2 - 1:
        raise CapacityError(f"step budget {max_steps} exceeds cap {DEFAULT_PERIOD_CAP // 2 - 1}")
    steps = [config]
    halted = config.state in spec.result_states
    while not halted and len(steps) - 1 < max_steps:
        steps.append(step(spec, steps[-1]))
        halted = steps[-1].state in spec.result_states
    result = decode_result(spec, steps[-1]) if halted else None
    return Trace(steps=tuple(steps), halted=halted, result=result)


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
