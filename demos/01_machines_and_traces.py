#!/usr/bin/env python3
"""Run the shipped machines and look at their traces.

Four machines come with the package: a binary incrementer, a unary
successor, a parity checker, and a machine that never halts.  A trace
keeps only its two ends and its step count; ``trace.steps`` replays the
full configuration history, so we can print the tape evolution and decode
the result r = (z, v) at the end.
"""

import halfcycle as hc


def show_trace(name, word, budget=100):
    spec = hc.load_machine(name)
    trace = hc.run(spec, hc.initial_config(spec, word), budget)
    print(f"\n{name} on {word!r} (budget {budget}):")
    steps = trace.steps  # replayed once here
    for i, config in enumerate(steps):
        tape = hc.tape_content(config) or "(blank)"
        print(f"  step {i:2d}  state={config.state:6s} head={config.head:+d}  tape={tape}")
        if i >= 12 and len(steps) > 15:
            print(f"  ... {len(steps) - i - 1} more configurations")
            break
    if trace.halted:
        z, v = trace.result
        print(f"  halted after {trace.n_steps} steps, result r = ({z}, {v!r})")
    else:
        print(f"  budget exceeded after {trace.n_steps} steps (may not halt)")


print("=" * 64)
print("  Deterministic machines and bounded execution")
print("=" * 64)

show_trace("incrementer", "0")
show_trace("incrementer", "1011")
show_trace("unary_successor", "11")
show_trace("parity", "10110")
show_trace("loop", "", budget=8)

print("\nDecoding convention: z = 0 exactly in result states; v is the")
print("non-blank tape read left to right.")
