#!/usr/bin/env python3
"""Turn halting traces into periodic waiting cycles.

A halted trace of s steps becomes a closed walk of even period
p = 2s + 2w: forward, w waiting steps holding the result, w unwinding
steps, and the reverse trace.  The 2w middle indices are the result
window; its share of the period is the waiting ratio.
"""

from fractions import Fraction

import halfcycle as hc

print("=" * 64)
print("  Waiting cycles over the incrementer")
print("=" * 64)

inc = hc.load_machine("incrementer")
trace = hc.run(inc, hc.initial_config(inc, "0"), 100)
print(f"\nincrementer('0') halts after s = {trace.n_steps} steps")

for alpha in (Fraction(1, 100), Fraction(1, 2), Fraction(3, 4), Fraction(15, 16)):
    cycle = hc.build_alpha_cycle(trace, alpha, source="incrementer(0)")
    report = hc.verify_cycle(cycle)
    bar = "".join("#" if j in cycle.window else "." for j in range(cycle.p))
    print(f"\nalpha = {alpha}:  p = {cycle.p}, w = {cycle.w}, "
          f"window = [{cycle.window.start}, {cycle.window.stop}), "
          f"actual ratio = {cycle.alpha_actual}")
    print(f"  labels: {bar}")
    print(f"  verified: {report.ok}")

print("\nThe label bar shows the result window (#) centered on p/2; the")
print("walk is a palindrome over configurations, so index p returns to")
print("the start.  Long waits come from alpha -> 1, e.g. the p-target rule:")
for p in (64, 256, 1024):
    print(f"  alpha_for_period({p}) = {hc.alpha_for_period(p)}")
