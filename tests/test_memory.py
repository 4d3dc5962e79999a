"""Memory per period element: each layer's tracemalloc peak at p = 2**18
is at most its ceiling in bytes per element of p.

The costs are linear in p from 2**18 on, so one size gates them.  Each
ceiling is the reading of the code it gates, and its comment names the
arrays that make it up; a change that holds one more full-length complex
array in a layer (16 B per element) fails here.  A ceiling only comes
down.  tracemalloc sees numpy's buffers, not those of OpenBLAS or HiGHS.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from halfcycle import (check_lower_bound, chirped_pair, get_density, halfstep_profile_aperiodic,
                       halfstep_profile_periodic, halting_demo, initial_config, load_machine,
                       minimal_periodic_spectrum, moment_experiment, obstruction_certificate,
                       run)

P = 2 ** 18
FIXED = 2 ** 14  # what does not grow with p: Python objects, checked blocks, small arrays
INC = load_machine("incrementer")
STEPS = run(INC, initial_config(INC, "1"), 100).n_steps


def lower_bound_at(p):
    grid, spec = np.linspace(0.0, 1.0, p), minimal_periodic_spectrum(4)
    return lambda: check_lower_bound(spec, grid)


def halting_at(p):
    """halting_demo on a waiting cycle of period p: p = 2(s + w) with w
    waits for s steps, which the ratio w / (w + s) gives exactly."""
    w = p // 2 - STEPS
    return lambda: halting_demo(INC, initial_config(INC, "1"), 100, 200,
                                Fraction(w, w + STEPS), np.random.default_rng(0))


LAYERS = {  # name: (ceiling in bytes per element of p, p -> the call)
    # j (int64), the weights (float), and the closed form, the twist, the
    # twisted weights and their FFT (complex): 8 + 8 + 4*16
    "halfstep_profile_periodic": (80, lambda p: lambda: halfstep_profile_periodic(p)),
    # k (int64), the amplitudes, the profile's copy of them (complex) and
    # its probabilities (float): 8 + 2*16 + 8
    "halfstep_profile_aperiodic": (48, lambda p: lambda: halfstep_profile_aperiodic(p // 2)),
    # the closed-form overlap: both of _nearest's pairs, x, den and the ratio
    # held throughout (7 float), and three complex temporaries while their
    # product is formed: 7*8 + 3*16
    "check_lower_bound": (104, lower_bound_at),
    # one row of draws (float), and the twist, the twisted row and its FFT
    # (complex): 8 + 3*16
    "moment_experiment": (56, lambda p: lambda: moment_experiment(
        [p], get_density("uniform"), 2, np.random.default_rng(0))),
    # the set: its grid (float) and two functions (complex), 8 + 2*16; then
    # the n + 1 rows of moduli constraints and the QR's copy of them: 2*24
    "obstruction_certificate": (88, lambda p: lambda: obstruction_certificate(chirped_pair(p))),
    # the cycle's periodic profile, built as above, is the peak
    "halting_demo": (80, halting_at),
}


@pytest.mark.parametrize("layer", LAYERS)
def test_memory_per_period_element(layer):
    ceiling, make = LAYERS[layer]
    make(1024)()  # lazy set-up: imports and caches that do not grow with p
    call = make(P)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ceiling * P + FIXED, f"{peak / P:.2f} B per element"
