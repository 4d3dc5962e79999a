"""halfcycle: simulate and verify half-cycle transient measurement of
periodic Turing computations.

The package covers the full pipeline: deterministic Turing machines and
traces (machine), waiting cycles over halting traces (cycle), orbit
spectra and half-cycle amplitude profiles including bounded-energy
spectrum packing (spectral, packing), the simulated measurement and retry
procedures (measure), random-implementation statistics (ensemble), the
evolution-cost gauge (complexity), and shared-orbit obstruction
certificates (schrodinger).

This namespace exports what the command line, the demos and the
benchmark call or name.  Helpers used only inside their own module
(``measure.majority_error_bound``, ``schrodinger.kinetic_form``), the
constant that only the command line and the demos read
(``complexity.APERIODIC_MEAN_ABS_PHASE``), and result types that callers
receive but never name (``cycle.CycleReport``, ``measure.RunReport``) are
imported from that module.
"""

from .complexity import check_lower_bound, complexity, zero_count
from .cycle import alpha_for_period, build_alpha_cycle, centered_window, cycle_result, verify_cycle
from .ensemble import DENSITIES, get_density, moment_experiment, nu_from_y
from .errors import (CapacityError, ConsistencyError, HalfcycleError,
                     MachineSpecError, PreconditionError)
from .machine import initial_config, load_machine, run, tape_content
from .measure import halting_demo, repeat_error_free, run_error_bounded, run_error_free
from .packing import PackedSpectra, pack_spectrum
from .schrodinger import (GridFunctionSet, chirped_pair, identical_pair, obstruction_certificate,
                          read_grid_functions)
from .spectral import (AmplitudeProfile, halfstep_profile_aperiodic, halfstep_profile_periodic,
                       minimal_periodic_spectrum, nu_of, overlap_at)

__version__ = "0.1.0"
