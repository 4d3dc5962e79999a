#!/usr/bin/env python3
"""Pack every instance into one bounded-energy spectrum; gauge the cost.

All instances of sizes 0..n share one operator: each gets 2^nu_n
eigenphases on a dyadic grid, pairwise disjoint across instances, with
every instance's mean phase at most 4pi.  The complexity gauge
C(t) = t * mean|phase| then dominates the squared state distance.
"""

import numpy as np

import halfcycle as hc
from halfcycle.complexity import APERIODIC_MEAN_ABS_PHASE

print("=" * 64)
print("  Spectrum packing, sizes 0..4")
print("=" * 64)
packed = hc.pack_spectrum(4)
report = packed.to_dict()
print(f"\ninstances: {len(packed.instances)}  "
      f"(2^n per size n, each with 2^n eigenphases)")
print(f"pairwise disjoint (exhaustive): {report['disjoint']}")
print(f"every point on its size's grid: {report['grid_ok']}")
print(f"every mean phase within 4pi: {report['energy_bound_ok']}")
print(f"max instance energy: {report['max_energy']:.4f} "
      f"<= 4pi = {4 * np.pi:.4f}")
print(f"index-parity compliance: {report['parity_compliance']:.3f}")

print("\nhighest-energy instances:")
for inst in sorted(report["instances"], key=lambda i: -i["energy"])[:5]:
    print(f"  n={inst['n']} m={inst['m']:2d}: energy = {inst['energy']:.4f}")

print()
print("=" * 64)
print("  Evolution cost and the distance bound")
print("=" * 64)
print(f"\n{'spectrum':>14} {'mean|phase|':>12} {'C(1/2)':>9} {'zeros':>6}")
t_pair = np.array([1.0, 0.5])  # C(1) is the mean |phase| itself
for p in (2, 4, 8, 16):
    spec = hc.minimal_periodic_spectrum(p)
    mean_abs, half = hc.complexity(spec, t_pair)
    zeros = hc.zero_count(spec, 4096)
    print(f"{'minimal p=' + str(p):>14} {mean_abs:>12.5f} {half:>9.5f} {zeros:>6d}")
mean_abs, half = t_pair * APERIODIC_MEAN_ABS_PHASE  # no point spectrum, uniform phase density
print(f"{'aperiodic':>14} {mean_abs:>12.5f} {half:>9.5f}")

t_grid = np.linspace(0, 1, 2000)
ok = all(hc.check_lower_bound(hc.minimal_periodic_spectrum(p), t_grid).ok
         for p in range(2, 129, 2))
ok_packed = all(hc.check_lower_bound(inst.spectrum(), t_grid).ok
                for inst in packed.instances)
print(f"\n||q_t - q_0||^2 <= 2 C(t) on every grid point:")
print(f"  minimal family p <= 128: {ok}")
print(f"  all packed instances:    {ok_packed}")
print("\nReaching an orthogonal state costs at least one unit, which rules")
print("out cost-free shortcuts: the zero count of the overlap stays bounded")
print("for efficient implementations.")
