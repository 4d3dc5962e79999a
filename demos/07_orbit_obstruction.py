#!/usr/bin/env python3
"""Why kinetic-plus-potential generators resist this construction.

States on one orbit of H = -laplacian + V share the energy.  For any
coefficients with sum(a) = 0 that also cancel the moduli pointwise, the
potential term drops out for every V, so a nonzero kinetic mismatch
certifies that no such H carries all the states on one orbit.
"""

import numpy as np

import halfcycle as hc

print("=" * 64)
print("  Chirped Gaussian pair: equal moduli, different kinetic energy")
print("=" * 64)

gset = hc.chirped_pair(1024)
result = hc.obstruction_certificate(gset)
print(f"\ncoefficients a = {np.round(result.coefficients, 6)}")
print(f"kinetic mismatch K = {result.kinetic_mismatch:.6f} "
      f"(tolerance {result.tolerance:.2e})")
print("-> certificate: these two states lie on no common orbit of any")
print("   kinetic-plus-potential generator.")

print("\ngrid refinement (second-order convergence of K):")
prev = None
for G in (256, 512, 1024, 2048, 4096):
    K = hc.obstruction_certificate(hc.chirped_pair(G)).kinetic_mismatch
    drift = "" if prev is None else f"  drift {abs(K - prev):.2e}"
    print(f"  G = {G:5d}: K = {K:.8f}{drift}")
    prev = K

print("\npotential-term cancellation for random potentials:")
a = result.coefficients
rng = np.random.default_rng(0)
for i in range(3):
    V = rng.normal(size=gset.size)
    forms = [np.sum(V * np.abs(f) ** 2) * gset.h for f in gset.functions]
    print(f"  random V #{i}: sum_k a_k <h_k, V h_k> = {np.dot(a, forms):+.2e}")

print()
print("=" * 64)
print("  Controls")
print("=" * 64)
control = hc.obstruction_certificate(hc.identical_pair(1024))
print(f"\nidentical pair: certificate = False ({control.reason})")
x = np.linspace(-8, 8, 1024)
widths = hc.GridFunctionSet(x, [np.exp(-x ** 2 / 2), np.exp(-x ** 2 / 8)])
control2 = hc.obstruction_certificate(widths)
print(f"different widths: certificate = False ({control2.reason})")
