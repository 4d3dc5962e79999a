"""Acceptance gate: one test per criterion, each printing a PASS line.

Every Monte-Carlo criterion runs under a fixed seed, so the suite is
deterministic end to end.
"""

import math
import time
from fractions import Fraction

import numpy as np

import halfcycle as hc
from halfcycle.schrodinger import ObstructionAbsence, ObstructionCertificate
from halfcycle.spectral import OrbitSpectrum

P_RANGE = [2 ** k for k in range(1, 11)]  # 2, 4, ..., 1024
SEED = 20260810


def seeded(stream):
    return np.random.default_rng(np.random.SeedSequence((SEED, stream)))


def test_criterion_01_closed_form_agreement():
    start = time.perf_counter()
    worst = 0.0
    for p in P_RANGE:
        profile = hc.halfstep_profile_periodic(p)
        spec = hc.minimal_periodic_spectrum(p)
        # an unmarked copy, so overlap_at takes the direct sum, not the closed form
        summed = OrbitSpectrum(phases=spec.phases, weights=spec.weights)
        direct = hc.overlap_at(summed, np.arange(p) - 0.5)
        worst = max(worst, float(np.max(np.abs(profile.amplitudes - direct))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 5.0
    print(f"ACCEPTANCE 01 PASS closed form vs direct sum: max |diff| = {worst:.2e} "
          f"over p in {{2..1024}}, {elapsed:.2f}s")


def test_criterion_02_minimality_normalization():
    worst = 0.0
    for p in P_RANGE:
        captured = sum(abs(a) ** 2 for a in hc.halfstep_profile_periodic(p).amplitudes)
        worst = max(worst, abs(captured - 1.0))
    assert worst < 1e-10
    print(f"ACCEPTANCE 02 PASS total capture = 1: max |sum-1| = {worst:.2e}")


def test_criterion_03_peak_value():
    for p in P_RANGE:
        peak = abs(hc.halfstep_profile_periodic(p).amplitudes[p // 2])
        exact = 1.0 / (p * math.sin(math.pi / (2 * p)))
        assert abs(peak - exact) <= 1e-13 * exact  # float-exact agreement
        if p >= 16:
            assert abs(peak - 2 / math.pi) < 1.0 / p ** 2
    print("ACCEPTANCE 03 PASS peak amplitude 1/(p sin(pi/2p)), within 1/p^2 of 2/pi")


def test_criterion_04_aperiodic_euler_tail():
    for K in (100, 1000, 10000):
        captured = hc.halfstep_profile_aperiodic(K).captured
        tail = 1.0 - captured
        target = 2.0 / (math.pi ** 2 * K)
        assert abs(tail - target) / target < 0.1
    print("ACCEPTANCE 04 PASS truncation tail tracks 2/(pi^2 K) within 10% "
          "for K in {100, 1000, 10000}")


def test_criterion_05_orthogonality_delta():
    for p in P_RANGE:
        spec = hc.minimal_periodic_spectrum(p)
        vals = hc.overlap_at(spec, np.arange(1, p + 1))
        assert np.max(np.abs(vals[:-1])) < 1e-10
        assert abs(vals[-1] - 1.0) < 1e-10
    print("ACCEPTANCE 05 PASS overlap is the Kronecker delta mod p, all p <= 1024")


def test_criterion_06_moment_and_deviation_scaling():
    start = time.perf_counter()
    rng = seeded(6)
    report = hc.moment_experiment([64, 256, 1024], hc.get_density("uniform"),
                                    100_000, rng)
    elapsed = time.perf_counter() - start
    for row in report.rows:
        target = (1 - row.p ** -0.5) / 3
        assert abs(row.mean - target) < 3 * row.stderr
    spread = report.var_p_spread()
    assert spread < 4.0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 06 PASS mean nu within 3 se of (1-p^-1/2)/3 at p=64,256,1024; "
          f"var*p spread {spread:.3f} < 4; {elapsed:.1f}s")


def test_criterion_07_parity_allocation_bridge():
    for p in (8, 64, 256):
        window = hc.centered_window(p, hc.alpha_for_period(p))
        lhs = hc.nu_from_y(np.array([(-1) ** k / p for k in range(p)]), window)
        rhs = hc.nu_of(hc.halfstep_profile_periodic(p), window)
        assert abs(lhs - rhs) < 1e-10
    print("ACCEPTANCE 07 PASS alternating allocation reproduces the minimal "
          "profile nu to 1e-10 at p = 8, 64, 256")


def test_criterion_08_error_free_soundness():
    inc = hc.load_machine("incrementer")
    trace = hc.run(inc, hc.initial_config(inc, "0"), 100)
    cycle = hc.build_alpha_cycle(trace, Fraction(3, 4), source="incrementer(0)")
    profile = hc.halfstep_profile_periodic(cycle.p)
    nu = hc.nu_of(profile, cycle.window)
    rng = seeded(8)
    counts, summary = hc.repeat_error_free(cycle, profile, lambda r: r == (0, "1"),
                                           rng, runs=100_000)
    assert summary.invalid_results == 0
    assert summary.inconclusive_runs == 0
    assert abs(summary.mean_trials - 1 / nu) < 0.05 / nu
    assert summary.chain_ok()
    print(f"ACCEPTANCE 08 PASS 1e5 error-free runs: 0 invalid; mean trials "
          f"{summary.mean_trials:.5f} vs 1/nu = {1 / nu:.5f} (within 5%)")


def test_criterion_09_majority_bound():
    # synthetic pi = 3/4: valid value at 3/4, three distinct wrong values
    probs = np.array([0.75, 1 / 12, 1 / 12, 1 / 12])
    profile = hc.AmplitudeProfile(amplitudes=np.sqrt(probs).astype(complex),
                                  indices=np.arange(4), captured=1.0, period=4)
    result_of = lambda j: (0, "ok") if j == 0 else (1, f"w{j}")
    rng = seeded(9)
    runs = 100_000
    errors = 0
    bound = None
    for _ in range(runs):
        rep = hc.run_error_bounded(profile, [0], result_of, 15, rng)
        bound = rep.error_bound
        errors += rep.result != (0, "ok")
    rate = errors / runs
    assert rate < 2e-3
    assert rate <= bound  # binomial tail is the worst case over vote splits
    print(f"ACCEPTANCE 09 PASS majority m=15 at pi=3/4: empirical error {rate:.2e} "
          f"< 2e-3 (binary-worst-case tail {bound:.2e})")


def test_criterion_10_packing():
    report = hc.pack_spectrum(4).to_dict()
    assert report["disjoint"] and report["grid_ok"]
    assert report["energy_bound_ok"]  # exact integer comparison: energy <= 4pi
    print(f"ACCEPTANCE 10 PASS n_max=4 packing: all spectra pairwise disjoint, "
          f"max energy {report['max_energy']:.4f} <= 4pi")


def test_criterion_11_distance_lower_bound():
    t_grid = np.linspace(0.0, 1.0, 10_000)
    specs = [hc.minimal_periodic_spectrum(p) for p in range(2, 257, 2)]
    specs += [inst.spectrum() for inst in hc.pack_spectrum(4).instances]
    violations = 0
    for spec in specs:
        report = hc.check_lower_bound(spec, t_grid)
        violations += 0 if report.ok else 1
    assert violations == 0
    print(f"ACCEPTANCE 11 PASS distance bound on {len(specs)} spectra x 1e4 "
          f"grid points: zero violations")


def test_criterion_12_obstruction_certificate():
    res1 = hc.obstruction_certificate(hc.chirped_pair(1024))
    res2 = hc.obstruction_certificate(hc.chirped_pair(2048))
    assert isinstance(res1, ObstructionCertificate)
    assert isinstance(res2, ObstructionCertificate)
    assert abs(res1.kinetic_mismatch) > res1.tolerance
    drift = abs(res2.kinetic_mismatch - res1.kinetic_mismatch)
    assert drift < 4.0 * res1.spacing ** 2 * abs(res1.kinetic_mismatch)
    control = hc.obstruction_certificate(hc.identical_pair(1024))
    assert isinstance(control, ObstructionAbsence)
    print(f"ACCEPTANCE 12 PASS chirped pair certifies (K = {res1.kinetic_mismatch:.4f}, "
          f"grid-doubling drift {drift:.1e}); identical pair yields absence")


def test_criterion_13_cli_determinism(tmp_path):
    from halfcycle.cli import main

    cases = [
        ["profile", "--period", "64"],
        ["instant", "--machine", "incrementer", "--input", "0", "--seed", "424242"],
        ["instant", "--machine", "loop", "--seed", "424242", "--budget", "40"],
        ["stats", "--p", "64,256", "--trials", "2000", "--seed", "424242"],
        ["stats", "--p", "64", "--trials", "2000", "--seed", "424242", "--format", "csv"],
        ["pack", "--n", "4"],
        ["schrodinger", "--builtin", "chirped"],
        ["complexity", "--period", "16"],
    ]
    for i, args in enumerate(cases):
        a, b = tmp_path / f"{i}a", tmp_path / f"{i}b"
        assert main(args + ["--out", str(a)]) == main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
    print(f"ACCEPTANCE 13 PASS {len(cases)} CLI experiments byte-identical on rerun")
