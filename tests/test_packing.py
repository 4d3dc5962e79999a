"""Spectrum packing: disjointness, energy bound, grid structure."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import halfcycle.packing
from halfcycle import CapacityError, PreconditionError, overlap_at, pack_spectrum


def instance(packed, n, m):
    """Instance (n, m): the instances run in (n, m) order, 2^n per size."""
    inst = packed.instances[2 ** n - 1 + m]
    assert (inst.n, inst.m) == (n, m)
    return inst


def test_size_zero_anchor_is_phase_zero():
    packed = pack_spectrum(0)
    inst = instance(packed, 0, 0)
    assert [Fraction(v, inst.denominator) for v in inst.numerators.tolist()] == [0]
    assert inst.mean_phase_over_2pi == 0


def test_congruence_holds_for_every_point():
    packed = pack_spectrum(3)
    for inst in packed.instances:
        denom = 2 ** (inst.n + packed.nu_exponents[inst.n])
        for k, v in enumerate(inst.numerators.tolist()):
            x = Fraction(v, inst.denominator)
            expected = (Fraction(inst.m, denom) + Fraction(k, 2 ** inst.nu)) % 1
            assert x - int(x) == expected


@pytest.mark.parametrize("n_max, nu", [(4, None), (5, [0, 2, 4, 6, 8, 10])])
def test_numerators_match_a_fraction_reference(n_max, nu):
    # each point is its congruence fraction plus the integer part read from
    # the stored numerator; points, mean phase and float phases must equal
    # what exact Fraction arithmetic gives, bit for bit
    packed = pack_spectrum(n_max, nu)
    parity = 0
    for inst in packed.instances:
        grid = 2 ** (inst.n + packed.nu_exponents[inst.n])
        ints = (inst.numerators // inst.denominator).tolist()
        ref = tuple(i + (Fraction(inst.m, grid) + Fraction(k, inst.period)) % 1
                    for k, i in enumerate(ints))
        parity += sum(int(x) % 2 == k % 2 for k, x in enumerate(ref))
        assert np.shares_memory(inst.numerators, packed.values)
        assert inst.denominator == packed.denominator
        assert tuple(Fraction(v, inst.denominator) for v in inst.numerators.tolist()) == ref
        assert inst.mean_phase_over_2pi == sum(ref, Fraction(0)) / inst.period
        expected = 2.0 * np.pi * np.array([float(x) for x in ref])
        assert inst.spectrum().phases.tobytes() == expected.tobytes()
    assert packed.parity_compliance() == parity / packed.values.size
    assert np.array_equal(np.concatenate([inst.numerators for inst in packed.instances]),
                          packed.values)
    with pytest.raises(ValueError):
        packed.instances[0].numerators[0] = 1  # read-only, like the frozen instance


def test_pairwise_disjoint_n4_exhaustive():
    packed = pack_spectrum(4)
    assert packed.all_disjoint()


def test_energy_bound_n4():
    packed = pack_spectrum(4)
    assert packed.to_dict()["energy_bound_ok"]
    assert max(inst.mean_phase_over_2pi for inst in packed.instances) <= 2
    for inst in packed.instances:
        assert inst.energy <= 4 * np.pi + 1e-12


def test_grid_membership_every_pass():
    packed = pack_spectrum(4)
    for p in packed.induction_passes():
        assert p.grid_ok
        assert all(count >= 1 for count, _ in p.occupancy.values())


def test_instance_spectrum_object():
    packed = pack_spectrum(2)
    spec = instance(packed, 2, 3).spectrum()
    assert spec.period == 4
    assert abs(overlap_at(spec, 0) - 1.0) < 1e-12


def test_generic_instances_keep_index_parity():
    # instances without collisions follow the interval parity rule exactly
    packed = pack_spectrum(3)
    inst = instance(packed, 3, 3)  # m not divisible by 4: collision-free
    assert all(int(Fraction(v, inst.denominator)) == k % 2
               for k, v in enumerate(inst.numerators.tolist()))


def test_parity_compliance_reported():
    # 0.8827 is what a greedy rank-and-swap assignment reaches at n_max = 4;
    # the program's optimum ranges over a set that contains that assignment
    packed = pack_spectrum(4)
    assert 0.8827 <= packed.parity_compliance() <= 1.0


def test_capacity_cap():
    # sum of 2^(2n) over n <= 10 is ~1.4e6 points, past DEFAULT_POINT_CAP = 2^20
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="exceed cap"):
            pack_spectrum(10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


@pytest.mark.parametrize("n_max, nu", [(11, None), (10 ** 5, None), (10 ** 9, None),
                                       (2, [0, 1, 10 ** 8]), (4, [0, 1, 2, 3, 17])])
def test_largest_size_past_the_cap_is_refused_before_building(n_max, nu):
    # size n_max alone holds 2^(n_max + nu_max) >= 4^n_max points; it is
    # refused before the default exponents or any power of two are formed
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="exceed cap"):
            pack_spectrum(n_max, nu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 10


@pytest.mark.parametrize("exponent", [2 ** 62, 2 ** 70], ids=["int64", "past int64"])
def test_an_exponent_past_int64_meets_the_point_cap(exponent):
    # an exponent int64 cannot hold is as infeasible as 2**62, and is refused alike
    with pytest.raises(CapacityError, match=f"^size 1 holds at least 2\\*\\*{exponent + 1} "
                                            f"eigenvalues, which exceed cap 1048576$"):
        pack_spectrum(1, [0, exponent])
    with pytest.raises(PreconditionError, match="strictly increasing"):
        pack_spectrum(2, [0, exponent, 5])
    with pytest.raises(PreconditionError, match="nonnegative"):
        pack_spectrum(1, [-exponent, 0])


def test_energy_infeasibility_is_an_error_not_a_silent_overrun():
    # nu_n = n is proven infeasible at size 6; a faster-growing sequence is fine
    with pytest.raises(CapacityError, match="solver status 2"):
        pack_spectrum(6)
    packed = pack_spectrum(5, [0, 2, 4, 6, 8, 10])
    assert packed.all_disjoint()
    assert max(inst.mean_phase_over_2pi for inst in packed.instances) <= 2


def test_default_exponents_pack_at_size_five():
    packed = pack_spectrum(5)
    assert packed.all_disjoint()
    assert max(inst.mean_phase_over_2pi for inst in packed.instances) <= 2
    assert all(p.grid_ok for p in packed.induction_passes())


def test_every_solve_asks_for_a_zero_gap(monkeypatch):
    # at HiGHS's default relative gap of 1e-4 a MILP may stop short of the
    # optimum (it does at (6, nu = 2n), too slow to run here), so no solve
    # may leave the gap at its default
    import scipy.optimize
    solve, gaps = scipy.optimize.milp, []

    def spy(*args, **kwargs):
        gaps.append((kwargs.get("options") or {}).get("mip_rel_gap"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", spy)
    assert pack_spectrum(5).diagnostics["path"] == "milp"  # LP, restricted, full MILP
    assert pack_spectrum(5, [0, 2, 4, 6, 8, 10]).diagnostics["path"] == "lp+restricted"
    assert len(gaps) >= 4 and all(gap == 0 for gap in gaps)


def full_milp(monkeypatch, n_max, nu):
    """pack_spectrum with the restricted solve turned off, so that the full
    MILP decides."""
    with monkeypatch.context() as patch:
        patch.setattr(halfcycle.packing, "_restricted_solve", lambda *args: None)
        return pack_spectrum(n_max, nu)


@pytest.mark.parametrize("n_max, nu, path", [
    (0, None, None), (1, None, None), (2, None, None), (3, None, None),
    (4, None, "lp+restricted"),
    (5, None, "milp"),  # the restricted solve is infeasible
    (5, [0, 2, 4, 6, 8, 10], "lp+restricted"),
    (3, [0, 3, 5, 7], None), (4, [1, 2, 3, 5, 6], None),
    (4, [0, 1, 2, 4, 5], None), (4, [0, 2, 4, 6, 8], None),
])
def test_lp_path_reaches_the_full_milp_optimum(monkeypatch, n_max, nu, path):
    packed = pack_spectrum(n_max, nu)
    reference = full_milp(monkeypatch, n_max, nu)
    got, ref = packed.diagnostics, reference.diagnostics
    assert ref["path"] == "milp" and ref["gap"] == 0 and got["gap"] == 0
    if path:
        assert got["path"] == path
    assert got["objective"] == ref["objective"] >= got["lp_bound"] == ref["lp_bound"]
    if got["path"] == "lp+restricted":
        assert got["objective"] == got["lp_bound"]  # proven optimal by the bound
    assert packed.parity_compliance() == reference.parity_compliance()
    assert packed.all_disjoint()
    assert max(inst.mean_phase_over_2pi for inst in packed.instances) <= 2
    assert all(p.grid_ok for p in packed.induction_passes())


def test_nu_sequence_validation():
    with pytest.raises(PreconditionError):
        pack_spectrum(2, [0, 0, 1])
    with pytest.raises(PreconditionError):
        pack_spectrum(2, [0, 1])
    with pytest.raises(PreconditionError):
        pack_spectrum(-1)


def test_weights_are_uniform_per_instance():
    packed = pack_spectrum(3)
    for inst in packed.instances:
        spec = inst.spectrum()
        assert np.allclose(spec.weights, 1.0 / inst.period)


def test_report_dict_shape():
    packed = pack_spectrum(2)
    d = packed.to_dict()
    assert d["disjoint"] and d["energy_bound_ok"] and d["grid_ok"]
    assert len(d["instances"]) == 1 + 2 + 4
