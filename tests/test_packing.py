"""Spectrum packing: disjointness, energy bound, grid structure."""

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import halfcycle.packing
from halfcycle import (CapacityError, ConsistencyError, PreconditionError, overlap_at,
                       pack_spectrum)


def instance(packed, n, m):
    """Instance (n, m): the instances run in (n, m) order, 2^n per size."""
    inst = packed.instances[2 ** n - 1 + m]
    assert (inst.n, inst.m) == (n, m)
    return inst


def exact_mean(inst):
    """The instance's mean phase/2pi, an exact fraction."""
    return Fraction(int(inst.numerators.sum()), inst.denominator * inst.period)


def reference_report(packed):
    """The report's flags and figures from one Fraction per instance, a
    pass per instance and a pass per size, each point checked against the
    grid of every size from its own up."""
    means = [exact_mean(inst) for inst in packed.instances]
    parity = sum(int(np.count_nonzero((inst.numerators // inst.denominator) % 2
                                      == np.arange(inst.period) % 2))
                 for inst in packed.instances)
    grid_ok, end = True, 0
    for n, nu_n in enumerate(packed.nu_exponents):
        end += 2 ** (n + nu_n)
        grid_ok &= bool(np.all(packed.values[:end] % (packed.denominator >> (n + nu_n)) == 0))
    return {
        "disjoint": (all(inst.numerators.size == inst.period for inst in packed.instances)
                     and len(set(packed.values.tolist())) == packed.values.size),
        "energy_bound_ok": max(means) <= 2,
        "max_energy": float(2 * np.pi * max(means)),
        "parity_compliance": parity / packed.values.size,
        "grid_ok": grid_ok,
        "instances": [{"n": inst.n, "m": inst.m, "period": inst.period,
                       "energy": float(2 * np.pi * mean)}
                      for inst, mean in zip(packed.instances, means)],
    }


def edited(packed, edit):
    """A PackedSpectra over a copy of ``packed.values`` changed in place by
    ``edit``, each instance a view of its slice of the copy."""
    values = packed.values.copy()
    edit(values)
    values.flags.writeable = False
    views = np.split(values, np.cumsum([inst.period for inst in packed.instances]))
    return dataclasses.replace(packed, values=values, instances=[
        dataclasses.replace(inst, numerators=view) for inst, view in zip(packed.instances, views)])


def test_size_zero_anchor_is_phase_zero():
    packed = pack_spectrum(0)
    inst = instance(packed, 0, 0)
    assert [Fraction(v, inst.denominator) for v in inst.numerators.tolist()] == [0]
    assert packed.to_dict()["instances"] == [{"n": 0, "m": 0, "period": 1, "energy": 0.0}]


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
        assert exact_mean(inst) == sum(ref, Fraction(0)) / inst.period
        expected = 2.0 * np.pi * np.array([float(x) for x in ref])
        assert inst.spectrum().phases.tobytes() == expected.tobytes()
    assert packed.to_dict()["parity_compliance"] == parity / packed.values.size
    assert np.array_equal(np.concatenate([inst.numerators for inst in packed.instances]),
                          packed.values)
    with pytest.raises(ValueError):
        packed.instances[0].numerators[0] = 1  # read-only, like the frozen instance


def test_pairwise_disjoint_n4_exhaustive():
    packed = pack_spectrum(4)
    assert packed.to_dict()["disjoint"]
    assert len(set(packed.values.tolist())) == packed.values.size == 341


def test_energy_bound_n4():
    packed = pack_spectrum(4)
    report = packed.to_dict()
    assert report["energy_bound_ok"]
    assert max(exact_mean(inst) for inst in packed.instances) <= 2
    assert report["max_energy"] <= 4 * np.pi
    assert all(inst["energy"] <= report["max_energy"] for inst in report["instances"])


def test_grid_membership_every_pass():
    # every point of size n sits on the 2^-(n + nu_n) grid, and so on the
    # finer grid of every later size
    packed = pack_spectrum(4)
    assert packed.to_dict()["grid_ok"] is reference_report(packed)["grid_ok"] is True


@pytest.mark.parametrize("n_max, nu", [(0, None), (1, None), (2, None), (3, None), (4, None),
                                       (5, None), (5, [0, 2, 4, 6, 8, 10])])
def test_report_matches_an_exact_fraction_reference(n_max, nu):
    packed = pack_spectrum(n_max, nu)
    report = packed.to_dict()
    assert report == {"n_max": n_max, "nu_exponents": list(packed.nu_exponents),
                      **reference_report(packed)}
    assert report["disjoint"] and report["energy_bound_ok"] and report["grid_ok"]


# on pack_spectrum(3), denominator 64: point 3 (16, size 1, whose grid step
# is 16) moved down to the unused 15; the last point (size 3) moved onto
# the anchor 0; and the anchor, instance (0, 0) of budget 2 * 64, moved up
# by 10**6 units of 2pi to a value no other point has
EDITS = {
    "grid_ok": lambda v: v.__setitem__(3, v[3] - 1),
    "disjoint": lambda v: v.__setitem__(-1, 0),
    "energy_bound_ok": lambda v: v.__setitem__(0, v[0] + 10 ** 6 * 64),
}


def flags(packed):
    report = packed.to_dict()
    return {name: report[name] for name in ("disjoint", "energy_bound_ok", "grid_ok")}


@pytest.mark.parametrize("flag", EDITS)
def test_each_flag_turns_off_alone(flag):
    packed = pack_spectrum(3)
    assert packed.denominator == 64 and packed.values[3] == 16
    bad = edited(packed, EDITS[flag])
    assert flags(bad) == {name: name != flag for name in flags(packed)}
    assert bad.to_dict() == {"n_max": 3, "nu_exponents": [0, 1, 2, 3], **reference_report(bad)}


def test_an_instance_short_of_a_point_is_not_disjoint():
    packed = pack_spectrum(3)
    last = packed.instances[-1]
    short = [*packed.instances[:-1], dataclasses.replace(last, numerators=last.numerators[:-1])]
    assert flags(dataclasses.replace(packed, instances=short)) == {
        "disjoint": False, "energy_bound_ok": True, "grid_ok": True}


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
    assert 0.8827 <= packed.to_dict()["parity_compliance"] <= 1.0


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
    # nu_n = n is proven infeasible at size 6, by pack_spectrum and by the
    # whole program; a faster-growing sequence is fine
    with pytest.raises(CapacityError, match="solver status 2"):
        pack_spectrum(6)
    assert full_milp(6, None) == "infeasible"
    report = pack_spectrum(5, [0, 2, 4, 6, 8, 10]).to_dict()
    assert report["disjoint"] and report["energy_bound_ok"]


def test_default_exponents_pack_at_size_five():
    report = pack_spectrum(5).to_dict()
    assert report["disjoint"] and report["energy_bound_ok"] and report["grid_ok"]


def solver_calls(monkeypatch):
    """The variable count of every scipy.optimize.milp call from now on,
    each checked to ask for a relative gap of 0: at HiGHS's default of 1e-4
    a MILP may stop short of the optimum (it does at (6, nu = 2n) with the
    whole coupled program), so no solve may leave the gap at its default."""
    import scipy.optimize
    solve, sizes = scipy.optimize.milp, []

    def spy(c, *args, **kwargs):
        assert (kwargs.get("options") or {}).get("mip_rel_gap") == 0
        sizes.append(len(c))
        return solve(c, *args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", spy)
    return sizes


def test_every_solve_asks_for_a_zero_gap(monkeypatch):
    # one solve on the restricted path; two, the restricted one then the
    # coupled program, where the packing is infeasible
    sizes = solver_calls(monkeypatch)
    assert pack_spectrum(5).diagnostics["path"] == "restricted"
    assert pack_spectrum(5, [0, 2, 4, 6, 8, 10]).diagnostics["path"] == "restricted"
    assert len(sizes) == 2
    with pytest.raises(CapacityError, match="solver status 2"):
        pack_spectrum(6)
    assert len(sizes) == 4


def test_the_coupled_program_decides_where_the_restricted_answer_falls_short(monkeypatch):
    # with the restricted solve made to fail at (5), the coupled part of the
    # program is solved; its answer is the whole program's optimum too
    solve = halfcycle.packing._solve
    calls = []

    def first_fails(*args):
        calls.append(args[0].sum())
        placed, res = solve(*args)
        return (None if len(calls) == 1 else placed), res

    monkeypatch.setattr(halfcycle.packing, "_solve", first_fails)
    packed = pack_spectrum(5)
    got = packed.diagnostics
    objective, parity = full_milp(5, None)
    assert (got["path"], got["gap"], got["objective"]) == ("milp", 0, objective)
    assert got["bound"] <= objective and got["points"] == calls[1] > calls[0]
    report = packed.to_dict()
    assert report["parity_compliance"] == parity
    assert report["disjoint"] and report["energy_bound_ok"] and report["grid_ok"]


def test_an_answer_that_breaks_its_program_is_refused(monkeypatch):
    # each solve's answer is checked in integers: one that leaves every pile
    # member without a rank trips the bug trap instead of becoming a packing
    import scipy.optimize
    solve = scipy.optimize.milp

    def zeroed(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.x = np.zeros_like(res.x)
        return res

    monkeypatch.setattr(scipy.optimize, "milp", zeroed)
    with pytest.raises(ConsistencyError, match="breaks a bound or row of its program"):
        pack_spectrum(5)


def full_milp(n_max, nu):
    """The optimum of the whole packing program, built here from the
    congruence alone and solved as one gap-0 MILP, with no closed-form or
    restricted step.  A point in a pile of L >= 2 has one binary per
    candidate integer part 0..L-1 and takes one of them, each part of a pile
    goes to at most one point, and the anchor (point 0) takes 0.  The points
    alone in their pile are interchangeable within their instance, so each
    instance has two integers: how many of its even-k and of its odd-k such
    points sit at 1, the rest at 0.  Every instance's parts keep within its
    budget.  Returns the objective of ``pack_spectrum``'s diagnostics
    (parity misses less the odd points alone) and the parity compliance, or
    "infeasible"."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    nu = list(range(n_max + 1)) if nu is None else list(nu)
    shift = n_max + nu[-1]
    denom = 2 ** shift
    nums, insts, ks = [], [], []
    for n, v in enumerate(nu):
        m, k = np.divmod(np.arange(2 ** (n + v)), 2 ** v)
        nums.append(((m << (shift - n - v)) + (k << (shift - v))) % denom)
        insts.append(2 ** n - 1 + m)
        ks.append(k % 2)
    num, inst, odd = (np.concatenate(a) for a in (nums, insts, ks))
    n_inst = int(inst[-1]) + 1
    budget = (2 * np.bincount(inst) * denom
              - np.bincount(inst, weights=num).astype(np.int64)) // denom
    pile = np.unique(num, return_inverse=True)[1]
    size = np.bincount(pile)[pile]
    collided = np.flatnonzero(size >= 2)  # the anchor, point 0, first
    collided = collided[np.argsort(pile[collided], kind="stable")]
    length = size[collided]
    owner = np.repeat(np.arange(collided.size), length)
    part = np.arange(owner.size) - (np.cumsum(length) - length)[owner]
    first = np.searchsorted(pile[collided], pile[collided])  # of each one's pile
    alone = (size == 1) & (np.arange(num.size) > 0)  # the anchor keeps 0
    alone = [np.bincount(inst[alone & (odd == b)], minlength=n_inst) for b in (0, 1)]
    # variables: x[collided point, part], then per instance how many of its
    # even and of its odd points alone sit at 1; rows: one per collided
    # point, one per (pile, part), one budget per instance
    x = np.arange(owner.size)
    n_x, n_c = owner.size, collided.size
    A = coo_array((np.r_[np.ones(2 * n_x), part, np.ones(2 * n_inst)],
                   (np.r_[owner, n_c + first[owner] + part, 2 * n_c + inst[collided[owner]],
                          2 * n_c + np.tile(np.arange(n_inst), 2)],
                    np.r_[x, x, x, n_x + np.arange(2 * n_inst)])),
                  shape=(2 * n_c + n_inst, n_x + 2 * n_inst))
    lower = np.zeros(A.shape[1])
    lower[0] = size[0] >= 2  # the anchor's part 0, if it is in a pile
    cost = np.r_[(part % 2 != odd[collided[owner]]).astype(float), np.ones(n_inst),
                 -np.ones(n_inst)]
    rows = LinearConstraint(A, np.r_[np.ones(2 * n_c), np.zeros(n_inst)],
                            np.r_[np.ones(2 * n_c), budget])
    res = milp(cost, integrality=np.ones(cost.size), bounds=Bounds(lower, np.r_[
        np.ones(n_x), alone[0], alone[1]]), constraints=rows, options={"mip_rel_gap": 0})
    if res.status == 2:
        return "infeasible"
    assert res.status == 0
    objective = int(round(res.fun))
    return objective, (num.size - objective - int(alone[1].sum())) / num.size


@pytest.mark.parametrize("n_max, nu, path", [
    (0, None, None), (1, None, None), (2, None, None), (3, None, None),
    (4, None, "closed"),
    (5, None, "restricted"),
    (5, [0, 2, 4, 6, 8, 10], "restricted"),
    (3, [0, 3, 5, 7], None), (4, [1, 2, 3, 5, 6], None),
    (4, [0, 1, 2, 4, 5], None), (4, [0, 2, 4, 6, 8], None),
    (1, [0, 2], "closed"), (2, [0, 2, 4], "closed"), (3, [0, 2, 4, 6], None),
    (3, [0, 1, 3, 6], None), (3, [0, 3, 4, 5], None),
    (4, [0, 1, 2, 3, 7], None), (4, [1, 2, 4, 5, 9], None),
])
def test_lp_path_reaches_the_full_milp_optimum(n_max, nu, path):
    # every input here is packed without the coupled program, so the bound
    # of the budget-free ranking proves each answer optimal
    packed = pack_spectrum(n_max, nu)
    got = packed.diagnostics
    objective, parity = full_milp(n_max, nu)
    if path:
        assert got["path"] == path
    assert got["path"] in ("closed", "restricted") and got["gap"] == 0
    assert got["objective"] == got["bound"] == objective
    assert (got["points"] == 0) == (got["path"] == "closed")
    assert got["points"] <= packed.values.size
    report = packed.to_dict()
    assert report["parity_compliance"] == parity
    assert report["disjoint"] and report["energy_bound_ok"] and report["grid_ok"]


@pytest.mark.parametrize("n_max, objective", [(0, 0), (1, -1), (2, -4)])
def test_no_budget_row_binds_up_to_size_two(n_max, objective):
    assert pack_spectrum(n_max).diagnostics == {
        "path": "closed", "objective": objective, "bound": objective, "gap": 0.0,
        "nodes": 0, "points": 0}


def test_the_solver_gets_only_the_coupled_part(monkeypatch):
    # at (5, nu = 2n) the closed-form ranking breaks few budgets: only the
    # piles in those instances, and the odd collision-free points of the
    # instances they load, are re-placed, 64 of 37,449 points
    sizes = solver_calls(monkeypatch)
    packed = pack_spectrum(5, [0, 2, 4, 6, 8, 10])
    assert (packed.values.size, packed.diagnostics["points"], sizes) == (37449, 64, [260])


def exponent_sequences():
    """Strictly increasing exponents for sizes 0..n_max, at most 2^12 points
    (size n_max alone holds 2^(n_max + nu_max), so nu_max <= 12 - n_max)."""
    return st.integers(0, 5).flatmap(lambda n_max: st.lists(
        st.integers(0, 12 - n_max), min_size=n_max + 1, max_size=n_max + 1, unique=True)).map(
        sorted).filter(lambda nu: sum(2 ** (n + v) for n, v in enumerate(nu)) <= 2 ** 12)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(nu=exponent_sequences())
def test_split_and_whole_programs_agree(nu):
    n_max = len(nu) - 1
    try:
        got = pack_spectrum(n_max, nu).diagnostics
    except CapacityError as exc:
        assert "solver status 2" in str(exc)
        got = {"objective": "infeasible"}
    ref = full_milp(n_max, nu)
    assert got["objective"] == (ref if ref == "infeasible" else ref[0])
    if got.get("path") in ("closed", "restricted"):
        assert got["objective"] == got["bound"]


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
