"""Pack every problem instance's spectrum into one bounded-energy operator.

Problem size n contributes 2^n instances, each carrying 2^{nu_n}
eigenphases whose fractional parts (in units of 2pi) are fixed by the
congruence

    phase_k / 2pi  =  m * 2^-(n + nu_n) + k * 2^-nu_n   (mod 1),

with nu_n a strictly increasing exponent sequence (default nu_n = n).
Only the nonnegative integer part of phase/2pi is free.  The assignment
below chooses those integer parts so that

  * all instance spectra are pairwise disjoint (exact rational points),
  * each instance's mean phase stays at most 4pi (energy bound),
  * as many points as possible keep the even/odd interval parity of their
    index k.

Points whose fractional parts coincide form a "pile"; within a pile the
integer parts must be pairwise distinct.  One 0/1 program chooses every
integer part:

  * a pile of L >= 2 members has one binary x[member, rank] per rank
    0..L-1; each member takes one rank, each rank goes to one member, and
    the size-0 anchor point (0, 0, 0) keeps rank 0;
  * a collision-free point with even k sits at 0; each instance has one
    integer in [0, #its odd collision-free points] saying how many of
    those sit at 1, the rest sitting at 0;
  * each instance's integer parts sum to at most floor(2 * period - sum
    of its fractional parts), i.e. its mean phase is at most 4pi;
  * the objective, minimised, is the number of points whose integer part
    differs from k mod 2, less the number of odd collision-free points
    (a constant, so the objective is negative).

The program is exact for feasibility.  Sorting any feasible set of
distinct nonnegative integer parts of a pile down onto ranks 0..L-1, in
the same order (so the anchor at 0 stays at 0), and moving every
collision-free point down to 0 or 1, lowers no point, so every instance
stays within its budget.  An infeasible program therefore proves that no
disjoint packing within the energy bound exists, and only then is
CapacityError raised.

HiGHS solves the program through scipy.optimize.milp, always at a
relative gap of 0, in up to three steps:

  1. the LP relaxation.  If it is infeasible, so is the program, and
     CapacityError is raised;
  2. the restricted solve: every variable the LP left integral (within
     1e-9) is fixed at its rounded value, and the program is solved over
     the few fractional ones that remain.  Its solution is checked against
     every bound and row in exact integer arithmetic;
  3. the full program, if the restricted solve is infeasible or its
     objective lies above the LP bound.

All costs are integers, so the LP optimum rounded up is a lower bound on
the program's optimum (it is rounded up after a relative slack of 1e-6
is taken off, which can only lower it).  An integer solution that reaches
the bound is optimal; the full program decides every other case.  Either
way parity is optimal among the program's solutions.  PackedSpectra
keeps the step that gave the answer, the objective, the LP bound, the
proven gap (0) and the node count as ``diagnostics``.

All bookkeeping is on integer numerators over the single denominator
2^(n_max + nu_max), the dyadic grid every point lies on, so it is exact.
The result keeps those numerators in one read-only array: each instance
holds a view of its slice, the report's checks run on them, and
fractions.Fraction points are built only when ``PackedInstance.points``
is asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, PreconditionError
from .spectral import OrbitSpectrum

ENERGY_BUDGET_OVER_2PI = Fraction(2)  # mean phase <= 4pi
DEFAULT_POINT_CAP = 2 ** 20
_POINT_CAP_LOG2 = DEFAULT_POINT_CAP.bit_length() - 1
_INTEGRAL_TOLERANCE = 1e-9  # an LP value this close to an integer is fixed there
_LP_SLACK = 1e-6  # relative; taken off the LP optimum before rounding it up


@dataclass(frozen=True, eq=False)
class PackedInstance:
    """One problem instance's assigned spectrum, in exact units of 2pi.

    ``numerators`` (read-only int64, index-aligned with k = 0..2^nu-1) are
    the points phase/2pi over the common ``denominator`` of the packing;
    ``points`` builds them as Fractions on request.
    """

    n: int
    m: int
    numerators: np.ndarray
    denominator: int
    nu: int

    @property
    def period(self) -> int:
        return 2 ** self.nu

    @property
    def points(self) -> tuple:
        return tuple(Fraction(v, self.denominator) for v in self.numerators.tolist())

    @property
    def mean_phase_over_2pi(self) -> Fraction:
        return Fraction(int(self.numerators.sum()), self.denominator * self.period)

    @property
    def energy(self) -> float:
        return float(2 * np.pi * self.mean_phase_over_2pi)

    def spectrum(self):
        # exact: numerators stay below 2^53 and the denominator is a power of 2
        phases = 2.0 * np.pi * (self.numerators / self.denominator)
        weights = np.full(self.period, 1.0 / self.period)
        return OrbitSpectrum(phases=phases, weights=weights, period=self.period)


@dataclass(frozen=True)
class IntervalPass:
    """Occupancy snapshot after all sizes <= n are assigned."""

    n: int
    grid_ok: bool  # every point sits on the 2^-(n+nu_n) grid of its interval
    occupancy: dict  # interval index -> (count, equidistant slot capacity 2^(n-k+nu_n))


@dataclass(eq=False)
class PackedSpectra:
    """The full assignment for sizes 0..n_max.

    ``values`` (read-only int64) holds every point phase/2pi as a numerator
    over ``denominator`` = 2^(n_max + nu_max), in (n, m, k) order, so the
    points of all sizes <= n are a prefix of it; each instance's
    ``numerators`` is a view into it.  The checks below run on these
    integers, which is exact.
    """

    n_max: int
    nu_exponents: tuple
    values: np.ndarray
    denominator: int
    instances: list
    diagnostics: dict  # how the solver reached the assignment (_solve)

    def all_disjoint(self) -> bool:
        """Exhaustive disjointness check: every instance carries 2^nu
        points and no two points of the whole assignment coincide."""
        return (all(inst.numerators.size == inst.period for inst in self.instances)
                and np.unique(self.values).size == self.values.size)

    def parity_compliance(self) -> float:
        """Fraction of points whose interval index matches k mod 2."""
        matches = sum(int(np.count_nonzero((inst.numerators // self.denominator) % 2
                                           == np.arange(inst.period) % 2))
                      for inst in self.instances)
        return matches / self.values.size

    def induction_passes(self) -> list:
        """Per-size occupancy snapshots.

        For each size n, checks that every assigned point of sizes <= n
        lies on the equidistant grid of spacing 2^-(n + nu_n) inside its
        interval [2pi*k, 2pi*(k+1)), and reports per-interval occupancy
        against the equidistant slot count 2^(n-k+nu_n).  Occupancy above
        that figure is reported, not asserted: the assigned points remain
        a subset of a refining equidistant family either way.
        """
        passes = []
        end = 0
        for n, nu_n in enumerate(self.nu_exponents):
            end += 2 ** (n + nu_n)
            pts = self.values[:end]
            grid_ok = bool(np.all(pts % (self.denominator >> (n + nu_n)) == 0))
            intervals, counts = np.unique(pts // self.denominator, return_counts=True)
            report = {
                k: (count, 2 ** (n - k + nu_n) if n - k + nu_n >= 0 else 0)
                for k, count in zip(intervals.tolist(), counts.tolist())
            }
            passes.append(IntervalPass(n=n, grid_ok=grid_ok, occupancy=report))
        return passes

    def to_dict(self) -> dict:
        means = [inst.mean_phase_over_2pi for inst in self.instances]
        max_mean = max(means)
        return {
            "n_max": self.n_max,
            "nu_exponents": list(self.nu_exponents),
            "disjoint": self.all_disjoint(),
            "energy_bound_ok": max_mean <= ENERGY_BUDGET_OVER_2PI,
            "max_energy": float(2 * np.pi * max_mean),
            "parity_compliance": self.parity_compliance(),
            "grid_ok": all(p.grid_ok for p in self.induction_passes()),
            "instances": [
                {"n": inst.n, "m": inst.m, "period": inst.period, "energy": float(2 * np.pi * mean)}
                for inst, mean in zip(self.instances, means)
            ],
        }


def _largest_size_fits(n_max: int, exponent: int) -> None:
    """Size n_max alone holds 2^exponent points; refuse more than the cap."""
    if exponent > _POINT_CAP_LOG2:
        raise CapacityError(f"size {n_max} holds at least 2**{exponent} eigenvalues, "
                            f"which exceed cap {DEFAULT_POINT_CAP}")


def _validate_nu(n_max: int, nu_exponents) -> tuple:
    if n_max < 0:
        raise PreconditionError("n_max must be nonnegative")
    _largest_size_fits(n_max, 2 * n_max)  # nu_n >= n, before any sequence is built
    if nu_exponents is None:
        nu = tuple(range(n_max + 1))
    else:
        nu = tuple(int(v) for v in nu_exponents)
    if len(nu) != n_max + 1:
        raise PreconditionError("need one exponent per size 0..n_max")
    if any(v < 0 for v in nu):
        raise PreconditionError("exponents must be nonnegative")
    if any(b <= a for a, b in zip(nu, nu[1:])):
        raise PreconditionError("exponent sequence must be strictly increasing")
    _largest_size_fits(n_max, n_max + nu[-1])  # before any power is formed
    return nu


def pack_spectrum(n_max: int, nu_exponents=None) -> PackedSpectra:
    """Assign disjoint bounded-energy spectra to all instances of sizes
    0..n_max.  See the module docstring for the assignment program; more
    than DEFAULT_POINT_CAP points in size n_max alone (so every n_max > 10)
    or in total raise CapacityError before anything is allocated."""
    nu = _validate_nu(n_max, nu_exponents)
    total_points = sum(2 ** (n + nu[n]) for n in range(n_max + 1))
    if total_points > DEFAULT_POINT_CAP:
        raise CapacityError(f"{total_points} eigenvalues exceed cap {DEFAULT_POINT_CAP}")

    # Every point in (n, m, k) order as a numerator over 2^shift; instance
    # (n, m) has index 2^n - 1 + m.
    shift = n_max + nu[-1]
    denom = 2 ** shift
    nums, insts, odds, budgets = [], [], [], []
    for n in range(n_max + 1):
        period = 2 ** nu[n]
        m = np.arange(2 ** n, dtype=np.int64)
        k = np.arange(period, dtype=np.int64)
        num = ((m[:, np.newaxis] << (shift - n - nu[n])) + (k << (shift - nu[n]))) % denom
        nums.append(num.ravel())
        insts.append(np.repeat(2 ** n - 1 + m, period))
        odds.append(np.tile(k % 2, 2 ** n))
        budgets.append((int(ENERGY_BUDGET_OVER_2PI * period * denom) - num.sum(axis=1)) // denom)
    nums = np.concatenate(nums)
    pile = np.unique(nums, return_inverse=True)[1]
    parts, diagnostics = _assign_ranks(np.concatenate(insts), np.concatenate(odds), pile,
                                       np.concatenate(budgets))

    values = parts * denom + nums
    values.flags.writeable = False
    instances = []
    pos = 0
    for n in range(n_max + 1):
        for m in range(2 ** n):
            instances.append(PackedInstance(n=n, m=m, numerators=values[pos:pos + 2 ** nu[n]],
                                            denominator=denom, nu=nu[n]))
            pos += 2 ** nu[n]
    return PackedSpectra(n_max=n_max, nu_exponents=nu, values=values, denominator=denom,
                         instances=instances, diagnostics=diagnostics)


def _assign_ranks(inst, odd, pile, budgets) -> tuple:
    """Integer part of every point, from an optimal solution of the program
    in the module docstring, and the solver's diagnostics.  ``inst``,
    ``odd`` (k mod 2) and ``pile`` are per point, in (n, m, k) order;
    ``budgets`` is per instance."""
    from scipy.optimize import LinearConstraint
    from scipy.sparse import coo_array

    size = np.bincount(pile)[pile]
    member = np.flatnonzero(size >= 2)
    member = member[np.argsort(pile[member], kind="stable")]
    n_members, n_inst = member.size, budgets.size
    # Rows: one per member, one per (pile, rank), one budget per instance.
    # x[member i, rank r] is variable start[i] + r; its rank row is
    # n_members + first[i] + r, first[i] being the first member of i's pile.
    length = size[member]
    start = np.cumsum(length) - length
    first = np.searchsorted(pile[member], pile[member])
    n_x = int(length.sum())
    owner = np.repeat(np.arange(n_members), length)
    rank = np.arange(n_x) - start[owner]
    loaded = rank > 0
    var = np.arange(n_x)
    rows = np.concatenate([owner, n_members + first[owner] + rank,
                           2 * n_members + inst[member[owner[loaded]]],
                           2 * n_members + np.arange(n_inst)])
    cols = np.concatenate([var, var, var[loaded], n_x + np.arange(n_inst)])
    coef = np.concatenate([np.ones(2 * n_x), rank[loaded], np.ones(n_inst)])
    A = coo_array((coef, (rows, cols)), shape=(2 * n_members + n_inst, n_x + n_inst))

    odd_single = (size == 1) & (odd == 1)
    n_odd = np.bincount(inst[odd_single], minlength=n_inst)
    cost = np.concatenate([(rank % 2 != odd[member[owner]]).astype(float), -np.ones(n_inst)])
    lower = np.zeros(n_x + n_inst)
    if n_members and member[0] == 0:
        lower[0] = 1.0  # point 0 is the anchor; its pile (fraction 0) sorts first
    upper = np.concatenate([np.ones(n_x), n_odd])
    row_upper = np.concatenate([np.ones(2 * n_members), budgets])
    row_lower = np.concatenate([np.ones(2 * n_members), np.zeros(n_inst)])
    x, diagnostics = _solve(cost, lower, upper, LinearConstraint(A, row_lower, row_upper))

    parts = np.zeros(pile.size, dtype=np.int64)
    chosen = np.flatnonzero(x[:n_x])
    parts[member[owner[chosen]]] = rank[chosen]
    # The first y_j odd collision-free points of instance j sit at 1.
    single = np.flatnonzero(odd_single)
    j = inst[single]
    within = np.arange(single.size) - (np.cumsum(n_odd) - n_odd)[j]
    parts[single[within < x[n_x:][j]]] = 1
    return parts, diagnostics


def _solve(cost, lower, upper, constraints) -> tuple:
    """An optimal integer solution of the program and its diagnostics: the
    LP bound, then the restricted solve, then the full MILP if need be
    (module docstring)."""
    lp = _milp(cost, np.zeros(cost.size), lower, upper, constraints)
    if lp.status == 2:
        raise _infeasible(lp)
    bound = None
    if lp.status == 0:
        # integer costs: the MILP optimum is at least the LP optimum rounded
        # up; the slack can only lower the bound
        bound = math.ceil(lp.fun - _LP_SLACK * max(1.0, abs(lp.fun)))
        found = _restricted_solve(cost, lower, upper, constraints, lp.x)
        if found is not None:
            x, nodes = found
            objective = int(cost @ x)
            if objective <= bound:
                return x, {"path": "lp+restricted", "objective": objective, "lp_bound": bound,
                           "gap": 0.0, "nodes": nodes}
    res = _milp(cost, np.ones(cost.size), lower, upper, constraints)
    if res.status != 0:
        raise _infeasible(res)
    x = np.rint(res.x).astype(np.int64)
    return x, {"path": "milp", "objective": int(cost @ x), "lp_bound": bound,
               "gap": float(res.mip_gap), "nodes": int(res.mip_node_count)}


def _restricted_solve(cost, lower, upper, constraints, x_lp):
    """The MILP over the variables the LP left fractional, every other one
    fixed at its rounded LP value: the integer solution and the solver's
    node count, or None if it is infeasible.  The solution is checked
    against every bound and row in exact integer arithmetic."""
    from scipy.optimize import LinearConstraint

    x = np.rint(x_lp)
    free = np.abs(x_lp - x) > _INTEGRAL_TOLERANCE
    A = constraints.A.tocsc()
    nodes = 0
    if free.any():
        A_free = A[:, free]
        used = np.diff(A_free.tocsr().indptr) > 0
        fixed = A[:, ~free] @ x[~free]
        res = _milp(cost[free], np.ones(int(free.sum())), lower[free], upper[free],
                    LinearConstraint(A_free[used], (constraints.lb - fixed)[used],
                                     (constraints.ub - fixed)[used]))
        if res.status != 0:
            return None
        x[free] = np.rint(res.x)
        nodes = int(res.mip_node_count)
    row = A @ x  # integer coefficients and values: exact in float64
    if (np.all((lower <= x) & (x <= upper))
            and np.all((constraints.lb <= row) & (row <= constraints.ub))):
        return x.astype(np.int64), nodes
    return None


def _milp(cost, integrality, lower, upper, constraints):
    """One HiGHS solve through scipy, at a relative gap of 0: a MILP
    answer is optimal, not just within HiGHS's default gap of 1e-4."""
    from scipy.optimize import Bounds, milp

    return milp(cost, integrality=integrality, bounds=Bounds(lower, upper),
                constraints=constraints, options={"mip_rel_gap": 0})


def _infeasible(res) -> CapacityError:
    return CapacityError(
        "no disjoint packing within the energy bound: "
        f"solver status {res.status} ({res.message}); a faster-growing "
        "exponent sequence (e.g. nu_n = 2n) spreads the collisions enough")
