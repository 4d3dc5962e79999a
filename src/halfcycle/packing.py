"""Pack every problem instance's spectrum into one bounded-energy operator.

Problem size n contributes 2^n instances, each carrying 2^{nu_n}
eigenphases whose fractional parts (in units of 2pi) are fixed by the
congruence

    phase_k / 2pi  =  m * 2^-(n + nu_n) + k * 2^-nu_n   (mod 1),

with nu_n a strictly increasing exponent sequence (default nu_n = n).
Each nu_n is the log2 of a period, so it is a size, read by the size rule
of ``errors.check_length`` with minimum 0 and bounded by the point cap.
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

The program is exact for feasibility: sorting any feasible set of
distinct integer parts of a pile down onto ranks 0..L-1 in the same order
(the anchor stays at 0), and moving every collision-free point down to 0
or 1, lowers no point.  CapacityError is raised only when the program is
infeasible, which proves that no disjoint packing within the energy bound
exists.

With every budget row dropped the program falls apart into one problem
per pile, each solved in closed form: the pile's ranks, the even ones
upward then the odd ones down, go to its even members (the anchor first)
then its odd ones in order, so only the surplus of one parity misses, and
every odd collision-free point sits at 1.  Dropping rows can only lower
the optimum, so the objective of that assignment, ``bound``, bounds the
program's optimum from below, exactly, as an integer.  The answer is
found in at most three steps, each solve a MILP by HiGHS through
scipy.optimize.milp at a relative gap of 0:

  1. if every instance's part sum fits its budget, the closed-form
     assignment is optimal (path "closed"; no solver runs, and scipy is
     not imported);
  2. otherwise only the piles with a member in an over-budget instance
     are re-placed, with the odd collision-free points of every instance
     whose row they may break (below), every other point kept at its
     closed-form part and those rows lowered by the kept parts.  Its answer
     is feasible for the whole program, since a row it leaves out either
     cannot bind or has only kept points, which fit; when its objective
     reaches the bound it is optimal (path "restricted").  It reaches the
     bound only if each pile misses parity on its surplus alone, so the
     members of the other parity take ranks of their own parity only; that
     drops no answer at the bound;
  3. otherwise the coupled part of the whole program is solved (path
     "milp"), and its verdict is the program's: if it is infeasible,
     CapacityError is raised.

An instance's budget row can bind only if its largest possible part sum
(pile size - 1 per collided point, 1 per odd collision-free point, 0 for
the anchor) exceeds its budget; every other row always holds.  The
coupled part of step 3 re-places every pile with a member in an instance
whose row can bind, and those instances' odd collision-free points; every
other pile and point keeps its closed-form part, which is optimal and
fits whatever the rest does.  Each solve's answer is checked against
every bound and row of its program in exact integer arithmetic; one that
breaks any raises ConsistencyError.
PackedSpectra keeps as ``diagnostics`` the step that gave the answer,
the whole program's objective and ``bound``, the proven gap (0), the
solver's node count and the number of points the solver placed.

All bookkeeping is on integer numerators over the single denominator
2^(n_max + nu_max), the dyadic grid every point lies on, so it is exact.
The result keeps them in one read-only array, each instance a view of its
slice, and builds its report from reductions over that array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConsistencyError, PreconditionError, check_length
from .spectral import OrbitSpectrum

ENERGY_BUDGET_OVER_2PI = 2  # mean phase <= 4pi
DEFAULT_POINT_CAP = 2 ** 20
_POINT_CAP_LOG2 = DEFAULT_POINT_CAP.bit_length() - 1


@dataclass(frozen=True, eq=False)
class PackedInstance:
    """One problem instance's assigned spectrum, in exact units of 2pi.

    ``numerators`` (read-only int64, index-aligned with k = 0..2^nu-1) are
    the points phase/2pi over the common ``denominator`` of the packing.
    """

    n: int
    m: int
    numerators: np.ndarray
    denominator: int
    nu: int

    @property
    def period(self) -> int:
        return 2 ** self.nu

    def spectrum(self):
        # exact: numerators stay below 2^53 and the denominator is a power of 2
        phases = 2.0 * np.pi * (self.numerators / self.denominator)
        weights = np.full(self.period, 1.0 / self.period)
        return OrbitSpectrum(phases=phases, weights=weights)


@dataclass(eq=False)
class PackedSpectra:
    """The full assignment for sizes 0..n_max.

    ``values`` (read-only int64) holds every point phase/2pi as a numerator
    over ``denominator`` = 2^(n_max + nu_max), in (n, m, k) order: size n
    holds 2^n instances of 2^nu_n points each, and each instance's
    ``numerators`` is a view into it.  The report's checks are reductions
    over these integers, which is exact.
    """

    n_max: int
    nu_exponents: tuple
    values: np.ndarray
    denominator: int
    instances: list
    diagnostics: dict  # how the assignment was found (_assign_ranks)

    def to_dict(self) -> dict:
        """The report.  Each point of size n is tested against the 2^-(n + nu_n)
        grid alone: the grids nest, so it then lies on every later size's
        grid.  Each energy is 2pi times the exact mean phase/2pi, rounded once."""
        nu = np.array(self.nu_exponents, dtype=np.int64)
        n = np.arange(nu.size)
        period = np.repeat(1 << nu, 1 << n)  # per instance, in (n, m) order
        start = np.cumsum(period) - period
        sums = np.add.reduceat(self.values, start)
        energies = 2 * np.pi * (sums / (self.denominator * period))
        k = np.arange(self.values.size) - np.repeat(start, period)
        step = np.repeat(self.denominator >> (n + nu), 1 << (n + nu))  # per point, its size's
        return {
            "n_max": self.n_max,
            "nu_exponents": list(self.nu_exponents),
            "disjoint": (all(inst.numerators.size == inst.period for inst in self.instances)
                         and np.unique(self.values).size == self.values.size),
            "energy_bound_ok": bool(np.all(
                sums <= ENERGY_BUDGET_OVER_2PI * self.denominator * period)),
            "max_energy": float(energies.max()),
            "parity_compliance": int(np.count_nonzero(
                (self.values // self.denominator) % 2 == k % 2)) / self.values.size,
            "grid_ok": bool(np.all(self.values % step == 0)),
            "instances": [
                {"n": inst.n, "m": inst.m, "period": inst.period, "energy": energy}
                for inst, energy in zip(self.instances, energies.tolist())
            ],
        }


def _largest_size_fits(n_max: int, exponent: int) -> None:
    """Size n_max alone holds 2^exponent points; refuse more than the cap."""
    if exponent > _POINT_CAP_LOG2:
        raise CapacityError(f"size {n_max} holds at least 2**{exponent} eigenvalues, "
                            f"which exceed cap {DEFAULT_POINT_CAP}")


def _validate_nu(n_max: int, nu_exponents) -> tuple:
    check_length("n_max", n_max, 0, cap=math.inf)  # the point cap follows
    _largest_size_fits(n_max, 2 * n_max)  # nu_n >= n, before any sequence is built
    if isinstance(nu_exponents, np.ndarray) and nu_exponents.ndim != 1:
        raise PreconditionError("exponents must be a one-dimensional list of integers")
    nu = tuple(range(n_max + 1)) if nu_exponents is None else tuple(nu_exponents)
    if len(nu) != n_max + 1:
        raise PreconditionError("need one exponent per size 0..n_max")
    for v in nu:  # each is the log2 of a period, a size; the point cap follows
        check_length("exponent", v, 0, cap=math.inf)
    nu = tuple(map(int, nu))  # Python ints, for exact powers and the report
    if any(b <= a for a, b in zip(nu, nu[1:])):
        raise PreconditionError("exponent sequence must be strictly increasing")
    _largest_size_fits(n_max, n_max + nu[-1])  # before any power is formed
    return nu


def pack_spectrum(n_max: int, nu_exponents=None) -> PackedSpectra:
    """Assign disjoint bounded-energy spectra to all instances of sizes
    0..n_max.  See the module docstring for the assignment program; more
    than DEFAULT_POINT_CAP points in size n_max alone (so every n_max > 10)
    or in total raise CapacityError before anything is allocated.  The cap
    bounds the points, not the solves: an infeasible instance is refused
    with CapacityError only after them, which for (7, [0, 2, 4, 6, 8, 10,
    11, 12]) took 50-53 s and 920-990 MB, and for (7, [1, 3, 5, 7, 9, 10,
    11, 12]) 70-73 s and 1080 MB (1 BLAS thread, 2-vCPU Intel Xeon)."""
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
        budgets.append((ENERGY_BUDGET_OVER_2PI * period * denom - num.sum(axis=1)) // denom)
    nums = np.concatenate(nums)
    pile = np.unique(nums, return_inverse=True)[1]
    parts, diagnostics = _assign_ranks(np.concatenate(insts), np.concatenate(odds), pile,
                                       np.concatenate(budgets))

    values = parts * denom + nums
    values.flags.writeable = False
    views = np.split(values, np.cumsum([2 ** v for n, v in enumerate(nu) for _ in range(2 ** n)]))
    instances = [PackedInstance(n=n, m=m, numerators=views[2 ** n - 1 + m], denominator=denom,
                                nu=nu[n]) for n in range(n_max + 1) for m in range(2 ** n)]
    return PackedSpectra(n_max=n_max, nu_exponents=nu, values=values, denominator=denom,
                         instances=instances, diagnostics=diagnostics)


def _binding_rows(inst, odd, size, budgets) -> np.ndarray:
    """Per instance, whether its largest possible part sum (module
    docstring) exceeds its budget, so that its budget row can bind."""
    reach = np.where(size >= 2, size - 1, odd)
    reach[0] = 0  # point 0 is the anchor, held at rank 0
    return np.bincount(inst, weights=reach, minlength=budgets.size) > budgets


def _assign_ranks(inst, odd, pile, budgets) -> tuple:
    """Integer part of every point, from an optimal solution of the program
    in the module docstring, and the diagnostics of how it was found.
    ``inst``, ``odd`` (k mod 2) and ``pile`` are per point, in (n, m, k)
    order; ``budgets`` is per instance."""
    size = np.bincount(pile)[pile]
    odd_single = (size == 1) & (odd == 1)
    # every pile ranked by the budget-free rule (module docstring)
    parts = np.zeros(pile.size, dtype=np.int64)
    member = np.flatnonzero(size >= 2)
    member = member[np.lexsort((odd[member], pile[member]))]
    t = np.arange(member.size) - np.searchsorted(pile[member], pile[member])
    parts[member] = np.where(t < (size[member] + 1) // 2, 2 * t, 2 * (size[member] - 1 - t) + 1)
    parts[odd_single] = 1
    bound = _objective(parts, odd, odd_single)
    # exact: integer sums far below 2^53
    over = np.bincount(inst, weights=parts, minlength=budgets.size) > budgets
    if not over.any():
        return parts, {"path": "closed", "objective": bound, "bound": bound, "gap": 0.0,
                       "nodes": 0, "points": 0}
    binds = _binding_rows(inst, odd, size, budgets)
    # a point may miss parity at the bound only if its parity is its pile's surplus
    surplus = (np.bincount(pile, weights=1 - odd)[pile] >= (size + 1) // 2) != odd
    for path, seed, loose in (("restricted", over, surplus),
                              ("milp", binds, np.full(pile.size, True))):
        # the piles with a member in a seed instance, the instances they
        # load whose rows can bind, and those instances' odd collision-free points
        piles = (size >= 2) & (np.bincount(pile, weights=seed[inst]) > 0)[pile]
        rows = seed | (binds & (np.bincount(inst, weights=piles, minlength=budgets.size) > 0))
        free = piles | (odd_single & rows[inst])
        placed, res = _solve(free, rows, loose, parts, inst, odd, pile, size, budgets)
        if placed is None:
            continue
        objective = _objective(placed, odd, odd_single)
        if objective == bound or path == "milp":
            return placed, {"path": path, "objective": objective, "bound": bound,
                            "gap": float(res.mip_gap), "nodes": int(res.mip_node_count),
                            "points": int(np.count_nonzero(free))}
    raise _infeasible(res)


def _objective(parts, odd, odd_single) -> int:
    """The program's objective: parity misses less odd collision-free points."""
    return int(np.count_nonzero(parts % 2 != odd) - np.count_nonzero(odd_single))


def _solve(free, rows, loose, parts, inst, odd, pile, size, budgets) -> tuple:
    """Re-place the ``free`` points (whole piles, and odd collision-free
    points of ``rows`` instances) by one gap-0 MILP, every other point kept
    at its part in ``parts`` and each ``rows`` instance's budget row lowered
    by its kept parts; a gap of 0 makes the answer optimal, not just within
    HiGHS's default gap of 1e-4.  A pile member not in ``loose`` takes only
    ranks of its own parity, which at the restricted step drops no answer at
    the bound (module docstring).  Returns the new parts, or None if that
    program is infeasible, and the solver's result.  An answer that breaks
    a bound or row of the program, checked in exact integer arithmetic,
    raises ConsistencyError."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    member = np.flatnonzero(free & (size >= 2))
    member = member[np.argsort(pile[member], kind="stable")]
    single = np.flatnonzero(free & (size == 1))
    row = np.cumsum(rows) - 1  # instance -> its budget row, if it has one
    n_members, n_inst = member.size, int(row[-1]) + 1
    # Rows: one per member, one per (pile, rank), one per budget.  The variables
    # x[member i, rank r] are the allowed pairs in (i, r) order; one's rank row
    # is n_members + first[i] + r, first[i] being the first member of i's pile.
    length = size[member]
    first = np.searchsorted(pile[member], pile[member])
    owner = np.repeat(np.arange(n_members), length)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(length) - length, length)
    allowed = loose[member[owner]] | (rank % 2 == odd[member[owner]])
    owner, rank = owner[allowed], rank[allowed]
    n_x = owner.size
    loaded = (rank > 0) & rows[inst[member[owner]]]
    var = np.arange(n_x)
    A = coo_array((np.concatenate([np.ones(2 * n_x), rank[loaded], np.ones(n_inst)]),
                   (np.concatenate([owner, n_members + first[owner] + rank,
                                    2 * n_members + row[inst[member[owner[loaded]]]],
                                    2 * n_members + np.arange(n_inst)]),
                    np.concatenate([var, var, var[loaded], n_x + np.arange(n_inst)]))),
                  shape=(2 * n_members + n_inst, n_x + n_inst)).tocsr()

    # y_j, the number of instance j's free odd collision-free points at 1
    n_odd = np.bincount(row[inst[single]], minlength=n_inst)
    cost = np.concatenate([(rank % 2 != odd[member[owner]]).astype(float), -np.ones(n_inst)])
    lower = np.zeros(n_x + n_inst)
    if n_members and member[0] == 0:
        lower[0] = 1.0  # point 0 is the anchor; its pile (fraction 0) sorts first
    upper = np.concatenate([np.ones(n_x), n_odd])
    kept = np.bincount(inst, weights=np.where(free, 0, parts), minlength=budgets.size)
    row_lower = np.concatenate([np.ones(2 * n_members), np.zeros(n_inst)])
    row_upper = np.concatenate([np.ones(2 * n_members), (budgets - kept)[rows]])
    res = milp(cost, integrality=np.ones(cost.size), bounds=Bounds(lower, upper),
               constraints=LinearConstraint(A, row_lower, row_upper),
               options={"mip_rel_gap": 0})
    if res.status != 0:
        return None, res
    x = np.rint(res.x)
    value = A @ x  # integer coefficients and values: exact in float64
    if not (np.all((lower <= x) & (x <= upper))
            and np.all((row_lower <= value) & (value <= row_upper))):
        raise ConsistencyError("the solver's answer breaks a bound or row of its program")

    placed = parts.copy()
    chosen = np.flatnonzero(x[:n_x])
    placed[member[owner[chosen]]] = rank[chosen]
    # The first y_j free odd collision-free points of instance j sit at 1.
    j = row[inst[single]]
    within = np.arange(single.size) - (np.cumsum(n_odd) - n_odd)[j]
    placed[single] = within < x[n_x:][j]
    return placed, res


def _infeasible(res) -> CapacityError:
    return CapacityError(
        "no disjoint packing within the energy bound: "
        f"solver status {res.status} ({res.message}); a faster-growing "
        "exponent sequence (e.g. nu_n = 2n) spreads the collisions enough")
