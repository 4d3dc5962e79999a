"""Random sampling over the spectral freedom of efficient implementations.

An implementation of a period-p orbit fixes total weight 1/p per phase
class but leaves the split between the two mod-4pi branches free; the
imbalance y_j of class j can sit anywhere in [-1/p, +1/p].  Sampling the
y_j i.i.d. from a rescaled even density on [-1, 1] and evaluating the
half-cycle window mass

    nu = sum_{j in window} | sum_k y_k exp(-2pi*i*k*(j - 1/2)/p) |^2

gives the success probability of a randomly drawn implementation;
``nu_from_y`` evaluates it by direct summation for one array y of
imbalances, whose length is the period p.  With an
even density of second moment m2 and window fraction alpha,
E(nu) = alpha*m2, with standard deviation falling like p^{-1/2}; the
experiment driver below estimates the moments, the deviation scaling, and
a calibrated one-sided Chebyshev coverage figure.  A density fills a
caller-given float array with its draws in place (``DensitySpec.sample``),
so the driver draws every block of a call into one buffer.  The
raised-cosine density (1 + cos(pi*y))/2 is drawn by rejection:
sin(pi*y/2) follows the semicircle law, which is the law of the
x-coordinate of a uniform point in the unit disk, so y = (2/pi)*arcsin(a)
for the first coordinate a of the points of [-1, 1) x [0, 1) that land
inside the disk (von Neumann's rejection, accepting pi/4 of the points).
No cosine is evaluated, and the points go in fixed blocks of _DRAW_BLOCK
outputs through one scratch array per call, so the draw holds no
temporary larger than a block.

The window covers all but about sqrt(p) of the p bins, and the twisted
DFT c_j = sum_k y_k exp(-2pi*i*k*(j - 1/2)/p) is unitary up to sqrt(p),
so by Parseval

    nu = p * sum_k y_k^2 - sum_{j not in window} |c_j|^2.

The experiment driver draws and evaluates each period in blocks of at
most _BLOCK_DRAWS draws (2 MiB), and never rescales its draws x = p*y: it
evaluates nu = sum_k x_k^2/p - sum_{j not in window} |c_j(x)|^2/p^2, the
complement as one real matrix product per block with the [cos | sin]
basis of its m = 2L bins folded in pairs onto L + 2, whenever the
unfolded basis would hold at most _BASIS_ENTRIES entries (p * 2m <= 2**21:
every even p up to 10404, so every power of two up to 8192); larger
periods take one FFT per row with one twist per period.  Direct summation
stays the authoritative evaluator: the half-step evaluator of
``spectral`` (one FFT per row, which is the same sum) gives every other
window mass and checks the first row of every product-path block by
``errors.check_residual``.

Periods and trial counts obey the size rule of
``errors.check_length``; the draws of one experiment, the sum of its
periods times its trials, are capped at _DRAW_CAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cycle import alpha_for_period, centered_window
from .errors import (CapacityError, PreconditionError, check_length, check_residual,
                     check_run)
from .spectral import _halfstep_rows, _halfstep_twist

_BLOCK_DRAWS = 2 ** 18  # draws per block of the experiment (2 MiB), at least one row
# Unfolded complement-basis entries p * 2m: every even p up to 10404.  At p = 8192 the
# folded basis beat the FFT path from 512 trials on (2-vCPU Intel Xeon host).
_BASIS_ENTRIES = 2 ** 21
# Draws per experiment, the sum of its periods times its trials.  A draw cost
# 5 to 18 ns on the product path at p = 64..1024 and 14 to 73 ns on the FFT
# path at p = 32768..2**22 (best of three, one core of a shared 2-vCPU Intel
# Xeon host), so an experiment at the cap takes 1.4 to 20 s; the stats
# default (1.3e8 draws) is half of it.
_DRAW_CAP = 2 ** 28
_DELTA = 3.0  # standard deviations below the mean of the Chebyshev threshold
_CHECK_TOL = 1e-12  # Parseval window mass against direct summation, per checked row
_DRAW_BLOCK = 2 ** 16  # raised-cosine outputs per block of disk points
_TWO_POINTS = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class DensitySpec:
    """An even probability density on [-1, 1] with known moments.

    ``sample(rng, out)`` fills the C-contiguous float64 array ``out``, of
    any shape, in place with i.i.d. draws from ``rng`` and returns nothing;
    the draws must keep to [-1, 1] (unchecked), and a non-finite draw is
    refused by the caller."""

    name: str
    m2: float
    m4: float
    sample: object  # callable(rng, out) -> None, filling out with draws in [-1, 1]


def _sample_uniform(rng, out):
    # the bits of rng.uniform(-1, 1, out.shape): -1 + 2u, with 2u exact
    rng.random(out=out)
    out *= 2.0
    out -= 1.0


def _sample_two_point(rng, out):
    out[...] = rng.choice(_TWO_POINTS, size=out.shape)


def _sample_raised_cosine(rng, out):
    # (1 + cos(pi*y))/2 = cos(pi*y/2)^2, so sin(pi*y/2) follows the
    # semicircle law: it is the x-coordinate a of a uniform point (a, b) of
    # the upper half disk, drawn by rejection from [-1, 1) x [0, 1) (rate
    # pi/4).  A block of at most _DRAW_BLOCK outputs draws 4/3 as many
    # points plus 64 into the call's one scratch array, marks the accepted
    # ones in its one mask and takes the first, in order, straight into out
    # (mode "clip" writes in place), allocating only their index array; a
    # block that falls short leaves the rest to the next one.  |y| <= 1
    # exactly: |a| < 1, and dividing arcsin(a) <= fl(pi/2) by fl(pi/2) is monotone.
    flat = out.reshape(-1)  # a view, out being contiguous
    n = 4 * min(_DRAW_BLOCK, flat.size) // 3 + 64
    scratch, mask = np.empty(3 * n), np.empty(n, dtype=bool)
    done = 0
    while done < flat.size:
        want = min(_DRAW_BLOCK, flat.size - done)
        n = 4 * want // 3 + 64
        a, b = rng.random(out=scratch[:2 * n].reshape(2, n))
        a *= 2.0
        a -= 1.0
        b *= b
        b += np.multiply(a, a, out=scratch[2 * n:3 * n])
        inside = np.flatnonzero(np.less(b, 1.0, out=mask[:n]))[:want]
        np.take(a, inside, out=flat[done:done + inside.size], mode="clip")
        done += inside.size
        del inside  # before the next block's index array is made
    np.arcsin(out, out=out)
    out /= np.pi / 2


DENSITIES = {
    "uniform": DensitySpec("uniform", m2=1.0 / 3.0, m4=1.0 / 5.0, sample=_sample_uniform),
    "two-point": DensitySpec("two-point", m2=1.0, m4=1.0, sample=_sample_two_point),
    "raised-cosine": DensitySpec(
        "raised-cosine",
        m2=1.0 / 3.0 - 2.0 / np.pi ** 2,
        m4=1.0 / 5.0 - 4.0 / np.pi ** 2 + 24.0 / np.pi ** 4,
        sample=_sample_raised_cosine,
    ),
}


def get_density(name: str) -> DensitySpec:
    try:
        return DENSITIES[name]
    except KeyError:
        raise PreconditionError(
            f"unknown density {name!r}; choose from {sorted(DENSITIES)}") from None


def nu_from_y(y, window) -> float:
    """Window mass of the implementation with branch imbalances ``y``, one
    per phase class, each in [-1/p, 1/p] for p = y.size, over the run
    ``window`` (``errors.check_run``), by direct summation."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or not y.size:
        raise PreconditionError("need one imbalance per phase class, in one dimension")
    if not np.all(np.abs(y) <= 1.0 / y.size + 1e-15):
        raise PreconditionError("imbalances must lie in [-1/p, 1/p]")
    window = check_run("window", window)
    if window and (window.start < 0 or window.stop > y.size):
        raise PreconditionError("window indices outside [0, p)")
    return float(_direct_window_masses(y[np.newaxis, :], window, None)[0])


def _direct_window_masses(y, window, twist, out=None):
    """Window masses of the rows of ``y`` over the run ``window`` by direct
    summation (one FFT per row, with ``twist``), into ``out`` if given."""
    inside = _halfstep_rows(y, twist)[:, window.start:window.stop].view(float)
    return np.einsum("ij,ij->i", inside, inside, out=out)


def _complement_basis(p: int, window):
    """A real basis with sum_{j outside window} |c_j|^2 = |y @ basis|^2 for
    real y; None when [cos | sin] of those 2L bins would hold more than
    _BASIS_ENTRIES entries (p * 4L).

    The complement must be {0..L-1} and {p-L..p-1}, L = window.start, else
    PreconditionError.  |c_{1-j}| = |c_j| folds it onto bins 0..L+1 with
    weights w_j = [j < L] + [j >= 2] (w_1 = 0 at L = 1): the basis is [cos |
    sin] of the bins with w_j > 0, each column times sqrt(w_j).  The angles
    pi*k*(2j - 1)/p are reduced mod 2pi in integers first, so each is one
    rounding of a value in [0, 2pi) however large k*(2j - 1).
    """
    L = window.start
    if not 0 <= L <= p // 2 or window.stop != p - L:
        raise PreconditionError(f"window [{L}, {window.stop}) is not centered on p/2 = {p // 2}")
    if p * 4 * L > _BASIS_ENTRIES:
        return None
    bins = np.arange(L + 2)
    weights = np.add(bins < L, bins >= 2, dtype=int)
    bins, roots = bins[weights > 0], np.sqrt(weights[weights > 0])
    turns = np.outer(np.arange(p), 2 * bins - 1)
    turns %= 2 * p
    angles = turns * (np.pi / p)
    m = bins.size
    basis = np.empty((p, 2 * m))
    np.cos(angles, out=basis[:, :m])
    np.sin(angles, out=basis[:, m:])
    basis *= np.tile(roots, 2)
    return basis


def _window_masses(x, window, basis, twist, name, out):
    """Fill ``out`` with the window masses of the implementations y = x/p,
    one per row of the unscaled draws ``x``, and return it.  With a
    complement basis: nu = sum(x^2)/p - |x @ basis|^2/p^2 by Parseval, and
    the first row is checked against direct summation of x[0]/p to
    _CHECK_TOL by ``errors.check_residual``.  Without one: direct summation
    for every row, nu = nu(x)/p^2, no check.  ``twist`` is the period's
    half-step twist.  A non-finite mass (from a non-finite draw) is refused
    first, naming density ``name``.
    """
    p = x.shape[1]
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite mass is refused below
        if basis is None:
            _direct_window_masses(x, window, twist, out)
            out /= p * p
        else:
            outside = x @ basis
            outside /= p
            np.einsum("ij,ij->i", x, x, out=out)
            out /= p
            out -= np.einsum("ij,ij->i", outside, outside)
    if not np.isfinite(out).all():
        raise PreconditionError(f"density {name!r} drew a non-finite value at p={p}")
    if basis is not None:
        direct = _direct_window_masses(x[:1] / p, window, twist)[0]
        check_residual(f"Parseval window mass vs direct sum at p={p}", abs(out[0] - direct),
                       _CHECK_TOL)
    return out


@dataclass(frozen=True)
class StatsRow:
    p: int
    density: str
    trials: int
    mean: float
    stderr: float
    var: float
    var_times_p: float
    cheb_fraction: float
    cheb_c: float
    target_mean: float

    @property
    def variance_defined(self) -> bool:
        return math.isfinite(self.var)


@dataclass(frozen=True)
class StatsReport:
    density: str
    trials: int
    delta: float
    rows: tuple

    def var_p_spread(self) -> float:
        vals = [r.var_times_p for r in self.rows if math.isfinite(r.var_times_p)]
        if len(vals) < 2:
            return float("nan")
        return max(vals) / min(vals)

    def to_dict(self) -> dict:
        return {
            "density": self.density,
            "trials": self.trials,
            "delta": self.delta,
            "var_p_spread": self.var_p_spread(),
            "rows": [vars(r) | {"variance_defined": r.variance_defined} for r in self.rows],
        }


def _block_rows(p: int) -> int:
    """Rows of period p per block: at most _BLOCK_DRAWS draws, at least one row."""
    return max(1, _BLOCK_DRAWS // p)


def moment_experiment(p_list, density: DensitySpec, trials: int, rng) -> StatsReport:
    """Sample nu for each period with the long-waiting window and estimate
    its moments.

    Per period p: the window is the centered block of the waiting ratio
    1 - p**-0.5; reported are the sample mean (target alpha*m2), standard
    error, variance, variance*p (the deviation scale), and the fraction of
    samples below mean - delta*std (delta = 3) together with the calibrated
    constant c making that threshold read m2 - delta/(c*sqrt(p)).

    Trials are drawn in blocks of max(1, 2**18 // p) rows, so at most 2**18
    draws (2 MiB) unless one row is longer, each from a stream spawned off
    ``rng`` when it is drawn, so the numbers a seed gives depend on the
    block size.  Every block of a call is drawn in place by
    ``density.sample`` into one buffer allocated once, and its masses go
    straight into the period's array of masses.  The draws x in [-1, 1]
    stay unscaled: the masses of y = x/p are computed from x, which at a
    power-of-two p gives the bits that scaling x first would.  Window
    masses are computed by Parseval over the m bins outside the window
    (folded in pairs), one matrix product per block, whenever p*2m <= 2**21
    (every even p up to 10404);
    the first row of each such block is checked against the FFT to 1e-12.
    Larger periods take one FFT per row, the reference, with nothing to
    check it against.  The trial count, every period (even, at least 4)
    and the total draws, the sum of the periods times the trials (at most
    _DRAW_CAP, else CapacityError), are checked before anything is drawn;
    an empty list or a non-finite draw raises PreconditionError.
    """
    check_length("trials", trials)
    if not p_list:
        raise PreconditionError("need at least one period")
    for p in p_list:
        check_length("period", p, 4, even=True)
    draws = sum(int(p) for p in p_list) * int(trials)
    if draws > _DRAW_CAP:
        raise CapacityError(f"{draws} draws (periods times trials) exceed cap {_DRAW_CAP}")
    buffer = np.empty(max(min(trials, _block_rows(p)) * p for p in p_list))
    rows = []
    for p in p_list:
        alpha = alpha_for_period(p)
        window = centered_window(p, alpha)
        basis = _complement_basis(p, window)
        twist = _halfstep_twist(p)
        block = _block_rows(p)
        nus = np.empty(trials)
        for done in range(0, trials, block):
            count = min(block, trials - done)
            x = buffer[:count * p].reshape(count, p)
            density.sample(rng.spawn(1)[0], x)
            _window_masses(x, window, basis, twist, density.name, nus[done:done + count])
        mean = float(np.mean(nus))
        var = float(np.var(nus, ddof=1)) if trials > 1 else float("nan")
        std = math.sqrt(var)
        cheb_fraction = cheb_c = float("nan")
        if std > 0:  # false for the NaN of one trial
            threshold = mean - _DELTA * std
            cheb_fraction = float(np.mean(nus < threshold))
            cheb_c = _DELTA / ((density.m2 - threshold) * math.sqrt(p))
        rows.append(StatsRow(
            p=p, density=density.name, trials=trials, mean=mean, stderr=std / math.sqrt(trials),
            var=var, var_times_p=var * p, cheb_fraction=cheb_fraction,
            cheb_c=cheb_c, target_mean=alpha * density.m2,
        ))
    return StatsReport(density=density.name, trials=trials, delta=_DELTA, rows=tuple(rows))
