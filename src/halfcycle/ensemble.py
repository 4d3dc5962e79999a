"""Random sampling over the spectral freedom of efficient implementations.

An implementation of a period-p orbit fixes total weight 1/p per phase
class but leaves the split between the two mod-4pi branches free; the
imbalance y_j of class j can sit anywhere in [-1/p, +1/p].  Sampling the
y_j i.i.d. from a rescaled even density on [-1, 1] and evaluating the
half-cycle window mass

    nu = sum_{j in window} | sum_k y_k exp(-2pi*i*k*(j - 1/2)/p) |^2

gives the success probability of a randomly drawn implementation.  With an
even density of second moment m2 and window fraction alpha,
E(nu) = alpha*m2, with standard deviation falling like p^{-1/2}; the
experiment driver below estimates the moments, the deviation scaling, and
a calibrated one-sided Chebyshev coverage figure.  The raised-cosine
density (1 + cos(pi*y))/2 is drawn by rejection: sin(pi*y/2) follows the
semicircle law, which is the law of the x-coordinate of a uniform point in
the unit disk, so y = (2/pi)*arcsin(a) for the first coordinate a of the
points of [-1, 1) x [0, 1) that land inside the disk (von Neumann's
rejection, accepting pi/4 of the points).  No cosine is evaluated, and
the points go in fixed blocks of _DRAW_BLOCK outputs, so the draw holds
no temporary larger than a block.

The window covers all but about sqrt(p) of the p bins, and the twisted
DFT c_j = sum_k y_k exp(-2pi*i*k*(j - 1/2)/p) is unitary up to sqrt(p),
so by Parseval

    nu = p * sum_k y_k^2 - sum_{j not in window} |c_j|^2.

The experiment driver never rescales its draws x = p*y: it evaluates
nu = sum_k x_k^2/p - sum_{j not in window} |c_j(x)|^2/p^2, the complement
as one real matrix product with the p x 2m basis [cos | sin] of its m
bins, whenever that basis holds no more entries than one chunk of draws
(p * 2m <= 2**22, every p up to 16384); larger periods take one FFT per
row.  Direct summation stays the authoritative evaluator: the half-step
evaluator of ``spectral`` (one FFT per row, which is the same sum) gives
every other window mass and checks the first row of every product-path
chunk by ``errors.check_residual``.

In the continuous case the functions exp(-i*(j - 1/2)*l) are orthogonal
on [0, 2pi), so by Parseval the full series of squared amplitudes sums to
mean(y^2); the truncated direct sum obeys Bessel's inequality, checked.

Periods, trial counts and cell counts obey the size rule of
``errors.check_length``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cycle import alpha_for_period, centered_window
from .errors import PreconditionError, check_length, check_residual, recorded_checks
from .spectral import _halfstep_rows

_CHUNK_ROWS = 4096
_CHUNK_ENTRIES = 2 ** 22  # draws held at once: exactly 4096 rows at p = 1024
_DELTA = 3.0  # standard deviations below the mean of the Chebyshev threshold
_BESSEL_TOL = 1e-12
_CHECK_TOL = 1e-12  # Parseval window mass against direct summation, per checked row
_DRAW_BLOCK = 2 ** 16  # raised-cosine outputs per block of disk points


@dataclass(frozen=True)
class DensitySpec:
    """An even probability density on [-1, 1] with known moments."""

    name: str
    m2: float
    m4: float
    sample: object  # callable(rng, size) -> ndarray of draws in [-1, 1]


def _sample_uniform(rng, size):
    return rng.uniform(-1.0, 1.0, size)


def _sample_two_point(rng, size):
    return rng.choice(np.array([-1.0, 1.0]), size=size)


def _sample_raised_cosine(rng, size):
    # (1 + cos(pi*y))/2 = cos(pi*y/2)^2, so sin(pi*y/2) follows the
    # semicircle law: it is the x-coordinate a of a uniform point (a, b) of
    # the upper half disk, drawn by rejection from [-1, 1) x [0, 1) (rate
    # pi/4).  A block of at most _DRAW_BLOCK outputs draws 4/3 as many
    # points plus 64 and writes the first accepted a straight into y; a
    # block that falls short leaves the rest to the next one.  |y| <= 1 exactly: |a| < 1, and
    # dividing arcsin(a) <= fl(pi/2) by fl(pi/2) is monotone.
    y = np.empty(size)
    flat = y.reshape(-1)
    done = 0
    while done < flat.size:
        want = min(_DRAW_BLOCK, flat.size - done)
        a, b = rng.random((2, 4 * want // 3 + 64))
        a *= 2.0
        a -= 1.0
        b *= b
        b += a * a
        inside = np.compress(b < 1.0, a)[:want]
        flat[done:done + inside.size] = inside
        done += inside.size
    np.arcsin(y, out=y)
    y /= np.pi / 2
    return y


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


@dataclass(frozen=True, eq=False)
class YSample:
    """Branch imbalances y_j in [-1/p, 1/p] for one sampled implementation."""

    p: int
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.y.shape != (self.p,):
            raise PreconditionError("need one imbalance per phase class")
        if np.any(np.abs(self.y) > 1.0 / self.p + 1e-15):
            raise PreconditionError("imbalances must lie in [-1/p, 1/p]")


def nu_from_y(sample: YSample, window) -> float:
    """Window mass of the sampled implementation, by direct summation."""
    window = np.asarray(list(window), dtype=int)
    if window.size and (window.min() < 0 or window.max() >= sample.p):
        raise PreconditionError("window indices outside [0, p)")
    amps = _halfstep_rows(sample.y[np.newaxis, :])[0]
    return float(np.sum(np.abs(amps[window]) ** 2))


def _direct_window_masses(y, window):
    """Window masses of the rows of ``y`` by direct summation (one FFT per row)."""
    inside = _halfstep_rows(y)[:, window.start:window.stop].view(float)
    return np.einsum("ij,ij->i", inside, inside)


def _complement_basis(p: int, window):
    """The real p x 2m basis [cos | sin] of the m bins j outside ``window``,
    so that |c_j|^2 = (y @ cos_j)^2 + (y @ sin_j)^2; None when it would hold
    more than _CHUNK_ENTRIES entries.

    The angles pi*k*(2j - 1)/p are reduced mod 2pi in integers first, so
    each is one rounding of a value in [0, 2pi) however large k*(2j - 1).
    """
    outside = np.r_[0:window.start, window.stop:p]
    m = outside.size
    if p * 2 * m > _CHUNK_ENTRIES:
        return None
    turns = np.outer(np.arange(p), 2 * outside - 1)
    turns %= 2 * p
    angles = turns * (np.pi / p)
    basis = np.empty((p, 2 * m))
    np.cos(angles, out=basis[:, :m])
    np.sin(angles, out=basis[:, m:])
    return basis


def _window_masses(x, window, basis):
    """Window masses of the implementations y = x/p, one per row of the
    unscaled draws ``x``.  With a complement basis: nu = sum(x^2)/p -
    |x @ basis|^2/p^2 by Parseval, and the first row is checked against
    direct summation of x[0]/p to _CHECK_TOL by ``errors.check_residual``.
    Without one: direct summation for every row, nu = nu(x)/p^2, no check.
    """
    p = x.shape[1]
    if basis is None:
        return _direct_window_masses(x, window) / (p * p)
    outside = x @ basis
    outside /= p
    nus = np.einsum("ij,ij->i", x, x)
    nus /= p
    nus -= np.einsum("ij,ij->i", outside, outside)
    direct = _direct_window_masses(x[:1] / p, window)[0]
    check_residual("Parseval window mass vs direct sum", abs(nus[0] - direct), _CHECK_TOL)
    return nus


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
    diagnostics: dict  # per period: how the window masses were evaluated and checked

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


def moment_experiment(p_list, density: DensitySpec, trials: int, rng) -> StatsReport:
    """Sample nu for each period with the long-waiting window and estimate
    its moments.

    Per period p: the window is the centered block of the waiting ratio
    1 - p**-0.5; reported are the sample mean (target alpha*m2), standard
    error, variance, variance*p (the deviation scale), and the fraction of
    samples below mean - delta*std (delta = 3) together with the calibrated
    constant c making that threshold read m2 - delta/(c*sqrt(p)).

    Trials are drawn in chunks of at most 4096 rows and 2**22 draws, each
    from its own stream spawned off ``rng``, so the numbers a seed gives
    depend on the chunk size.  The draws x in [-1, 1] stay unscaled: the
    masses of y = x/p are computed from x, which at a power-of-two p gives
    the bits that scaling x first would.  Window masses are computed by
    Parseval over the m bins outside the window, one matrix product per
    chunk, whenever p*2m <= 2**22 (every p up to 16384); the first row of
    each such chunk is checked against the FFT to 1e-12.  Larger periods
    take one FFT per row.  ``diagnostics`` gives, per period, the path
    ("parseval" or "fft"), the rows checked against the FFT and the
    largest residual among them (None when no row was checked), read from
    one ``errors.recorded_checks`` per period.  The trial count and every
    period (even, at least 4) are checked before anything is drawn, and an
    empty list raises PreconditionError.
    """
    check_length("trials", trials)
    if not p_list:
        raise PreconditionError("need at least one period")
    for p in p_list:
        check_length("period", p, 4, even=True)
    rows, checks = [], []
    for p in p_list:
        alpha = alpha_for_period(p)
        window = centered_window(p, alpha)
        chunk = min(_CHUNK_ROWS, _CHUNK_ENTRIES // p)
        basis = _complement_basis(p, window)
        nus = np.empty(trials)
        done = 0
        with recorded_checks() as recorded:
            for stream in rng.spawn(math.ceil(trials / chunk)):
                count = min(chunk, trials - done)
                nus[done:done + count] = _window_masses(
                    density.sample(stream, (count, p)), window, basis)
                done += count
        checks.append({"p": p, "path": "fft" if basis is None else "parseval",
                      "checked_rows": len(recorded),
                      "max_residual": max((r for _, r in recorded), default=None)})
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
    return StatsReport(density=density.name, trials=trials, delta=_DELTA, rows=tuple(rows),
                       diagnostics={"periods": checks})


@dataclass(frozen=True)
class ContinuousNu:
    """The continuous-case success probability and its Parseval bound.

    ``direct`` is the truncated amplitude sum over |j| <= cells;
    ``parseval`` is mean(y^2), the sum of the full series, which bounds
    ``direct`` from above (Bessel's inequality, checked).
    """

    direct: float
    parseval: float
    cells: int


def continuous_nu(cells: int, density: DensitySpec, rng) -> ContinuousNu:
    """Draw a piecewise-constant branch imbalance on a 2pi grid and
    evaluate nu by direct summation.

    The amplitude at u = j - 1/2 is (1/2pi) * integral of y(l)*exp(-i*u*l)
    over [0, 2pi).  Over cell m of width D = 2pi/cells the integral is
    exp(-2pi*i*m*u/cells) * (1 - exp(-i*u*D))/(i*u), so the amplitudes are
    the half-step sums of y, periodic in j with period cells, times
    (1 - exp(-i*u*D))/(2pi*i*u).  A density whose ``sample`` returns a
    fixed vector gives a deterministic y.
    """
    check_length("cell count", cells, 2, even=True)
    y = density.sample(rng, cells)

    j = np.arange(-cells, cells + 1)
    u = j - 0.5
    sinc = (1.0 - np.exp(-1j * u * (2.0 * np.pi / cells))) / (2j * np.pi * u)
    amps = _halfstep_rows(y)[j % cells] * sinc
    direct = float(np.sum(np.abs(amps) ** 2))
    parseval = float(np.mean(y * y))
    check_residual("truncated sum vs its Parseval bound", direct - parseval, _BESSEL_TOL)
    return ContinuousNu(direct=direct, parseval=parseval, cells=cells)
