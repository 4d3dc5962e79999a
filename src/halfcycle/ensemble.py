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
density (1 + cos(pi*y))/2 is drawn without rejection: sin(pi*y/2) follows
the semicircle law, so y = (2/pi)*arcsin(sqrt(U1)*cos(pi*U2)) for two
uniforms U1, U2.

The window covers all but about sqrt(p) of the p bins, and the twisted
DFT c_j = sum_k y_k exp(-2pi*i*k*(j - 1/2)/p) is unitary up to sqrt(p),
so by Parseval

    nu = p * sum_k y_k^2 - sum_{j not in window} |c_j|^2.

The experiment driver evaluates the complement as one real matrix product
with the p x 2m basis [cos | sin] of its m bins, whenever that basis holds
no more entries than one chunk of draws (p * 2m <= 2**22, every p up to
16384); larger periods take one FFT per row.  Direct summation stays the
authoritative evaluator: the half-step evaluator of ``spectral`` (one FFT
per row, which is the same sum) gives every other window mass and checks
the first row of every product-path chunk.

In the continuous case the functions
exp(-i*(j - 1/2)*l) are orthogonal on [0, 2pi), so by Parseval the full
series of squared amplitudes sums to mean(y^2); the truncated direct sum
obeys Bessel's inequality direct <= mean(y^2), which is asserted.

Periods, trial counts and cell counts obey the size rule of
``errors.check_length``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cycle import alpha_for_period, centered_window
from .errors import ConsistencyError, PreconditionError, check_length
from .spectral import _halfstep_rows

_CHUNK_ROWS = 4096
_CHUNK_ENTRIES = 2 ** 22  # draws held at once: exactly 4096 rows at p = 1024
_DELTA = 3.0  # standard deviations below the mean of the Chebyshev threshold
_BESSEL_TOL = 1e-12
_CHECK_TOL = 1e-12  # Parseval window mass against direct summation, per checked row


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
    # semicircle law: it is the x-coordinate sqrt(U1)*cos(pi*U2) of a
    # uniform point in the unit disk.  No rejection loop; |y| <= 1 exactly,
    # since arcsin(1) rounds to pi/2.
    y = rng.random(size)
    np.sqrt(y, out=y)
    c = rng.random(size)
    c *= np.pi
    np.cos(c, out=c)
    y *= c
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


def sample_y(p: int, density: DensitySpec, rng) -> YSample:
    """p i.i.d. draws from the density rescaled to [-1/p, 1/p]."""
    check_length("period", p, 2)
    return YSample(p=p, y=density.sample(rng, p) / p)


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


def _window_masses(y, window, basis):
    """Window masses of the rows of ``y``.

    With a complement basis: nu = p*sum(y^2) - |y @ basis|^2 by Parseval,
    and the first row is checked against direct summation, a disagreement
    above _CHECK_TOL raising ConsistencyError.  Without one: direct
    summation for every row.
    """
    if basis is None:
        return _direct_window_masses(y, window)
    outside = y @ basis
    nus = np.einsum("ij,ij->i", y, y)
    nus *= y.shape[1]
    nus -= np.einsum("ij,ij->i", outside, outside)
    direct = _direct_window_masses(y[:1], window)[0]
    if abs(nus[0] - direct) > _CHECK_TOL:
        raise ConsistencyError(
            f"Parseval window mass {nus[0]!r} differs from the direct sum {direct!r}")
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

    def mean_within(self, k_sigma: float = 3.0) -> bool:
        return abs(self.mean - self.target_mean) < k_sigma * self.stderr


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
    depend on the chunk size.  Window masses are computed by Parseval over
    the m bins outside the window, one matrix product per chunk, whenever
    p*2m <= 2**22 (every p up to 16384); the first row of each such chunk
    is checked against the FFT, and a disagreement above 1e-12 raises
    ConsistencyError.  Larger periods take one FFT per row.  The trial
    count and every period (even, at least 4) are checked before anything
    is drawn, and an empty list raises PreconditionError.
    """
    check_length("trials", trials)
    if not p_list:
        raise PreconditionError("need at least one period")
    for p in p_list:
        check_length("period", p, 4, even=True)
    rows = []
    for p in p_list:
        alpha = alpha_for_period(p)
        window = centered_window(p, alpha)
        chunk = min(_CHUNK_ROWS, _CHUNK_ENTRIES // p)
        basis = _complement_basis(p, window)
        streams = rng.spawn(math.ceil(trials / chunk))
        nus = np.empty(trials)
        done = 0
        for stream in streams:
            count = min(chunk, trials - done)
            y = density.sample(stream, (count, p))
            y /= p
            nus[done:done + count] = _window_masses(y, window, basis)
            done += count
        mean = float(np.mean(nus))
        var = float(np.var(nus, ddof=1)) if trials > 1 else float("nan")
        std = math.sqrt(var) if trials > 1 else float("nan")
        stderr = std / math.sqrt(trials) if trials > 1 else float("nan")
        if trials > 1 and std > 0:
            threshold = mean - _DELTA * std
            cheb_fraction = float(np.mean(nus < threshold))
            cheb_c = _DELTA / ((density.m2 - threshold) * math.sqrt(p))
        else:
            cheb_fraction = float("nan")
            cheb_c = float("nan")
        rows.append(StatsRow(
            p=p, density=density.name, trials=trials, mean=mean, stderr=stderr,
            var=var, var_times_p=var * p, cheb_fraction=cheb_fraction,
            cheb_c=cheb_c, target_mean=alpha * density.m2,
        ))
    return StatsReport(density=density.name, trials=trials, delta=_DELTA, rows=tuple(rows))


@dataclass(frozen=True)
class ContinuousNu:
    """The continuous-case success probability and its Parseval bound.

    ``direct`` is the truncated amplitude sum over |j| <= cells;
    ``parseval`` is mean(y^2), the sum of the full series, which bounds
    ``direct`` from above (Bessel's inequality, asserted).
    """

    direct: float
    parseval: float
    cells: int


def continuous_nu(cells: int, density: DensitySpec, rng, sample=None) -> ContinuousNu:
    """Draw a piecewise-constant branch imbalance on a 2pi grid and
    evaluate nu by direct summation.

    The amplitude at u = j - 1/2 is (1/2pi) * integral of y(l)*exp(-i*u*l)
    over [0, 2pi).  Over cell m of width D = 2pi/cells the integral is
    exp(-2pi*i*m*u/cells) * (1 - exp(-i*u*D))/(i*u), so the amplitudes are
    the half-step sums of y, periodic in j with period cells, times
    (1 - exp(-i*u*D))/(2pi*i*u).  ``sample`` overrides the random draw with
    a fixed cell vector (used for the deterministic y = 1 and y = 0
    checks).
    """
    check_length("cell count", cells, 2, even=True)
    y = np.asarray(sample, dtype=float) if sample is not None else density.sample(rng, cells)
    if y.shape != (cells,):
        raise PreconditionError("sample length must match cell count")

    j = np.arange(-cells, cells + 1)
    u = j - 0.5
    sinc = (1.0 - np.exp(-1j * u * (2.0 * np.pi / cells))) / (2j * np.pi * u)
    amps = _halfstep_rows(y)[j % cells] * sinc
    direct = float(np.sum(np.abs(amps) ** 2))
    parseval = float(np.mean(y * y))
    if direct > parseval + _BESSEL_TOL:
        raise ConsistencyError(
            f"truncated sum {direct!r} exceeds its Parseval bound {parseval!r}")
    return ContinuousNu(direct=direct, parseval=parseval, cells=cells)
