"""Orbit spectra, the overlap function, and half-cycle amplitude profiles.

Units are fixed throughout: one machine cycle of evolution is one time
unit, and eigenphases are radians per machine cycle (phases of the
evolution generator taken mod 4pi).  An ``OrbitSpectrum`` is a point
spectrum, one phase per element of a periodic orbit, and its period is
its phase count.  Its overlap function is

    overlap(u) = sum_k w_k * exp(-i * phase_k * u),

the Fourier transform of the spectral weights; its value at half-integer
times u = j - 1/2 is the amplitude of the transient state at one half
machine cycle against computational state j.  A non-halting orbit has no
finite eigenphase list and so no ``OrbitSpectrum``: it enters through its
closed-form amplitudes (``halfstep_profile_aperiodic``, below) and its
mean |phase| pi (``complexity.APERIODIC_MEAN_ABS_PHASE``).

The half-step sums

    c_j = sum_k y_k * exp(-2pi*i*k*(j - 1/2)/p),   j = 0..p-1,

have one direct evaluator, ``_halfstep_rows``: the twist exp(i*pi*k/p)
folds into y and one FFT over j gives all p sums in O(p log p) time and
O(p) memory.  A point spectrum with phases 2pi*(k/p + n_k) for integers
n_k has overlap(j - 1/2) = c_j with y_k = (-1)^{n_k} * w_k, so the
profile cross-check and the check of the ensemble's window masses are
this sum.  ``overlap_at`` stays the general evaluator at arbitrary u,
scanned once for both the complexity bound and zero count; its fixed
blocks of u keep its memory flat in len(u).

The minimal period-p construction places phase_k = 2pi*(k/p + k mod 2)
with equal weights 1/p.  Its overlap is a geometric sum over the even and
the odd k,

    overlap(u) = (1 + exp(-2pi*i*u*(1/p + 1)))/p * D(u),
    D(u) = sum_{r < n} exp(-i*theta*r)
         = exp(-i*theta*(n - 1)/2) * sin(pi*u) / sin(theta/2),

with n = p/2 and theta = 4pi*u/p, and D = n exactly where sin(theta/2) = 0.
``overlap_at`` evaluates it in O(len(u)) for any p, taking every sine and
phase of u reduced exactly to its nearest integer or multiple of p/2, so
whole cycles give an exact 0 (an exact 1 at multiples of p); the ratio
form (1 - z^n)/(1 - z) would lose digits as z -> 1 (1.5e-2 at p = 65536).
Each call checks about _OVERLAP_BLOCK / p of its points against the
direct sum, to that sum's own rounding, by ``errors.check_residual``;
a NaN or infinite u, or one whose product with some phase overflows, is
refused before anything is evaluated.  Only the spectrum
``minimal_periodic_spectrum`` returns is marked ``minimal``; every other
spectrum takes the direct sum.  The minimal half-cycle amplitudes have
the closed form

    a_j = exp(i*pi*(j - 1/2)/p) / (p * cos(pi*(j - 1/2)/p))
        = exp(i*pi*(j - 1/2)/p) / (p * sin(pi*(p - 2j + 1)/(2p))),

evaluated in the sin form: near the peak the cosine of a rounded angle
loses digits (1.3e-10 at p = 2^22), while p - 2j + 1 is exact.  The
profile peaks at j = p/2 with modulus 1/(p*sin(pi/(2p))) -> 2/pi and sums
to total probability 1; its closed form is checked against the FFT and
its capture against 1, both to 1e-10 by ``errors.check_residual``.  The
aperiodic (non-halting) counterpart has a_k = -1/(pi*i*(k - 1/2)), whose
full two-sided square sum is 1 by Euler's series; a symmetric truncation
to 2K terms captures all but ~2/(pi^2*K).  Periods, K and the 2K
amplitudes of a truncation (held to the cap like a period) obey the size
rule of ``errors.check_length``.  A profile lives on a run of consecutive
indices, kept as a range, and keeps the readout distribution |a|^2 and
its running sum as its only copies; ``AmplitudeProfile.draw`` reads them,
and ``nu_of`` sums one slice of |a|^2, a window being a run too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, check_length, check_residual, check_run

_WEIGHT_SUM_TOL = 1e-12
_PROFILE_TOL = 1e-10
_OVERLAP_BLOCK = 2 ** 16  # u-times-phase entries overlap_at holds at once
_CLOSED_FORM_TOL = 1e-12  # per unit of |u|, closed-form overlap vs direct sum


@dataclass(frozen=True, eq=False)
class OrbitSpectrum:
    """Eigenphases (radians per machine cycle) with spectral weights: a
    point spectrum, one phase per element of the orbit.

    ``phases`` and ``weights`` are read-only one-dimensional copies of the
    caller's arrays, of one length, so what was checked stays true;
    ``period`` is that length.  ``minimal`` is set only by
    ``minimal_periodic_spectrum`` and sends ``overlap_at`` to the closed
    form.
    """

    phases: np.ndarray
    weights: np.ndarray
    minimal: bool = field(init=False, default=False)

    def __post_init__(self):
        for name in ("phases", "weights"):
            array = np.array(getattr(self, name), dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if self.phases.ndim != 1 or self.phases.shape != self.weights.shape:
            raise PreconditionError("phases and weights must be one-dimensional and of one length")
        if not np.all(np.isfinite(self.phases)):
            raise PreconditionError("spectral phases must be finite")
        if np.any(self.weights < 0):
            raise PreconditionError("spectral weights must be nonnegative")
        if not abs(float(self.weights.sum()) - 1.0) <= _WEIGHT_SUM_TOL:
            raise PreconditionError("spectral weights must sum to 1")

    @property
    def period(self) -> int:
        return self.phases.size

    @functools.cached_property
    def mean_abs_phase(self) -> float:
        """sum w_k |phase_k|, the C(1) of ``complexity``, taken once, on first use."""
        return float(np.dot(self.weights, np.abs(self.phases)))


@dataclass(frozen=True, eq=False)
class AmplitudeProfile:
    """Complex overlap amplitudes of the half-cycle state.

    ``indices`` is a run of consecutive integers, stored as a ``range``:
    the cycle positions 0..p-1 for periodic profiles, or the symmetric
    range (-K, K] for aperiodic truncations, index j at array position
    j - indices.start.  ``errors.check_run`` reads it; an integer array
    becomes that range, and an empty run raises PreconditionError.
    ``amplitudes`` is a read-only copy of the caller's array, and the
    readout distribution |a|^2 is stored once, read-only, as
    ``probabilities``, so the two cannot drift apart; its running sum (CDF)
    is stored once, on the first ``draw``.  ``captured`` is the
    total probability sum |a|^2 over the stored indices; a value that is
    NaN or disagrees with that sum by more than 1e-10 is rejected, since
    ``draw`` decides o = 1 by ``captured`` and the index by the CDF.
    """

    amplitudes: np.ndarray
    indices: range
    captured: float
    period: int | None
    probabilities: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        amplitudes = np.array(self.amplitudes, dtype=complex)
        amplitudes.flags.writeable = False
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "indices", check_run("profile indices", self.indices))
        if not self.indices or self.amplitudes.shape != (len(self.indices),):
            raise PreconditionError("need one amplitude per index, on at least one index")
        if not self.captured <= 1.0 + _WEIGHT_SUM_TOL:
            raise PreconditionError("captured probability exceeds 1")
        probabilities = np.abs(self.amplitudes) ** 2
        probabilities.flags.writeable = False
        object.__setattr__(self, "probabilities", probabilities)
        total = float(np.sum(self.probabilities))
        if not abs(self.captured - total) <= _PROFILE_TOL:
            raise PreconditionError(
                f"captured probability {self.captured!r} differs from sum |a|^2 = {total!r}")

    @functools.cached_property
    def _cdf(self) -> np.ndarray:
        return np.cumsum(self.probabilities)

    def draw(self, rng, n: int):
        """n trials from one ``rng.random(n)``: the o = 1 mask and each measured
        index (meaningful where o = 1), by inverse CDF over |a|^2."""
        u, cdf = rng.random(n), self._cdf
        index = cdf.searchsorted(u, side="right")
        np.minimum(index, cdf.size - 1, out=index)
        index += self.indices.start
        return u < self.captured, index


def minimal_periodic_spectrum(p: int) -> OrbitSpectrum:
    """phases_k = 2pi*(k/p + k mod 2), k = 0..p-1, all weights 1/p.

    Needs even p: the alternating mod-2 offsets are what make consecutive
    computational states orthogonal while concentrating the half-cycle
    amplitude on the window.
    """
    check_length("period", p, 2, even=True)
    k = np.arange(p)
    spec = OrbitSpectrum(phases=2.0 * np.pi * (k / p + (k % 2)), weights=np.full(p, 1.0 / p))
    object.__setattr__(spec, "minimal", True)
    return spec


def _halfstep_twist(p: int) -> np.ndarray:
    """The half-step twist exp(i*pi*k/p), k = 0..p-1."""
    return np.exp(1j * np.pi * np.arange(p) / p)


def _halfstep_rows(y_rows: np.ndarray, twist=None) -> np.ndarray:
    """Half-step sums c_j = sum_k y_k exp(-2pi*i*k*(j-1/2)/p), j = 0..p-1,
    along the last axis of ``y_rows``.

    The half-step twist exp(i*pi*k/p) folds into the input so a plain DFT
    over j computes the literal sums for all j at once.  A caller that
    evaluates many rows of one period in turn passes ``_halfstep_twist(p)``
    once instead of having it built on every call.
    """
    if twist is None:
        twist = _halfstep_twist(y_rows.shape[-1])
    return np.fft.fft(y_rows * twist, axis=-1)


def overlap_at(spec: OrbitSpectrum, u):
    """sum_k w_k * exp(-i*phase_k*u) for scalar or array u.

    A minimal spectrum takes the closed form, cross-checked on one block
    of the direct sum (``_cross_check``); every other spectrum takes the
    direct sum, whose u values go in blocks of about _OVERLAP_BLOCK /
    len(phases), so memory stays O(_OVERLAP_BLOCK + len(phases)) whatever
    the size of u.  A NaN or infinite u, or one whose product with some
    phase overflows, raises PreconditionError.
    """
    u_arr = np.asarray(u, dtype=float)
    flat = u_arr.reshape(-1)
    # max |u| * max |phase| with no temporary array: NaN or infinite if any
    # time is, or if any product of a time and a phase overflows
    with np.errstate(over="ignore", invalid="ignore"):
        reach = (max(np.max(flat, initial=0.0), -np.min(flat, initial=0.0))
                 * max(np.max(spec.phases), -np.min(spec.phases)))
    if not np.isfinite(reach):
        raise PreconditionError("overlap_at needs finite times whose products with the phases "
                                "are finite")
    if spec.minimal:
        vals = _minimal_overlap(spec.period, flat)
        _cross_check(spec, flat, vals)
    else:
        vals = _direct_overlap(spec, flat)
    return complex(vals[0]) if u_arr.ndim == 0 else vals.reshape(u_arr.shape)


def _direct_overlap(spec: OrbitSpectrum, u: np.ndarray) -> np.ndarray:
    """The direct sum at the 1-d times ``u``, in blocks of u."""
    vals = np.empty(u.size, dtype=complex)
    block = max(1, _OVERLAP_BLOCK // spec.phases.size)
    for start in range(0, u.size, block):
        arg = np.multiply.outer(u[start:start + block], spec.phases)
        # einsum, not BLAS: its order of summation does not change with the thread count
        vals.real[start:start + block] = np.einsum("ij,j->i", np.cos(arg), spec.weights)
        vals.imag[start:start + block] = -np.einsum("ij,j->i", np.sin(arg), spec.weights)
    return vals


def _nearest(u: np.ndarray, d: float) -> tuple:
    """u = n*d + f with n the integer nearest u/d.  n*d is exact and f is
    exact by Sterbenz's lemma, so sin(pi*u/d) = (-1)^n sin(pi*f/d) with
    an exact 0 wherever u is a multiple of d."""
    n = np.rint(u / d)
    return n, u - n * d


def _minimal_overlap(p: int, u: np.ndarray) -> np.ndarray:
    """The closed form of the minimal period-p overlap at the 1-d times
    ``u`` (module docstring), with u = n1 + f and 2u/p = n2 + x."""
    _, f = _nearest(u, 1.0)
    n2, half = _nearest(u, p / 2)
    x = half / (p / 2)
    den = np.sin(np.pi * x)
    # D/p = n/p where sin(pi*x) is 0, or subnormal (then |u| < 1e-300 and
    # the limit holds to every digit, while subnormals would lose them)
    ratio = np.full(u.size, 0.5)
    np.divide(np.sin(np.pi * f), p * den, out=ratio, where=np.abs(den) >= np.finfo(float).tiny)
    # real ratio last: complex division would round n/n away from 1
    return ((1.0 + np.where(n2 % 2, -1.0, 1.0) * np.exp(-1j * np.pi * (2 * f + x)))
            * np.exp(-1j * np.pi * (f - x)) * ratio)


def _cross_check(spec: OrbitSpectrum, u: np.ndarray, vals: np.ndarray) -> None:
    """Check closed-form ``vals`` at the 1-d times ``u`` against the direct
    sum on one block of about _OVERLAP_BLOCK / p points (at least one)
    spread over the interior of u, or all of u if it is shorter, to the
    direct sum's rounding: p*eps for its p terms, plus _CLOSED_FORM_TOL per
    unit of the largest |u| checked (at least 1) for the rounded phase*u."""
    m = max(1, _OVERLAP_BLOCK // spec.phases.size)
    idx = np.arange(u.size) if u.size <= m else np.arange(1, m + 1) * u.size // (m + 1)
    tol = (spec.phases.size * np.finfo(float).eps
           + _CLOSED_FORM_TOL * np.max(np.abs(u[idx]), initial=1.0))
    check_residual(f"overlap closed form vs direct sum at p={spec.period}",
                   np.max(np.abs(_direct_overlap(spec, u[idx]) - vals[idx]), initial=0.0),
                   tol, points=idx.size)


def halfstep_profile_periodic(p: int) -> AmplitudeProfile:
    """Half-cycle amplitudes of the minimal period-p construction.

    Evaluates the closed form (sin form, see the module docstring) and
    cross-checks it against the half-step evaluator on the weights
    (-1)^k/p, which is the direct spectral sum, and its capture against
    1, both to 1e-10 by ``errors.check_residual``.
    """
    check_length("period", p, 2, even=True)
    j = np.arange(p)
    closed = np.exp(1j * np.pi * (j - 0.5) / p) / (p * np.sin(np.pi * (p - 2 * j + 1) / (2 * p)))
    direct = _halfstep_rows(np.where(j % 2, -1.0, 1.0) / p)
    check_residual(f"profile closed form vs direct sum at p={p}",
                   np.max(np.abs(closed - direct)), _PROFILE_TOL, points=p)
    del j, direct  # freed before the profile copies ``closed``
    captured = float(np.sum(np.abs(closed) ** 2))
    check_residual(f"minimal profile capture vs 1 at p={p}", abs(captured - 1.0), _PROFILE_TOL)
    return AmplitudeProfile(amplitudes=closed, indices=range(p), captured=min(captured, 1.0),
                            period=p)


def halfstep_profile_aperiodic(K: int) -> AmplitudeProfile:
    """Truncated aperiodic amplitudes a_k = -1/(pi*i*(k-1/2)), -K < k <= K.

    The truncation tail is ~2/(pi^2*K); the full two-sided series sums
    to 1.
    """
    check_length("K", K)
    check_length("period", 2 * K)
    k = np.arange(-K + 1, K + 1)
    amps = -1.0 / (np.pi * 1j * (k - 0.5))
    captured = float(np.sum(np.abs(amps) ** 2))
    return AmplitudeProfile(amplitudes=amps, indices=range(-K + 1, K + 1), captured=captured,
                            period=None)


def nu_of(profile: AmplitudeProfile, window) -> float:
    """Probability of landing in the run ``window`` (``errors.check_run``):
    one slice of |a|^2 summed.  Names the first index outside the profile."""
    w, span = check_run("window", window, "profile"), profile.indices
    if w and not span.start <= w.start < w.stop <= span.stop:
        raise PreconditionError(f"index {w.start if w.start not in span else span.stop} "
                                "outside profile range")
    return float(profile.probabilities[w.start - span.start:w.stop - span.start].sum())

