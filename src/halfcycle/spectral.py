"""Orbit spectra, the overlap function, and half-cycle amplitude profiles.

Units are fixed throughout: one machine cycle of evolution is one time
unit, and eigenphases are radians per machine cycle (phases of the
evolution generator taken mod 4pi).  The overlap function of a point
spectrum is

    overlap(u) = sum_k w_k * exp(-i * phase_k * u),

the Fourier transform of the spectral weights; its value at half-integer
times u = j - 1/2 is the amplitude of the transient state at one half
machine cycle against computational state j.

The half-step sums

    c_j = sum_k y_k * exp(-2pi*i*k*(j - 1/2)/p),   j = 0..p-1,

have one direct evaluator, ``_halfstep_rows``: the twist exp(i*pi*k/p)
folds into y and one FFT over j gives all p sums in O(p log p) time and
O(p) memory.  A point spectrum with phases 2pi*(k/p + n_k) for integers
n_k has overlap(j - 1/2) = c_j with y_k = (-1)^{n_k} * w_k, so the
profile cross-check and the continuous cell integrals are this sum.  The
ensemble's window masses are too, but where the real p x 2m basis of the
m bins outside the window holds at most 2**22 entries they are computed by
Parseval over that complement, with the first row of every chunk checked
against this evaluator.  ``overlap_at`` stays the general
evaluator at arbitrary u, scanned once for both the complexity bound and
zero count; its fixed blocks of u keep its memory flat in len(u).

The minimal period-p construction places phase_k = 2pi*(k/p + k mod 2)
with equal weights 1/p.  Its half-cycle amplitudes have the closed form

    a_j = exp(i*pi*(j - 1/2)/p) / (p * cos(pi*(j - 1/2)/p))
        = exp(i*pi*(j - 1/2)/p) / (p * sin(pi*(p - 2j + 1)/(2p))),

evaluated in the sin form: near the peak the cosine of a rounded angle
loses digits (1.3e-10 at p = 2^22), while p - 2j + 1 is exact.  The
profile peaks at j = p/2 with modulus 1/(p*sin(pi/(2p))) -> 2/pi and sums
to total probability 1.  The aperiodic (non-halting) counterpart has
a_k = -1/(pi*i*(k - 1/2)), whose full two-sided square sum is 1 by
Euler's series; a symmetric truncation to 2K terms captures all but
~2/(pi^2*K).  Periods, K and the 2K amplitudes of a truncation (held to
the cap like a period) obey the size rule of ``errors.check_length``.  A
profile lives on a run of consecutive indices, kept as a range, and keeps
the readout distribution |a|^2 and its running sum as its only copies;
``nu_of`` and every measurement draw read them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, PreconditionError, check_length

_WEIGHT_SUM_TOL = 1e-12
_PROFILE_TOL = 1e-10
_OVERLAP_BLOCK = 2 ** 16  # u-times-phase entries overlap_at holds at once


@dataclass(frozen=True, eq=False)
class OrbitSpectrum:
    """Eigenphases (radians per machine cycle) with spectral weights.

    ``period`` is the orbit period for point spectra and None for the
    aperiodic (absolutely continuous) case, which carries no finite phase
    list at all.
    """

    phases: np.ndarray
    weights: np.ndarray
    period: int | None

    def __post_init__(self):
        object.__setattr__(self, "phases", np.asarray(self.phases, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.period is None:
            if self.phases.size or self.weights.size:
                raise PreconditionError("aperiodic spectra carry no finite phase list")
            return
        if self.phases.shape != self.weights.shape:
            raise PreconditionError("phases and weights must have matching shapes")
        if np.any(self.weights < 0):
            raise PreconditionError("spectral weights must be nonnegative")
        if abs(float(self.weights.sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise PreconditionError("spectral weights must sum to 1")

    @property
    def aperiodic(self) -> bool:
        return self.period is None


@dataclass(frozen=True, eq=False)
class AmplitudeProfile:
    """Complex overlap amplitudes of the half-cycle state.

    ``indices`` is a run of consecutive integers, stored as a ``range``:
    the cycle positions 0..p-1 for periodic profiles, or the symmetric
    range (-K, K] for aperiodic truncations.  An integer array is accepted
    and turned into that range; a range with another step, an empty run, a
    non-integer array or one that is not one consecutive run raises
    PreconditionError.  The
    readout distribution |a|^2 is stored once, as ``probabilities``, and
    its running sum ``cdf`` is taken once, on the first draw.
    ``captured`` is the total probability sum |a|^2 over the stored
    indices; a value that disagrees with that sum by more than 1e-10 is
    rejected, since a measurement decides o = 1 by ``captured`` and picks
    the index by ``cdf``.
    """

    amplitudes: np.ndarray
    indices: range
    captured: float
    period: int | None
    probabilities: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", np.asarray(self.amplitudes, dtype=complex))
        indices = self.indices
        if not isinstance(indices, range):
            idx = np.asarray(indices)
            consecutive = (idx.ndim == 1 and idx.size and idx.dtype.kind in "iu"
                           and not np.any(np.diff(idx) != 1))
            indices = range(int(idx[0]), int(idx[0]) + idx.size) if consecutive else range(0)
        object.__setattr__(self, "indices", indices)
        if indices.step != 1 or not indices or self.amplitudes.shape != (len(indices),):
            raise PreconditionError("need one amplitude per index on consecutive integer indices")
        if self.captured > 1.0 + _WEIGHT_SUM_TOL:
            raise PreconditionError("captured probability exceeds 1")
        object.__setattr__(self, "probabilities", np.abs(self.amplitudes) ** 2)
        total = float(np.sum(self.probabilities))
        if abs(self.captured - total) > _PROFILE_TOL:
            raise PreconditionError(
                f"captured probability {self.captured!r} differs from sum |a|^2 = {total!r}")

    @functools.cached_property
    def cdf(self) -> np.ndarray:
        """Running sum of ``probabilities``, the inverse-CDF table of a draw."""
        return np.cumsum(self.probabilities)

    def positions(self, indices) -> np.ndarray:
        """Array positions of the cycle indices ``indices`` (a range or any
        iterable of ints), index j at position j - indices.start,
        range-checked in one vectorised pass; raises PreconditionError
        naming the first index outside the profile."""
        if isinstance(indices, range):
            idx = np.arange(indices.start, indices.stop, indices.step)
        else:
            idx = np.fromiter(indices, dtype=np.int64)
        pos = idx - self.indices.start
        outside = (pos < 0) | (pos >= len(self.indices))
        if outside.any():
            raise PreconditionError(f"index {idx[outside][0]} outside profile range")
        return pos


def aperiodic_spectrum() -> OrbitSpectrum:
    """Marker spectrum for non-halting orbits (uniform phase density on
    [0, 2pi); no finite eigenphase list exists)."""
    return OrbitSpectrum(phases=np.empty(0), weights=np.empty(0), period=None)


def minimal_periodic_spectrum(p: int) -> OrbitSpectrum:
    """phases_k = 2pi*(k/p + k mod 2), k = 0..p-1, all weights 1/p.

    Needs even p: the alternating mod-2 offsets are what make consecutive
    computational states orthogonal while concentrating the half-cycle
    amplitude on the window.
    """
    check_length("period", p, 2, even=True)
    k = np.arange(p)
    phases = 2.0 * np.pi * (k / p + (k % 2))
    return OrbitSpectrum(phases=phases, weights=np.full(p, 1.0 / p), period=p)


def _halfstep_rows(y_rows: np.ndarray) -> np.ndarray:
    """Half-step sums c_j = sum_k y_k exp(-2pi*i*k*(j-1/2)/p), j = 0..p-1,
    along the last axis of ``y_rows``.

    The half-step twist exp(i*pi*k/p) folds into the input so a plain DFT
    over j computes the literal sums for all j at once.
    """
    p = y_rows.shape[-1]
    twist = np.exp(1j * np.pi * np.arange(p) / p)
    return np.fft.fft(y_rows * twist, axis=-1)


def overlap_at(spec: OrbitSpectrum, u):
    """sum_k w_k * exp(-i*phase_k*u) for scalar or array u.

    Only defined for point spectra; aperiodic orbits are handled through
    their closed-form amplitude profile instead.  The u values are taken
    in blocks of about _OVERLAP_BLOCK / len(phases), so memory stays
    O(_OVERLAP_BLOCK + len(phases)) whatever the size of u.
    """
    if spec.aperiodic:
        raise PreconditionError("overlap_at needs a point spectrum; "
                                "use halfstep_profile_aperiodic for aperiodic orbits")
    u_arr = np.asarray(u, dtype=float)
    flat = u_arr.reshape(-1)
    vals = np.empty(flat.size, dtype=complex)
    block = max(1, _OVERLAP_BLOCK // spec.phases.size)
    for start in range(0, flat.size, block):
        arg = np.multiply.outer(flat[start:start + block], spec.phases)
        vals.real[start:start + block] = np.cos(arg) @ spec.weights
        vals.imag[start:start + block] = -(np.sin(arg) @ spec.weights)
    return complex(vals[0]) if u_arr.ndim == 0 else vals.reshape(u_arr.shape)


def halfstep_profile_periodic(p: int) -> AmplitudeProfile:
    """Half-cycle amplitudes of the minimal period-p construction.

    Evaluates the closed form (sin form, see the module docstring) and
    cross-checks it against the half-step evaluator on the weights
    (-1)^k/p, which is the direct spectral sum; disagreement beyond 1e-10
    raises ConsistencyError.
    """
    check_length("period", p, 2, even=True)
    j = np.arange(p)
    closed = np.exp(1j * np.pi * (j - 0.5) / p) / (p * np.sin(np.pi * (p - 2 * j + 1) / (2 * p)))
    direct = _halfstep_rows(np.where(j % 2, -1.0, 1.0) / p)
    err = float(np.max(np.abs(closed - direct)))
    if err > _PROFILE_TOL:
        raise ConsistencyError(f"closed form vs direct sum disagree by {err:.3e} at p={p}")
    captured = float(np.sum(np.abs(closed) ** 2))
    if abs(captured - 1.0) > _PROFILE_TOL:
        raise ConsistencyError(f"minimal profile capture {captured!r} differs from 1 at p={p}")
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
    """Probability of landing in ``window``: sum of |a_j|^2 over j in the
    window.  Raises on indices outside the profile range."""
    return float(np.sum(profile.probabilities[profile.positions(window)]))

