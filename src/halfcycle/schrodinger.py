"""Certificates that state tuples fit no common kinetic-plus-potential orbit.

States on one orbit of H = -laplacian + V share the energy (h, H h).  Any
real coefficients a with sum(a) = 0 and sum_k a_k |h_k(x)|^2 = 0 pointwise
make the potential term cancel for every V:

    sum_k a_k (h_k, V h_k) = integral V * sum_k a_k |h_k|^2 = 0,

so K = sum_k a_k (h_k, -laplacian h_k) != 0 contradicts shared energy and
certifies that no Schrodinger Hamiltonian carries all h_k on one orbit.
The check runs on a uniform 1-d grid: the moduli constraints become a
linear system whose nullspace is computed by SVD, and the kinetic forms
use the second-order finite-difference Laplacian with decaying-boundary
convention.  Grid-pointwise moduli equality is stricter than equality of
the continuum integrals, which only makes certificates conservative.
Grids have at least 8 points and obey the size rule of
``errors.check_length``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, check_length

_NORM_TOL = 1e-10
_HALF_WIDTH = 8.0  # the shipped pairs live on [-8, 8]; exp(-x^2/2) < 1e-13 at its ends


@dataclass(frozen=True, eq=False)
class GridFunctionSet:
    """Complex functions sampled on one uniform grid, each of unit
    discrete norm sum(|f|^2)*h = 1 (a NaN norm is refused)."""

    x: np.ndarray
    functions: np.ndarray  # shape (n, G)

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "functions", np.atleast_2d(np.asarray(self.functions, dtype=complex)))
        if self.x.ndim != 1 or self.x.size < 2:
            raise PreconditionError("grid must be one-dimensional with at least two points")
        spacings = np.diff(self.x)
        if not np.allclose(spacings, spacings[0], rtol=1e-9, atol=0.0):
            raise PreconditionError("grid must be uniform")
        if self.functions.shape[1] != self.x.size:
            raise PreconditionError("functions must be sampled on the grid")
        norms = np.sum(np.abs(self.functions) ** 2, axis=1) * self.h
        if not np.all(np.abs(norms - 1.0) <= _NORM_TOL):
            raise PreconditionError("functions must have unit discrete norm")

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def n(self) -> int:
        return self.functions.shape[0]

    @property
    def size(self) -> int:
        return self.x.size


def make_grid_set(x, functions) -> GridFunctionSet:
    """Normalize each function to unit discrete norm and bundle with the grid."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise PreconditionError("grid must be one-dimensional with at least two points")
    functions = np.atleast_2d(np.asarray(functions, dtype=complex))
    h = float(x[1] - x[0])
    norms = np.sqrt(np.sum(np.abs(functions) ** 2, axis=1) * h)
    if np.any(norms == 0):
        raise PreconditionError("cannot normalize a zero function")
    if not np.all(np.isfinite(norms)):
        raise PreconditionError("cannot normalize a non-finite function")
    return GridFunctionSet(x=x, functions=functions / norms[:, np.newaxis])


def kinetic_form(f: np.ndarray, h: float) -> float:
    """(f, -laplacian f) with the second-order difference operator and
    zero boundary extension: sum |f_{i+1} - f_i|^2 / h."""
    padded = np.concatenate(([0.0 + 0.0j], np.asarray(f, dtype=complex), [0.0 + 0.0j]))
    diffs = np.diff(padded)
    return float(np.sum(np.abs(diffs) ** 2) / h)


@dataclass(frozen=True, eq=False)
class ObstructionCertificate:
    coefficients: np.ndarray
    kinetic_mismatch: float
    tolerance: float
    grid_points: int
    spacing: float

    def to_dict(self) -> dict:
        return {
            "certificate": True,
            "coefficients": [float(a) for a in self.coefficients],
            "kinetic_mismatch": self.kinetic_mismatch,
            "tolerance": self.tolerance,
            "grid_points": self.grid_points,
            "spacing": self.spacing,
        }


@dataclass(frozen=True)
class ObstructionAbsence:
    reason: str
    kinetic_mismatch: float | None
    tolerance: float | None

    def to_dict(self) -> dict:
        return {
            "certificate": False,
            "reason": self.reason,
            "kinetic_mismatch": self.kinetic_mismatch,
            "tolerance": self.tolerance,
        }


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal nullspace basis (columns) of a, with the rank cut
    eps * max(a.shape) * s_max of scipy.linalg.null_space.  The SVD runs on
    the triangular factor of a QR decomposition, which has the singular
    values and right singular vectors of a but never forms the
    rows x rows left factor."""
    _, s, vh = np.linalg.svd(np.linalg.qr(a, mode="r"))
    rank = int(np.sum(s > np.finfo(float).eps * max(a.shape) * np.max(s, initial=0.0)))
    return vh[rank:].T.conj()


def obstruction_certificate(gset: GridFunctionSet):
    """Search for coefficients proving the functions share no orbit.

    Solves sum(a) = 0 with sum_k a_k |h_k(x_i)|^2 = 0 at every grid point;
    when the nullspace is nontrivial, evaluates the kinetic mismatch K for
    each basis direction and certifies if some |K| clears the tolerance
    1e3 * machine epsilon on the scale of the kinetic forms.
    Absence of a certificate draws no conclusion.
    """
    if gset.n < 2:
        raise PreconditionError("need at least two functions")
    check_length("grid", gset.size, 8)

    moduli = np.abs(gset.functions) ** 2  # (n, G)
    constraints = np.vstack([np.ones(gset.n), moduli.T * gset.h])
    basis = _null_space(constraints)
    kinetics = np.array([kinetic_form(f, gset.h) for f in gset.functions])
    scale = float(np.max(np.abs(kinetics)))
    tol = 1e3 * np.finfo(float).eps * scale

    if basis.size == 0:
        return ObstructionAbsence(reason="moduli constraints admit only zero",
                                  kinetic_mismatch=None, tolerance=tol)

    best = None
    for col in basis.T:
        a = col / np.max(np.abs(col))
        lead = np.flatnonzero(np.abs(a) > 0.5)[0]
        a = a * np.sign(a[lead])
        K = float(np.dot(a, kinetics))
        if best is None or abs(K) > abs(best[1]):
            best = (a, K)
    a, K = best
    if abs(K) > tol:
        return ObstructionCertificate(coefficients=a, kinetic_mismatch=K, tolerance=tol,
                                      grid_points=gset.size, spacing=gset.h)
    return ObstructionAbsence(reason="kinetic mismatch below tolerance",
                              kinetic_mismatch=K, tolerance=tol)


# --- shipped examples and CSV interface -------------------------------------

def _unit_gaussian(grid_points: int):
    """The uniform grid of ``grid_points`` points on [-8, 8] and exp(-x^2/2) on it."""
    check_length("grid", grid_points, 8)
    x = np.linspace(-_HALF_WIDTH, _HALF_WIDTH, grid_points)
    return x, np.exp(-x ** 2 / 2.0).astype(complex)


def chirped_pair(grid_points: int = 1024) -> GridFunctionSet:
    """The unit Gaussian on [-8, 8] and its twin with phase exp(i*x^2): equal
    moduli pointwise but distinct kinetic energy, the standard
    certificate-producing pair."""
    x, base = _unit_gaussian(grid_points)
    return make_grid_set(x, [base, base * np.exp(1j * x ** 2)])


def identical_pair(grid_points: int = 1024) -> GridFunctionSet:
    """Two copies of the unit Gaussian on [-8, 8]: the control case with no
    obstruction."""
    x, base = _unit_gaussian(grid_points)
    return make_grid_set(x, [base, base.copy()])


def read_grid_functions(paths) -> GridFunctionSet:
    """Load one function per CSV file (columns x, re, im); all files must
    share the same grid.  A file that cannot be read, or holds a NaN or
    infinite value, raises PreconditionError naming it."""
    xs, funcs = [], []
    for path in paths:
        try:
            with open(path, newline="") as handle:
                rows = list(csv.reader(handle))
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise PreconditionError(f"cannot read grid file {str(path)!r}: {exc}") from exc
        if rows and rows[0][:1] == ["x"]:
            rows = rows[1:]
        try:
            data = np.array([[float(c) for c in row[:3]] for row in rows])
        except (ValueError, IndexError) as exc:
            raise PreconditionError(f"{path}: expected numeric rows x, re, im") from exc
        if data.ndim != 2 or data.shape[1] != 3:
            raise PreconditionError(f"{path}: expected three columns x, re, im")
        if not np.all(np.isfinite(data)):
            raise PreconditionError(f"{path}: grid and function values must be finite")
        xs.append(data[:, 0])
        funcs.append(data[:, 1] + 1j * data[:, 2])
    if not xs:
        raise PreconditionError("no input files")
    for other in xs[1:]:
        if other.shape != xs[0].shape or not np.allclose(other, xs[0], rtol=0, atol=1e-12):
            raise PreconditionError("all functions must share one grid")
    return make_grid_set(xs[0], funcs)
