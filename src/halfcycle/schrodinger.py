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
Every function set, built in or read from CSV, is built by
``GridFunctionSet``, which checks the grid and normalizes each function.
Grids have at least 8 points and obey the size rule of
``errors.check_length``.
"""

from __future__ import annotations

import csv
import os
import stat
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_PERIOD_CAP, CapacityError, PreconditionError, check_length

_SPACING_BLOCK = 2 ** 16  # grid steps checked at once (512 KiB of differences)
_HALF_WIDTH = 8.0  # the shipped pairs live on [-8, 8]; exp(-x^2/2) < 1e-13 at its ends


def _uniform_grid(x) -> np.ndarray:
    """``x`` as a float array, checked before any norm is taken: one
    dimension, at least two points, strictly increasing and uniform."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise PreconditionError("grid must be one-dimensional with at least two points")
    step = x[1] - x[0]
    if not step > 0:  # with uniform spacing, every step is then positive
        raise PreconditionError("grid must be strictly increasing")
    for start in range(0, x.size - 1, _SPACING_BLOCK):  # a block's steps at a time
        if not np.allclose(np.diff(x[start:start + _SPACING_BLOCK + 1]), step,
                           rtol=1e-9, atol=0.0):
            raise PreconditionError("grid must be uniform")
    return x


@dataclass(frozen=True, eq=False)
class GridFunctionSet:
    """Complex functions on one strictly increasing uniform grid, each
    scaled to unit discrete norm sum(|f|^2)*h = 1: the grid is kept as a
    read-only copy, and the functions are copied once into a read-only
    complex (n, G) array, divided by their norms in place, so neither
    aliases the caller's; a zero or non-finite function is refused."""

    x: np.ndarray
    functions: np.ndarray  # shape (n, G)

    def __post_init__(self):
        x = _uniform_grid(self.x).copy()
        x.flags.writeable = False
        object.__setattr__(self, "x", x)
        functions = np.array(self.functions, dtype=complex, ndmin=2)
        if functions.ndim != 2 or functions.shape[1] != self.x.size:
            raise PreconditionError("functions must be sampled on the grid")
        norms = np.sqrt(np.sum(np.abs(functions) ** 2, axis=1) * self.h)
        if np.any(norms == 0):
            raise PreconditionError("cannot normalize a zero function")
        if not np.all(np.isfinite(norms)):
            raise PreconditionError("cannot normalize a non-finite function")
        functions /= norms[:, np.newaxis]
        functions.flags.writeable = False
        object.__setattr__(self, "functions", functions)

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def n(self) -> int:
        return self.functions.shape[0]

    @property
    def size(self) -> int:
        return self.x.size


def kinetic_form(f: np.ndarray, h: float) -> float:
    """(f, -laplacian f) with the second-order difference operator and
    zero boundary extension: sum |f_{i+1} - f_i|^2 / h."""
    diffs = np.diff(np.asarray(f, dtype=complex), prepend=0.0, append=0.0)
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

    constraints = np.vstack([np.ones(gset.n), (np.abs(gset.functions) ** 2).T * gset.h])
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
    return x, np.exp(-x ** 2 / 2.0)


def chirped_pair(grid_points: int = 1024) -> GridFunctionSet:
    """The unit Gaussian on [-8, 8] and its twin with phase exp(i*x^2): equal
    moduli pointwise but distinct kinetic energy, the standard
    certificate-producing pair."""
    x, base = _unit_gaussian(grid_points)
    return GridFunctionSet(x, [base, base * np.exp(1j * x ** 2)])


def identical_pair(grid_points: int = 1024) -> GridFunctionSet:
    """Two copies of the unit Gaussian on [-8, 8]: the control case with no
    obstruction."""
    x, base = _unit_gaussian(grid_points)
    return GridFunctionSet(x, [base, base])


def _row_cap(handle):
    """``max_rows`` for ``np.loadtxt``: DEFAULT_PERIOD_CAP + 1 for a file
    that could hold more rows than the cap, else None.  numpy allocates
    max_rows rows up front (100 MB at the cap), and a regular file of
    fewer than 6 * DEFAULT_PERIOD_CAP + 5 bytes holds at most the cap,
    since a row takes at least five characters ("0,0,0") and a line end."""
    info = os.fstat(handle.fileno())
    small = stat.S_ISREG(info.st_mode) and info.st_size < 6 * DEFAULT_PERIOD_CAP + 5
    return None if small else DEFAULT_PERIOD_CAP + 1


def read_grid_functions(paths) -> GridFunctionSet:
    """Load one function per CSV file of rows x, re, im, read by ``np.loadtxt``
    (blank lines skipped, cells may be quoted, columns past the third ignored)
    after a first line whose first cell, quoted or not, is ``x``; all files
    must share one grid.  A file that cannot be read, has no such rows or
    holds a NaN or infinite value raises PreconditionError naming it; one
    of more than DEFAULT_PERIOD_CAP rows, CapacityError naming it, as soon
    as its first DEFAULT_PERIOD_CAP + 1 rows are read and before the next
    file is opened."""
    x, funcs = None, []
    for path in paths:
        try:
            with open(path) as handle, warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # numpy's warning on a file without rows
                header = next(csv.reader([handle.readline(4)]), [])[:1] == ["x"]  # x ends by then
                handle.seek(0)
                data = np.loadtxt(handle, delimiter=",", usecols=(0, 1, 2), ndmin=2, comments=None,
                                  quotechar='"', skiprows=int(header),
                                  max_rows=_row_cap(handle))
        except (OSError, UnicodeDecodeError) as exc:
            raise PreconditionError(f"cannot read grid file {str(path)!r}: {exc}") from exc
        except (ValueError, UserWarning) as exc:
            raise PreconditionError(f"{path}: expected numeric rows x, re, im") from exc
        if len(data) > DEFAULT_PERIOD_CAP:
            raise CapacityError(f"{path}: grid of more than {DEFAULT_PERIOD_CAP} rows "
                                f"exceeds cap {DEFAULT_PERIOD_CAP}")
        if not np.all(np.isfinite(data)):
            raise PreconditionError(f"{path}: grid and function values must be finite")
        if x is None:
            x = data[:, 0].copy()
        elif len(data) != x.size or not np.allclose(data[:, 0], x, rtol=0, atol=1e-12):
            raise PreconditionError("all functions must share one grid")
        funcs.append(data[:, 1] + 1j * data[:, 2])
    if x is None:
        raise PreconditionError("no input files")
    return GridFunctionSet(x, funcs)
