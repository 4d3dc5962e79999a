"""Shared-orbit obstruction certificates on the grid."""

import gc
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import null_space

from halfcycle import (PreconditionError, chirped_pair, identical_pair, make_grid_set,
                       obstruction_certificate, read_grid_functions)
from halfcycle.schrodinger import (GridFunctionSet, ObstructionAbsence, ObstructionCertificate,
                                   _null_space, kinetic_form)


def write_csv(path, x, f):
    """One grid function as CSV rows x, re, im under a header."""
    rows = zip(x.tolist(), np.asarray(f, dtype=complex).tolist())
    path.write_text("x,re,im\n" + "".join(f"{a!r},{b.real!r},{b.imag!r}\n" for a, b in rows))


def test_chirped_pair_produces_certificate():
    result = obstruction_certificate(chirped_pair(1024))
    assert isinstance(result, ObstructionCertificate)
    # unit chirp on a sigma = 1 Gaussian shifts kinetic energy by 4<x^2> = 2
    assert result.kinetic_mismatch == pytest.approx(-2.0, abs=0.01)
    assert abs(result.kinetic_mismatch) > result.tolerance
    a = result.coefficients
    assert np.allclose(sorted(a), [-1.0, 1.0], atol=1e-9)


def test_certificate_respects_moduli_constraints():
    gset = chirped_pair(512)
    result = obstruction_certificate(gset)
    a = result.coefficients
    moduli = np.abs(gset.functions) ** 2
    assert abs(np.sum(a)) < 1e-9
    assert np.max(np.abs(a @ moduli)) < 1e-9


def test_identical_pair_yields_absence():
    result = obstruction_certificate(identical_pair(1024))
    assert isinstance(result, ObstructionAbsence)
    assert result.kinetic_mismatch == pytest.approx(0.0, abs=result.tolerance)


def test_different_widths_give_only_zero_solution():
    x = np.linspace(-8, 8, 1024)
    gset = make_grid_set(x, [np.exp(-x ** 2 / 2), np.exp(-x ** 2 / 8)])
    result = obstruction_certificate(gset)
    assert isinstance(result, ObstructionAbsence)
    assert "only zero" in result.reason


def test_potential_term_cancels_for_any_potential():
    # the exact cancellation the certificate rests on, checked numerically
    gset = chirped_pair(512)
    result = obstruction_certificate(gset)
    a = result.coefficients
    rng = np.random.default_rng(31)
    for _ in range(20):
        V = rng.normal(size=gset.size)
        forms = [np.sum(V * np.abs(f) ** 2) * gset.h for f in gset.functions]
        assert abs(np.dot(a, forms)) < 1e-9 * np.max(np.abs(V))


def test_kinetic_mismatch_converges_at_second_order():
    k1 = obstruction_certificate(chirped_pair(512)).kinetic_mismatch
    k2 = obstruction_certificate(chirped_pair(1024)).kinetic_mismatch
    k3 = obstruction_certificate(chirped_pair(2048)).kinetic_mismatch
    assert abs(k2 - k1) < 0.002
    ratio = (k2 - k1) / (k3 - k2)
    assert 3.0 < ratio < 5.0  # halving h quarters the error


def test_kinetic_form_of_plane_wave_segment():
    # for a discrete sinusoid the form evaluates near k^2 per unit norm
    x = np.linspace(-20, 20, 4096)
    f = np.exp(1j * 1.5 * x) * np.exp(-x ** 2 / 50)
    gset = make_grid_set(x, [f])
    t = kinetic_form(gset.functions[0], gset.h)
    assert t == pytest.approx(1.5 ** 2 + 0.01, rel=0.05)


def test_grid_validation():
    with pytest.raises(PreconditionError):
        make_grid_set(np.array([0.0, 1.0, 3.0]), [np.ones(3)])
    coarse = make_grid_set(np.linspace(-1, 1, 6), [np.ones(6), np.ones(6)])
    with pytest.raises(PreconditionError):
        obstruction_certificate(coarse)
    single = make_grid_set(np.linspace(-1, 1, 64), [np.ones(64)])
    with pytest.raises(PreconditionError):
        obstruction_certificate(single)


def test_normalization_enforced():
    gset = chirped_pair(256)
    norms = np.sum(np.abs(gset.functions) ** 2, axis=1) * gset.h
    assert np.allclose(norms, 1.0, atol=1e-10)


def test_csv_round_trip(tmp_path):
    gset = chirped_pair(256)
    paths = []
    for i, f in enumerate(gset.functions):
        path = tmp_path / f"f{i}.csv"
        write_csv(path, gset.x, f)
        paths.append(path)
    again = read_grid_functions(paths)
    assert np.allclose(again.functions, gset.functions, atol=1e-12)
    result = obstruction_certificate(again)
    assert isinstance(result, ObstructionCertificate)


def test_csv_reader_closes_every_file(tmp_path):
    a, b, bad = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "bad.csv"
    write_csv(a, np.linspace(-1, 1, 32), np.ones(32))
    write_csv(b, np.linspace(-2, 2, 32), np.ones(32))
    bad.write_text("x,re,im\n0,zero,0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        read_grid_functions([a, a])
        for paths in ([a, b], [bad]):
            with pytest.raises(PreconditionError):
                read_grid_functions(paths)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_csv_mismatched_grids_rejected(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, np.linspace(-1, 1, 32), np.ones(32))
    write_csv(b, np.linspace(-2, 2, 32), np.ones(32))
    with pytest.raises(PreconditionError):
        read_grid_functions([a, b])


def test_csv_unreadable_file_names_it(tmp_path):
    for path in (tmp_path / "missing.csv", tmp_path):
        with pytest.raises(PreconditionError, match=re.escape(f"cannot read grid file {str(path)!r}")):
            read_grid_functions([path])


def test_csv_non_finite_value_names_the_file(tmp_path):
    x = np.linspace(-8.0, 8.0, 64)
    good = tmp_path / "good.csv"
    write_csv(good, x, np.exp(-x ** 2 / 2))
    for name, value in (("re.csv", np.nan), ("im.csv", complex(0.0, -np.inf))):
        f = np.exp(-x ** 2 / 2).astype(complex)
        f[10] = value
        bad = tmp_path / name
        write_csv(bad, x, f)
        with pytest.raises(PreconditionError, match=re.escape(f"{bad}: grid and function "
                                                              f"values must be finite")):
            read_grid_functions([good, bad])
    bad = tmp_path / "x.csv"
    write_csv(bad, np.r_[x[:-1], np.nan], np.exp(-x ** 2 / 2))
    with pytest.raises(PreconditionError, match="x.csv"):
        read_grid_functions([bad, good])


def test_grid_function_set_refuses_a_nan_norm():
    x = np.linspace(-1.0, 1.0, 8)
    with pytest.raises(PreconditionError, match="unit discrete norm"):
        GridFunctionSet(x=x, functions=[np.full(8, np.nan)])
    with pytest.raises(PreconditionError, match="cannot normalize"):
        make_grid_set(x, [np.r_[np.ones(7), np.nan]])


def test_one_point_grid_rejected(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, np.array([0.0]), np.ones(1))
    write_csv(b, np.array([0.0]), np.ones(1))
    with pytest.raises(PreconditionError, match="at least two points"):
        read_grid_functions([a, b])
    with pytest.raises(PreconditionError, match="at least two points"):
        make_grid_set([0.0], [[1.0]])


def _constraints(gset):
    return np.vstack([np.ones(gset.n), (np.abs(gset.functions) ** 2).T * gset.h])


_X = np.linspace(-8, 8, 256)


@pytest.mark.parametrize("matrix", [
    _constraints(make_grid_set(_X, [np.exp(-_X ** 2 / 2), np.exp(-_X ** 2 / 8)])),  # tall
    _constraints(identical_pair(256)),  # tall, rank-deficient
    _constraints(make_grid_set(np.linspace(-1.0, 1.0, 8),
                               np.random.default_rng(5).normal(size=(12, 8)))),  # wide
], ids=["tall", "rank-deficient", "wide"])
def test_null_space_matches_scipy_reference(matrix):
    basis, reference = _null_space(matrix), null_space(matrix)
    assert basis.shape == reference.shape
    assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
    assert np.allclose(basis @ basis.T, reference @ reference.T, atol=1e-10)
