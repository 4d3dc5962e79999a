"""Shared-orbit obstruction certificates on the grid."""

import gc
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import null_space

from halfcycle import (CapacityError, GridFunctionSet, PreconditionError, chirped_pair,
                       identical_pair, obstruction_certificate, read_grid_functions, schrodinger)
from halfcycle.schrodinger import (_SPACING_BLOCK, ObstructionAbsence, ObstructionCertificate,
                                   _null_space, _uniform_grid, kinetic_form)


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
    gset = GridFunctionSet(x, [np.exp(-x ** 2 / 2), np.exp(-x ** 2 / 8)])
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
    gset = GridFunctionSet(x, [f])
    t = kinetic_form(gset.functions[0], gset.h)
    assert t == pytest.approx(1.5 ** 2 + 0.01, rel=0.05)


def test_grid_validation():
    with pytest.raises(PreconditionError):
        GridFunctionSet(np.array([0.0, 1.0, 3.0]), [np.ones(3)])
    # checked before any norm is taken, so no sqrt of a negative spacing
    for x in (np.linspace(1, -1, 8), np.zeros(8), np.r_[0.0, np.linspace(0, 1, 7)]):
        with pytest.raises(PreconditionError, match="strictly increasing"):
            GridFunctionSet(x, [np.ones(8)])
    coarse = GridFunctionSet(np.linspace(-1, 1, 6), [np.ones(6), np.ones(6)])
    with pytest.raises(PreconditionError):
        obstruction_certificate(coarse)
    single = GridFunctionSet(np.linspace(-1, 1, 64), [np.ones(64)])
    with pytest.raises(PreconditionError):
        obstruction_certificate(single)


B = _SPACING_BLOCK


@pytest.mark.parametrize("step", [0, B - 2, B - 1, B, B + 1, 2 * B, 2 * B + 6])
@pytest.mark.parametrize("shift, uniform", [(1e-6, False), (-1e-6, False), (1e-12, True)])
def test_each_step_is_checked_across_block_edges(step, shift, uniform):
    # only step x[step + 1] - x[step] is off; the steps are checked B at a
    # time, so steps B - 1 and B sit either side of the first block edge and
    # 2B + 6 is the last step of the grid
    x = np.arange(2 * B + 8, dtype=float)
    x[step + 1:] += shift
    spacings = np.diff(x)  # the whole-grid verdict the blocks must repeat
    assert np.allclose(spacings, spacings[0], rtol=1e-9, atol=0.0) is uniform
    if uniform:
        assert _uniform_grid(x) is x
    else:
        with pytest.raises(PreconditionError, match="^grid must be uniform$"):
            _uniform_grid(x)


def test_spacing_check_holds_one_block_at_a_time():
    x = np.linspace(-8, 8, 2 ** 22)
    tracemalloc.start()
    try:
        _uniform_grid(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few arrays of one block's steps (the whole grid's steps took 68 MiB)
    assert peak < 4 * 8 * B


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


def test_csv_reader_memory_stays_near_the_parsed_tables(tmp_path):
    # the parsed tables of two 2^16-row files hold 3 MiB; parsing to arrays
    # peaks near 3x that and a Python object per cell near 12x, so 4x leaves
    # headroom for the first and refuses the second
    x = np.linspace(-8.0, 8.0, 2 ** 16)
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, f in zip(paths, (np.exp(-x ** 2 / 2), np.exp(-x ** 2 / 2 + 1j * x ** 2))):
        np.savetxt(path, np.column_stack([x, f.real, f.imag]), fmt="%.17g", delimiter=",",
                   header="x,re,im", comments="")
    tracemalloc.start()
    try:
        gset = read_grid_functions(paths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gset.size == x.size
    assert peak < 4 * (2 * x.size * 3 * 8)


def test_csv_past_the_grid_cap_is_refused_while_it_is_read(tmp_path, monkeypatch):
    # a stand-in cap of 16 rows: a file of 17 is refused before the missing
    # next file is opened and before any set is built; 16 rows pass
    monkeypatch.setattr(schrodinger, "DEFAULT_PERIOD_CAP", 16)
    at_cap, past_cap = tmp_path / "at.csv", tmp_path / "past.csv"
    write_csv(at_cap, np.linspace(-1, 1, 16), np.ones(16))
    write_csv(past_cap, np.linspace(-1, 1, 17), np.ones(17))
    assert read_grid_functions([at_cap]).size == 16

    def unbuilt(*args):
        raise AssertionError("built a set from an oversized file")

    monkeypatch.setattr(schrodinger, "GridFunctionSet", unbuilt)
    with pytest.raises(CapacityError, match=f"^{re.escape(str(past_cap))}: grid of more than "
                                            f"16 rows exceeds cap 16$"):
        read_grid_functions([past_cap, tmp_path / "missing.csv"])


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
    with pytest.raises(PreconditionError, match="cannot normalize a non-finite function"):
        GridFunctionSet(x=x, functions=[np.full(8, np.nan)])
    with pytest.raises(PreconditionError, match="cannot normalize a non-finite function"):
        GridFunctionSet(x, [np.r_[np.ones(7), np.nan]])


def test_grid_function_set_normalizes_a_copy_and_refuses_a_zero_function():
    x = np.linspace(-1.0, 1.0, 8)
    functions = np.array([np.full(8, 3.0 + 0j), np.arange(8.0) + 1j])
    before = functions.copy()
    gset = GridFunctionSet(x, functions)
    assert np.allclose(np.sum(np.abs(gset.functions) ** 2, axis=1) * gset.h, 1.0, atol=1e-14)
    assert np.array_equal(functions, before) and not np.shares_memory(gset.functions, functions)
    with pytest.raises(PreconditionError, match="cannot normalize a zero function"):
        GridFunctionSet(x, [np.ones(8), np.zeros(8)])


def test_grid_function_set_keeps_what_it_validated():
    # a certificate reads the grid and functions the set checked, whatever
    # the caller later does to its own arrays
    x = np.linspace(-8.0, 8.0, 64)
    base = np.exp(-x ** 2 / 2.0)
    gset = GridFunctionSet(x, [base, base * np.exp(1j * x ** 2)])
    before = obstruction_certificate(gset).to_dict()
    x[1] = x[0] + 10.0
    assert obstruction_certificate(gset).to_dict() == before
    assert before["spacing"] == pytest.approx(16.0 / 63.0)
    for array in (gset.x, gset.functions, chirped_pair(64).functions):
        with pytest.raises(ValueError, match="read-only"):
            array[0] *= 2.0


def test_building_and_certifying_stay_near_the_functions_held():
    # at 2^16 points a pair holds 2.5 MiB (grid and functions).  Building it
    # with one copy of the functions, normalized in place, peaks at 2.0x
    # that, and with a second, normalized copy at 2.63x; certifying it (the
    # set included) peaks at 2.2x, and at 2.8x with a moduli array kept
    # through the QR.  The bounds sit between.
    tracemalloc.start()
    try:
        gset = chirped_pair(2 ** 16)
        _, build = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        obstruction_certificate(gset)
        _, certify = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = gset.x.nbytes + gset.functions.nbytes
    assert build <= 2.4 * held
    assert certify <= 2.6 * held


def test_one_point_grid_rejected(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, np.array([0.0]), np.ones(1))
    write_csv(b, np.array([0.0]), np.ones(1))
    with pytest.raises(PreconditionError, match="at least two points"):
        read_grid_functions([a, b])
    with pytest.raises(PreconditionError, match="at least two points"):
        GridFunctionSet([0.0], [[1.0]])


def _constraints(gset):
    return np.vstack([np.ones(gset.n), (np.abs(gset.functions) ** 2).T * gset.h])


_X = np.linspace(-8, 8, 256)


@pytest.mark.parametrize("matrix", [
    _constraints(GridFunctionSet(_X, [np.exp(-_X ** 2 / 2), np.exp(-_X ** 2 / 8)])),  # tall
    _constraints(identical_pair(256)),  # tall, rank-deficient
    _constraints(GridFunctionSet(np.linspace(-1.0, 1.0, 8),
                               np.random.default_rng(5).normal(size=(12, 8)))),  # wide
], ids=["tall", "rank-deficient", "wide"])
def test_null_space_matches_scipy_reference(matrix):
    basis, reference = _null_space(matrix), null_space(matrix)
    assert basis.shape == reference.shape
    assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
    assert np.allclose(basis @ basis.T, reference @ reference.T, atol=1e-10)
