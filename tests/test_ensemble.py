"""Random-implementation sampling: moments, the parity bridge, statistics."""

import math

import numpy as np
import pytest

from halfcycle import (DENSITIES, CapacityError, ConsistencyError, DensitySpec,
                       PreconditionError, YSample, alpha_for_period, centered_window,
                       continuous_nu, ensemble, get_density, halfstep_profile_periodic,
                       nu_from_y, nu_of, moment_experiment)
from halfcycle.errors import DEFAULT_PERIOD_CAP, recorded_checks
from halfcycle.spectral import _halfstep_rows


def draw_y(p, density, rng):
    """One sampled implementation: p draws of ``density`` rescaled to [-1/p, 1/p]."""
    return YSample(p=p, y=density.sample(rng, p) / p)


def fixed(y):
    """A density whose every draw is ``y``, for deterministic continuous_nu checks."""
    y = np.asarray(y, dtype=float)
    return DensitySpec("fixed", float(np.mean(y ** 2)), float(np.mean(y ** 4)),
                       lambda rng, size: y)


def test_density_library_moments():
    u = get_density("uniform")
    assert (u.m2, u.m4) == (pytest.approx(1 / 3), pytest.approx(1 / 5))
    t = get_density("two-point")
    assert (t.m2, t.m4) == (1.0, 1.0)
    rc = get_density("raised-cosine")
    assert rc.m2 == pytest.approx(1 / 3 - 2 / math.pi ** 2)
    assert rc.m4 == pytest.approx(1 / 5 - 4 / math.pi ** 2 + 24 / math.pi ** 4)
    with pytest.raises(PreconditionError):
        get_density("gaussian")


@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_sampled_moments_match_library(name):
    density = get_density(name)
    rng = np.random.default_rng(21)
    draws = density.sample(rng, 1_000_000)
    assert np.all(np.abs(draws) <= 1.0)
    se2 = math.sqrt(max(density.m4 - density.m2 ** 2, 1e-12) / draws.size) + 1e-9
    assert abs(np.mean(draws)) < 3 * math.sqrt(density.m2 / draws.size)
    assert abs(np.mean(draws ** 2) - density.m2) < 3 * se2


def raised_cosine_ks_distance(draws):
    """Kolmogorov-Smirnov distance of ``draws`` to the raised-cosine CDF
    F(y) = (1 + y)/2 + sin(pi*y)/(2*pi)."""
    draws = np.sort(draws, axis=None)
    n = draws.size
    cdf = (1 + draws) / 2 + np.sin(np.pi * draws) / (2 * np.pi)
    steps = np.arange(1, n + 1) / n
    return max(np.max(steps - cdf), np.max(cdf - (steps - 1 / n)))


def test_raised_cosine_sampler_follows_its_cdf():
    # KS distance below the alpha = 0.01 critical value 1.63/sqrt(n)
    n = 100_000
    draws = get_density("raised-cosine").sample(np.random.default_rng(31), n)
    assert np.all(np.abs(draws) <= 1.0)
    assert raised_cosine_ks_distance(draws) < 1.63 / math.sqrt(n)


class HalfRejected:
    """A generator whose every other disk point lands outside the disk, so
    that every block of the raised-cosine sampler falls short."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.blocks = 0

    def random(self, size):
        self.blocks += 1
        points = self.rng.random(size)
        points[:, ::2] = 0.999  # a = 0.998, b = 0.999: a^2 + b^2 > 1
        return points


def test_raised_cosine_sampler_tops_up_short_blocks():
    rng = HalfRejected(32)
    draws = get_density("raised-cosine").sample(rng, (40, 2500))
    assert draws.shape == (40, 2500)
    assert rng.blocks > math.ceil(draws.size / ensemble._DRAW_BLOCK) + 1
    assert np.all(np.abs(draws) <= 1.0)
    assert raised_cosine_ks_distance(draws) < 1.63 / math.sqrt(draws.size)


def test_raised_cosine_sampler_is_reproducible_across_blocks():
    size = (3, ensemble._DRAW_BLOCK // 2 + 7)  # 1.5 blocks and a little more
    first, second = (get_density("raised-cosine").sample(np.random.default_rng(33), size)
                     for _ in range(2))
    assert first.size % ensemble._DRAW_BLOCK and first.tobytes() == second.tobytes()


def test_raised_cosine_sampler_empty_draw():
    rng = np.random.default_rng(34)
    assert get_density("raised-cosine").sample(rng, 0).shape == (0,)
    assert get_density("raised-cosine").sample(rng, (0, 64)).shape == (0, 64)


def test_two_point_sample_support():
    sample = draw_y(16, get_density("two-point"), np.random.default_rng(22))
    assert np.all(np.isin(sample.y, [-1 / 16, 1 / 16]))


def test_uniform_sample_scaled_moments():
    p = 32
    rng = np.random.default_rng(23)
    draws = np.concatenate([draw_y(p, get_density("uniform"), rng).y for _ in range(4000)])
    assert abs(np.mean(draws)) < 3 * math.sqrt(1 / (3 * p * p) / draws.size)
    m2_scaled = 1 / (3 * p * p)
    se = math.sqrt((1 / (5 * p ** 4) - m2_scaled ** 2) / draws.size)
    assert abs(np.mean(draws ** 2) - m2_scaled) < 3 * se


def test_ysample_validates_range():
    with pytest.raises(PreconditionError):
        YSample(p=4, y=np.array([0.5, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("p", [8, 64, 256])
def test_parity_allocation_bridge(p):
    # y_k = (-1)^k / p reproduces the minimal construction exactly
    y = YSample(p=p, y=np.array([(-1) ** k / p for k in range(p)]))
    window = centered_window(p, alpha_for_period(p))
    profile = halfstep_profile_periodic(p)
    assert abs(nu_from_y(y, window) - nu_of(profile, window)) < 1e-10


def test_nu_from_y_zero_sample():
    assert nu_from_y(YSample(p=8, y=np.zeros(8)), range(8)) == 0.0


def test_nu_from_y_window_validation():
    sample = YSample(p=8, y=np.zeros(8))
    with pytest.raises(PreconditionError):
        nu_from_y(sample, [9])


def test_nu_mean_against_alpha_m2():
    p = 256
    density = get_density("uniform")
    rng = np.random.default_rng(24)
    window = centered_window(p, alpha_for_period(p))
    nus = [nu_from_y(draw_y(p, density, rng), window) for _ in range(3000)]
    mean = np.mean(nus)
    se = np.std(nus, ddof=1) / math.sqrt(len(nus))
    assert abs(mean - 0.3125) < 3 * se  # alpha * m2 = 0.9375 / 3


def test_per_class_second_moment_is_m2_over_p():
    # E|c_j|^2 = m2/p for each j separately
    p = 16
    density = get_density("uniform")
    rng = np.random.default_rng(25)
    trials = 4000
    vals = np.empty((trials, 3))
    for i in range(trials):
        sample = draw_y(p, density, rng)
        for col, j in enumerate((0, 5, 12)):
            vals[i, col] = nu_from_y(sample, [j])
    target = density.m2 / p
    for col in range(3):
        se = np.std(vals[:, col], ddof=1) / math.sqrt(trials)
        assert abs(np.mean(vals[:, col]) - target) < 3 * se


def test_moment_experiment_report_fields_and_checks():
    rng = np.random.default_rng(26)
    report = moment_experiment([64, 256], get_density("uniform"), 4000, rng)
    assert [r.p for r in report.rows] == [64, 256]
    for r in report.rows:
        assert r.variance_defined
        assert abs(r.mean - r.target_mean) < 3.0 * r.stderr
        assert r.cheb_fraction <= 1 / report.delta ** 2
        assert r.target_mean == pytest.approx((1 - r.p ** -0.5) / 3)
    assert report.var_p_spread() < 4


def test_moment_experiment_two_point_variance_collapses():
    # m4 = m2^2 kills the leading 1/p variance term, so for large p the
    # two-point ensemble concentrates harder than the uniform one
    rng = np.random.default_rng(27)
    uni = moment_experiment([1024], get_density("uniform"), 4000, rng)
    two = moment_experiment([64, 1024], get_density("two-point"), 4000, rng)
    large = two.rows[1]
    assert large.mean == pytest.approx(1 - 1024 ** -0.5, abs=3 * large.stderr + 1e-12)
    assert large.var < uni.rows[0].var
    assert large.var_times_p < two.rows[0].var_times_p  # deviation scale collapses


def test_moment_experiment_single_trial_flags_variance():
    report = moment_experiment([64], get_density("uniform"), 1, np.random.default_rng(28))
    row = report.rows[0]
    assert not row.variance_defined
    assert math.isnan(row.var) and math.isnan(row.stderr)


def test_moment_experiment_validates_periods():
    with pytest.raises(PreconditionError):
        moment_experiment([63], get_density("uniform"), 10, np.random.default_rng(0))
    with pytest.raises(CapacityError, match="exceeds cap"):
        moment_experiment([64, 2 * DEFAULT_PERIOD_CAP], get_density("uniform"), 10,
                          np.random.default_rng(0))


def test_moment_experiment_rejects_empty_period_list():
    def untouched(rng, size):
        raise AssertionError("drew before checking the periods")

    density = DensitySpec("untouched", 1 / 3, 1 / 5, untouched)
    with pytest.raises(PreconditionError, match="at least one period"):
        moment_experiment([], density, 10, np.random.default_rng(0))


@pytest.mark.parametrize("p, name", [(64, "uniform"), (1024, "uniform"),
                                     (16384, "uniform"), (8186, "two-point"),
                                     (16342, "two-point")])
def test_parseval_window_masses_match_direct_sums(p, name):
    # 16384 is the largest power of two whose complement basis fits
    # p*2m <= 2**22; 8186 = 2*4093 and 16342 = 2*8171 are FFT lengths with a
    # large prime factor, where the FFT is least accurate, and two-point
    # draws gave the largest differences, so those take 256 rows
    window = centered_window(p, alpha_for_period(p))
    basis = ensemble._complement_basis(p, window)
    assert basis is not None and basis.shape[0] * basis.shape[1] <= 2 ** 22
    x = get_density(name).sample(np.random.default_rng(p), (256 if name == "two-point" else 16, p))
    direct = [np.sum(np.abs(_halfstep_rows(row / p)[window.start:window.stop]) ** 2) for row in x]
    with recorded_checks() as checks:
        nus = ensemble._window_masses(x, window, basis)
    assert np.max(np.abs(nus - direct)) <= 1e-12
    (points, residual), = checks
    assert points == 1 and 0.0 <= residual <= 1e-12


def test_moment_experiment_paths_agree_with_direct_sums(monkeypatch):
    # p = 16384 evaluates by Parseval and checks one row per chunk by FFT;
    # p = 32768 is past the basis bound and takes one FFT per row
    uniform = get_density("uniform")
    draws, fft_shapes = [], []

    def recorded(rng, size):
        y = uniform.sample(rng, size)
        draws.append(y.copy())
        return y

    def counted(y):
        fft_shapes.append(y.shape)
        return _halfstep_rows(y)

    monkeypatch.setattr(ensemble, "_halfstep_rows", counted)
    density = DensitySpec("recorded", uniform.m2, uniform.m4, recorded)
    report = moment_experiment([16384, 32768], density, 3, np.random.default_rng(0))
    assert fft_shapes == [(1, 16384), (3, 32768)]
    for row, y in zip(report.rows, draws):
        window = centered_window(row.p, alpha_for_period(row.p))
        assert (ensemble._complement_basis(row.p, window) is None) == (row.p == 32768)
        direct = [nu_from_y(YSample(p=row.p, y=r / row.p), window) for r in y]
        assert row.mean == pytest.approx(np.mean(direct), abs=1e-12)
    parseval, fft = report.diagnostics["periods"]
    assert parseval["path"] == "parseval" and parseval["checked_rows"] == 1
    assert 0.0 <= parseval["max_residual"] <= 1e-12
    assert fft == {"p": 32768, "path": "fft", "checked_rows": 0, "max_residual": None}


def test_unscaled_window_masses_match_scaled_bits_at_power_of_two_periods():
    # dividing by p = 2**k is exact, so the masses of x/p computed from x
    # are the bits that scaling the draws first gives
    p = 256
    window = centered_window(p, alpha_for_period(p))
    basis = ensemble._complement_basis(p, window)
    x = get_density("uniform").sample(np.random.default_rng(36), (64, p))
    y = x / p
    outside = y @ basis
    scaled = np.einsum("ij,ij->i", y, y) * p - np.einsum("ij,ij->i", outside, outside)
    assert ensemble._window_masses(x, window, basis).tobytes() == scaled.tobytes()


def test_moment_experiment_raises_when_parseval_and_fft_disagree(monkeypatch):
    monkeypatch.setattr(ensemble, "_halfstep_rows", lambda y: _halfstep_rows(y) * 1.001)
    with pytest.raises(ConsistencyError, match="Parseval window mass"):
        moment_experiment([64], get_density("uniform"), 10, np.random.default_rng(0))


def nan_rows(y):
    return np.full_like(_halfstep_rows(y), np.nan)


def test_moment_experiment_raises_on_a_nan_direct_sum(monkeypatch):
    monkeypatch.setattr(ensemble, "_halfstep_rows", nan_rows)
    with pytest.raises(ConsistencyError, match="Parseval window mass"):
        moment_experiment([64], get_density("uniform"), 10, np.random.default_rng(0))


def test_moment_experiment_chunk_shapes():
    # at most 4096 rows and 2**22 draws a chunk: p <= 1024 keeps 4096-row chunks
    shapes = []
    uniform = get_density("uniform")

    def recorded(rng, size):
        shapes.append(size)
        return uniform.sample(rng, size)

    density = DensitySpec("recorded", uniform.m2, uniform.m4, recorded)
    moment_experiment([64, 1024, 2048], density, 4097, np.random.default_rng(0))
    assert shapes == [(4096, 64), (1, 64), (4096, 1024), (1, 1024),
                      (2048, 2048), (2048, 2048), (1, 2048)]


def test_continuous_nu_deterministic_one():
    # y = 1 recovers the minimal aperiodic capture; its Parseval sum is 1
    res = continuous_nu(512, fixed(np.ones(512)), np.random.default_rng(0))
    assert 0.995 < res.direct <= 1.0 + 1e-12
    assert res.parseval == 1.0
    assert res.direct <= res.parseval


def test_continuous_nu_deterministic_zero():
    res = continuous_nu(64, fixed(np.zeros(64)), np.random.default_rng(0))
    assert res.direct == pytest.approx(0.0, abs=1e-15)
    assert res.parseval == 0.0


def _continuous_nu_dense(cells, y):
    # the (2*cells + 1) x (cells + 1) cell-integral matrix the evaluator replaced
    edges = 2.0 * np.pi * np.arange(cells + 1) / cells
    u = np.arange(-cells, cells + 1) - 0.5
    phase = np.exp(-1j * np.outer(u, edges))
    cell_int = (phase[:, :-1] - phase[:, 1:]) / (1j * u)[:, np.newaxis]
    return float(np.sum(np.abs((cell_int @ y) / (2.0 * np.pi)) ** 2))


def test_continuous_nu_matches_dense_cell_integrals():
    rng = np.random.default_rng(31)
    for _ in range(20):
        y = rng.uniform(-1.0, 1.0, 64)
        res = continuous_nu(64, fixed(y), rng)
        assert res.direct == pytest.approx(_continuous_nu_dense(64, y), abs=1e-14)
        assert res.direct <= res.parseval == np.mean(y * y)


def test_continuous_nu_records_its_bessel_check(monkeypatch):
    y = np.random.default_rng(32).uniform(-1.0, 1.0, 64)
    with recorded_checks() as checks:
        res = continuous_nu(64, fixed(y), np.random.default_rng(0))
    assert checks == [(1, res.direct - res.parseval)] and checks[0][1] < 0.0
    monkeypatch.setattr(ensemble, "_halfstep_rows", nan_rows)
    with pytest.raises(ConsistencyError, match="Parseval bound"):
        continuous_nu(64, fixed(y), np.random.default_rng(0))


def test_continuous_nu_direct_tracks_second_moment():
    # the |j| <= N truncation keeps ~90% of a narrow cell's spectrum, so the
    # sample mean reports just below m2 (never above)
    rng = np.random.default_rng(29)
    vals = [continuous_nu(64, get_density("uniform"), rng).direct for _ in range(400)]
    mean = np.mean(vals)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert 0.8 / 3 < mean < 1 / 3 + 3 * se


def test_continuous_nu_validates_cells():
    with pytest.raises(PreconditionError):
        continuous_nu(63, get_density("uniform"), np.random.default_rng(0))
