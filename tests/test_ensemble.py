"""Random-implementation sampling: moments, the parity bridge, statistics."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from halfcycle import (DENSITIES, CapacityError, ConsistencyError, PreconditionError,
                       alpha_for_period, centered_window, ensemble, get_density,
                       halfstep_profile_periodic, nu_from_y, nu_of, moment_experiment)
from halfcycle.ensemble import DensitySpec, StatsReport
from halfcycle.errors import DEFAULT_PERIOD_CAP, recorded_checks
from halfcycle.spectral import _halfstep_rows, _halfstep_twist


def draw(density, rng, shape):
    """A new array of ``shape`` filled in place by ``density.sample``."""
    out = np.empty(shape)
    density.sample(rng, out)
    return out


def draw_y(p, density, rng):
    """One sampled implementation: p draws of ``density`` rescaled to [-1/p, 1/p]."""
    return draw(density, rng, p) / p


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
    draws = draw(density, rng, 1_000_000)
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
    draws = draw(get_density("raised-cosine"), np.random.default_rng(31), n)
    assert np.all(np.abs(draws) <= 1.0)
    assert raised_cosine_ks_distance(draws) < 1.63 / math.sqrt(n)


class HalfRejected:
    """A generator whose every other disk point lands outside the disk, so
    that every block of the raised-cosine sampler falls short."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.blocks = 0

    def random(self, *, out):
        self.blocks += 1
        self.rng.random(out=out)
        out[:, ::2] = 0.999  # a = 0.998, b = 0.999: a^2 + b^2 > 1
        return out


def test_raised_cosine_sampler_tops_up_short_blocks():
    rng = HalfRejected(32)
    draws = draw(get_density("raised-cosine"), rng, (40, 2500))
    assert draws.shape == (40, 2500)
    assert rng.blocks > math.ceil(draws.size / ensemble._DRAW_BLOCK) + 1
    assert np.all(np.abs(draws) <= 1.0)
    assert raised_cosine_ks_distance(draws) < 1.63 / math.sqrt(draws.size)


def test_raised_cosine_sampler_is_reproducible_across_blocks():
    size = (3, ensemble._DRAW_BLOCK // 2 + 7)  # 1.5 blocks and a little more
    first, second = (draw(get_density("raised-cosine"), np.random.default_rng(33), size)
                     for _ in range(2))
    assert first.size % ensemble._DRAW_BLOCK and first.tobytes() == second.tobytes()


def boolean_mask_raised_cosine(rng, out):
    """The raised-cosine sampler's earlier body, which gathered each block's
    accepted points with a boolean mask: the reference for its draws."""
    flat = out.reshape(-1)
    scratch = np.empty(3 * (4 * min(ensemble._DRAW_BLOCK, flat.size) // 3 + 64))
    done = 0
    while done < flat.size:
        want = min(ensemble._DRAW_BLOCK, flat.size - done)
        n = 4 * want // 3 + 64
        a, b = rng.random(out=scratch[:2 * n].reshape(2, n))
        a *= 2.0
        a -= 1.0
        b *= b
        b += np.multiply(a, a, out=scratch[2 * n:3 * n])
        inside = a[b < 1.0][:want]
        flat[done:done + inside.size] = inside
        done += inside.size
    np.arcsin(out, out=out)
    out /= np.pi / 2


@pytest.mark.parametrize("make_rng", [np.random.default_rng, HalfRejected],
                         ids=["full blocks", "short blocks"])
def test_raised_cosine_compaction_keeps_the_boolean_mask_draws(make_rng):
    size = (3, ensemble._DRAW_BLOCK // 2 + 7)  # 1.5 blocks and a little more
    drawn, expected = np.empty(size), np.empty(size)
    rng, reference = make_rng(38), make_rng(38)
    get_density("raised-cosine").sample(rng, drawn)
    boolean_mask_raised_cosine(reference, expected)
    assert drawn.tobytes() == expected.tobytes()
    if make_rng is np.random.default_rng:  # and the stream is left where it was
        assert rng.random() == reference.random()


def test_raised_cosine_compaction_allocates_one_index_array_a_block():
    # A 2 MiB draw (2**18 outputs, four blocks) holds the scratch of 3n
    # doubles and the mask of n bools, n = 4*2**16//3 + 64, plus one block's
    # index array of at most n int64s: 2.75 MiB.  The boolean-mask gather
    # held a float copy of a block's accepted points (~0.52 MiB) while the
    # previous block's copy was still alive, and peaked at 3.14 MiB.
    n = 4 * ensemble._DRAW_BLOCK // 3 + 64
    bound = 3 * n * 8 + n + n * 8
    peaks = []
    for sample in (get_density("raised-cosine").sample, boolean_mask_raised_cosine):
        out = np.empty(2 ** 18)
        sample(np.random.default_rng(39), out)  # lazy set-up
        tracemalloc.start()
        try:
            sample(np.random.default_rng(39), out)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= bound < peaks[1]


def test_raised_cosine_sampler_empty_draw():
    rng = np.random.default_rng(34)
    assert draw(get_density("raised-cosine"), rng, 0).shape == (0,)
    assert draw(get_density("raised-cosine"), rng, (0, 64)).shape == (0, 64)


def test_uniform_fills_in_place_the_bits_of_rng_uniform():
    out = np.empty((3, 1000))
    assert get_density("uniform").sample(np.random.default_rng(35), out) is None
    expected = np.random.default_rng(35).uniform(-1.0, 1.0, out.size)
    assert out.reshape(-1).tobytes() == expected.tobytes()


def test_two_point_sample_support():
    sample = draw_y(16, get_density("two-point"), np.random.default_rng(22))
    assert np.all(np.isin(sample, [-1 / 16, 1 / 16]))


def test_uniform_sample_scaled_moments():
    p = 32
    rng = np.random.default_rng(23)
    draws = np.concatenate([draw_y(p, get_density("uniform"), rng) for _ in range(4000)])
    assert abs(np.mean(draws)) < 3 * math.sqrt(1 / (3 * p * p) / draws.size)
    m2_scaled = 1 / (3 * p * p)
    se = math.sqrt((1 / (5 * p ** 4) - m2_scaled ** 2) / draws.size)
    assert abs(np.mean(draws ** 2) - m2_scaled) < 3 * se


def test_ysample_validates_range():
    # the imbalance sample y: each of its p = y.size entries in [-1/p, 1/p], in one dimension
    for y in ([0.5, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -np.inf]):
        with pytest.raises(PreconditionError, match="must lie in"):
            nu_from_y(np.array(y), [0])
    assert nu_from_y([0.25, -0.25, 0.25 + 1e-16, -0.25], [0]) >= 0.0
    for y in (np.zeros((2, 4)), np.float64(0.0), []):
        with pytest.raises(PreconditionError, match="one imbalance per phase class"):
            nu_from_y(y, [])


@pytest.mark.parametrize("p", [8, 64, 256])
def test_parity_allocation_bridge(p):
    # y_k = (-1)^k / p reproduces the minimal construction exactly
    y = np.array([(-1) ** k / p for k in range(p)])
    window = centered_window(p, alpha_for_period(p))
    profile = halfstep_profile_periodic(p)
    assert abs(nu_from_y(y, window) - nu_of(profile, window)) < 1e-10


def test_nu_from_y_zero_sample():
    assert nu_from_y(np.zeros(8), range(8)) == 0.0


def test_nu_from_y_window_validation():
    with pytest.raises(PreconditionError, match=r"outside \[0, p\)"):
        nu_from_y(np.zeros(8), [9])
    with pytest.raises(PreconditionError, match=r"outside \[0, p\)"):
        nu_from_y(np.zeros(8), [-1])
    y = np.array([(-1) ** k / 8 for k in range(8)])
    for window in ([1, 1], [3, 5], range(3, 0, -1)):
        with pytest.raises(PreconditionError,
                           match="^window must be one run of consecutive ascending integers$"):
            nu_from_y(y, window)
    assert nu_from_y(y, [2, 3, 4]) == nu_from_y(y, range(2, 5)) == nu_from_y(y, np.arange(2, 5))


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


def test_spread_of_a_zero_deviation_scale_is_nan():
    # a spread over a var*p of 0 is no number, as with fewer than two rows
    rows = tuple(SimpleNamespace(var_times_p=v) for v in (0.0, 2.0))
    assert math.isnan(StatsReport("two-point", 2, 3.0, rows).var_p_spread())
    assert StatsReport("two-point", 2, 3.0, rows[1:] * 2).var_p_spread() == 1.0


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
    def untouched(rng, out):
        raise AssertionError("drew before checking the periods")

    density = DensitySpec("untouched", 1 / 3, 1 / 5, untouched)
    with pytest.raises(PreconditionError, match="at least one period"):
        moment_experiment([], density, 10, np.random.default_rng(0))


@pytest.mark.parametrize("p, name", [(64, "uniform"), (1024, "uniform"),
                                     (8192, "uniform"), (8186, "two-point"),
                                     (10394, "two-point")])
def test_parseval_window_masses_match_direct_sums(p, name):
    # 8192 is the largest power of two whose complement basis fits
    # p*2m <= 2**21; 8186 = 2*4093 and 10394 = 2*5197 (the largest such
    # length under the bound) are FFT lengths with a large prime factor,
    # where the FFT is least accurate, and two-point draws gave the largest
    # differences, so those take 256 rows
    window = centered_window(p, alpha_for_period(p))
    basis = ensemble._complement_basis(p, window)
    assert basis is not None and basis.shape[0] * basis.shape[1] <= 2 ** 21
    x = draw(get_density(name), np.random.default_rng(p), (256 if name == "two-point" else 16, p))
    direct = [np.sum(np.abs(_halfstep_rows(row / p)[window.start:window.stop]) ** 2) for row in x]
    with recorded_checks() as checks:
        nus = ensemble._window_masses(x, window, basis, _halfstep_twist(p), name,
                                      np.empty(len(x)))
    assert np.max(np.abs(nus - direct)) <= 1e-12
    (what, points, residual), = checks
    assert what == f"Parseval window mass vs direct sum at p={p}"
    assert points == 1 and 0.0 <= residual <= 1e-12


@pytest.mark.parametrize("name", ["uniform", "two-point"])
@pytest.mark.parametrize("p", [*range(4, 65, 2), 8186, 10394])
def test_folded_basis_window_masses_match_direct_sums(p, name):
    # the complement {0..L-1} and {p-L..p-1} folds onto bins 0..L+1 with
    # weights [j < L] + [j >= 2]: L = 1 (every even p up to 14) drops bin 1,
    # L = 2 weighs every bin once
    window = centered_window(p, alpha_for_period(p))
    L = window.start
    basis = ensemble._complement_basis(p, window)
    assert basis.shape == (p, 4 if L == 1 else 2 * (L + 2))
    x = draw(get_density(name), np.random.default_rng(p), (16 if p < 100 else 4, p))
    nus = ensemble._window_masses(x, window, basis, _halfstep_twist(p), name, np.empty(len(x)))
    direct = [nu_from_y(row / p, window) for row in x]
    assert np.max(np.abs(nus - direct)) <= 1e-12


@pytest.mark.parametrize("window", [range(3, 60), range(4, 61), range(0, 32), range(33, 31)])
def test_complement_basis_refuses_a_window_off_center(window):
    with pytest.raises(PreconditionError, match="not centered on p/2 = 32"):
        ensemble._complement_basis(64, window)


def test_moment_experiment_paths_agree_with_direct_sums(monkeypatch):
    # p = 8192 evaluates by Parseval and checks one row per block by FFT;
    # p = 16384 is past the basis bound and takes one FFT per row
    uniform = get_density("uniform")
    draws, fft_shapes = [], []

    def recorded(rng, out):
        uniform.sample(rng, out)
        draws.append(out.copy())

    def counted(y, twist=None):
        fft_shapes.append(y.shape)
        return _halfstep_rows(y, twist)

    monkeypatch.setattr(ensemble, "_halfstep_rows", counted)
    density = DensitySpec("recorded", uniform.m2, uniform.m4, recorded)
    with recorded_checks() as checks:
        report = moment_experiment([8192, 16384], density, 3, np.random.default_rng(0))
    assert fft_shapes == [(1, 8192), (3, 16384)]
    for row, y in zip(report.rows, draws):
        window = centered_window(row.p, alpha_for_period(row.p))
        assert (ensemble._complement_basis(row.p, window) is None) == (row.p == 16384)
        direct = [nu_from_y(r / row.p, window) for r in y]
        assert row.mean == pytest.approx(np.mean(direct), abs=1e-12)
    # one checked row at p = 8192; the FFT path is the reference and checks nothing
    (what, points, residual), = checks
    assert (what, points) == ("Parseval window mass vs direct sum at p=8192", 1)
    assert 0.0 <= residual <= 1e-12


def test_unscaled_window_masses_match_scaled_bits_at_power_of_two_periods():
    # dividing by p = 2**k is exact, so the masses of x/p computed from x
    # are the bits that scaling the draws first gives
    p = 256
    window = centered_window(p, alpha_for_period(p))
    basis = ensemble._complement_basis(p, window)
    x = draw(get_density("uniform"), np.random.default_rng(36), (64, p))
    y = x / p
    outside = y @ basis
    scaled = np.einsum("ij,ij->i", y, y) * p - np.einsum("ij,ij->i", outside, outside)
    nus = ensemble._window_masses(x, window, basis, _halfstep_twist(p), "uniform", np.empty(64))
    assert nus.tobytes() == scaled.tobytes()


def test_moment_experiment_raises_when_parseval_and_fft_disagree(monkeypatch):
    monkeypatch.setattr(ensemble, "_halfstep_rows", lambda y, twist: _halfstep_rows(y) * 1.001)
    with pytest.raises(ConsistencyError, match="Parseval window mass"):
        moment_experiment([64], get_density("uniform"), 10, np.random.default_rng(0))


def nan_rows(y, twist=None):
    return np.full_like(_halfstep_rows(y), np.nan)


def test_moment_experiment_raises_on_a_nan_direct_sum(monkeypatch):
    monkeypatch.setattr(ensemble, "_halfstep_rows", nan_rows)
    with pytest.raises(ConsistencyError, match="Parseval window mass"):
        moment_experiment([64], get_density("uniform"), 10, np.random.default_rng(0))


def test_moment_experiment_block_shapes_share_one_buffer():
    # max(1, 2**18 // p) rows a block: 16384 rows at p = 16, 256 at p = 1024
    # and 64 at p = 4096; every block is drawn into the same buffer
    shapes, addresses = [], set()
    uniform = get_density("uniform")

    def recorded(rng, out):
        shapes.append(out.shape)
        addresses.add(out.__array_interface__["data"][0])
        uniform.sample(rng, out)

    density = DensitySpec("recorded", uniform.m2, uniform.m4, recorded)
    moment_experiment([16, 1024, 4096], density, 257, np.random.default_rng(0))
    assert shapes == [(257, 16), (256, 1024), (1, 1024), *[(64, 4096)] * 4, (1, 4096)]
    assert len(addresses) == 1


def test_moment_experiment_above_the_block_size_draws_one_row_a_block(monkeypatch):
    # p = 2**19 holds more than 2**18 draws a row: one row a block, on the
    # FFT path with the period's twist built once for both blocks
    uniform, draws, twists = get_density("uniform"), [], []

    def recorded(rng, out):
        uniform.sample(rng, out)
        draws.append(out.copy())

    def counted(p):
        twists.append(p)
        return _halfstep_twist(p)

    monkeypatch.setattr(ensemble, "_halfstep_twist", counted)
    density = DensitySpec("recorded", uniform.m2, uniform.m4, recorded)
    with recorded_checks() as checks:
        report = moment_experiment([2 ** 19], density, 2, np.random.default_rng(0))
    assert [y.shape for y in draws] == [(1, 2 ** 19)] * 2 and twists == [2 ** 19]
    assert checks == []
    window = centered_window(2 ** 19, alpha_for_period(2 ** 19))
    direct = [nu_from_y(y[0] / 2 ** 19, window) for y in draws]
    assert report.rows[0].mean == pytest.approx(np.mean(direct), abs=1e-12)


@pytest.mark.parametrize("name, trials", [("uniform", 20000), ("raised-cosine", 10000)])
def test_moment_experiment_memory_stays_near_one_block(name, trials):
    # the montecarlo benchmark's calls: one 2 MiB buffer of draws, the
    # raised-cosine sampler's 2 MiB of disk points and the p = 1024 basis
    # (0.5 MiB) read 3.3 / 5.7 MiB under tracemalloc; chunks of 4096 rows
    # (32 MiB at p = 1024) read about 35 MiB, so 8 MiB separates the two
    moment_experiment([64], get_density(name), 10, np.random.default_rng(0))  # lazy set-up
    tracemalloc.start()
    try:
        moment_experiment([64, 256, 1024], get_density(name), trials, np.random.default_rng(37))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


NAN_DENSITY = DensitySpec("nan", m2=1.0, m4=1.0, sample=lambda rng, out: out.fill(np.nan))


@pytest.mark.parametrize("p", [64, 32768], ids=["product path", "fft path"])
def test_moment_experiment_refuses_a_non_finite_draw(p):
    # before the Parseval check sees it (p = 64) and where no check runs (p = 32768)
    with pytest.raises(PreconditionError, match=f"^density 'nan' drew a non-finite value "
                                                f"at p={p}$"):
        moment_experiment([p], NAN_DENSITY, 10, np.random.default_rng(0))


class SpawnRecorder:
    """A generator stand-in that records the size of each spawn request."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def spawn(self, n):
        self.sizes.append(n)
        return self.rng.spawn(n)


def test_moment_experiment_spawns_one_stream_per_block_as_it_draws():
    # three blocks at p = 1024 (256 rows each); spawning them one at a time
    # gives the children, and so the numbers, that spawning all three at once gives
    uniform, recorder = get_density("uniform"), SpawnRecorder(3)
    report = moment_experiment([1024], uniform, 2 * 256 + 1, recorder)
    assert recorder.sizes == [1, 1, 1]
    window = centered_window(1024, alpha_for_period(1024))
    basis = ensemble._complement_basis(1024, window)
    twist = _halfstep_twist(1024)
    streams = np.random.default_rng(3).spawn(3)
    nus = [ensemble._window_masses(draw(uniform, stream, (rows, 1024)), window, basis, twist,
                                   "uniform", np.empty(rows))
           for stream, rows in zip(streams, (256, 256, 1))]
    assert report.rows[0].mean == float(np.mean(np.concatenate(nus)))
