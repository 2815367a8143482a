import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from latcode import channel as ch
from latcode import codebook as cb
from latcode import lattice
from latcode import numberfield as nf
from latcode.codebook import (CodeConfig, ShiftSearchError, carve, count_points,
                              energy_normalization, shift_search)


def field(name):
    return nf.catalog_field(name)


def ball_volume(f, radius):
    """Vol(B(radius)) in the field's real dimension, C (r^2/n)^{dim/2}: the
    formula ``energy_normalization`` and the shift search take in logs."""
    dim, n = f.degree, f.ambient_n
    return math.exp(lattice._ln_ball_constant(dim, n)
                    + 0.5 * dim * math.log(radius * radius / n))


class TestEnergyNormalization:
    def test_gaussian_integers_example(self):
        # n=1, |d|=4, C_1 = pi: alpha^2 = 2P*pi / (2^R * sqrt(|d|))
        a2 = energy_normalization(field("Qi"), rate=1.0, power=1.0)
        assert a2 == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_gaussian_integers_volume_ratio(self):
        # the normalization makes Vol(B(sqrt(nP))) / Vol(alpha L) = 2^{Rn}
        f = field("Qi")
        rate, power = 1.0, 1.0
        a2 = energy_normalization(f, rate, power)
        B = nf.embedding_matrix(f).scaled(math.sqrt(a2))
        ratio = ball_volume(f, math.sqrt(f.ambient_n * power)) \
            / lattice.volume(B)
        assert ratio == pytest.approx(2.0 ** (rate * f.ambient_n), rel=1e-12)

    def test_real_quadratic_example(self):
        # n=2, |d|=8, C_2^R = 2pi: alpha^2 = P * 2pi / (2^{2R} * sqrt(8))
        a2 = energy_normalization(field("Qsqrt2"), rate=1.0, power=4.0)
        assert a2 == pytest.approx(2.0 * math.pi / math.sqrt(8.0), rel=1e-12)

    def test_linear_in_power(self):
        for name in ["Qi", "Qsqrt2", "Qzeta5", "F4-725"]:
            f = field(name)
            base = energy_normalization(f, 1.5, 1.0)
            for p in [0.5, 3.0, 20.0]:
                assert energy_normalization(f, 1.5, p) == pytest.approx(
                    p * base, rel=1e-12)

    def test_volume_ratio_across_fields(self):
        for name in ["Qsqrt2", "Qzeta5", "F4-725"]:
            f = field(name)
            rate, power = 0.75, 6.0
            a2 = energy_normalization(f, rate, power)
            B = nf.embedding_matrix(f).scaled(math.sqrt(a2))
            ratio = ball_volume(f, math.sqrt(f.ambient_n * power)) \
                / lattice.volume(B)
            assert ratio == pytest.approx(2.0 ** (rate * f.ambient_n),
                                          rel=1e-10)


class TestShiftSearch:
    def test_z2_ball_count_meets_volume_bound(self):
        B = lattice.LatticeBasis(lattice.REAL, np.eye(2))
        # radius sqrt(2*50) = 10; Vol(B)/Vol(L) = 100 pi
        shift, coords = shift_search(B, power=50.0, seed=3)
        count, again = count_points(B, shift, 10.0)
        assert count >= 100.0 * math.pi - 1e-9
        assert count >= 315  # any unit-square shift gives at least this
        # the accepted try's ball comes back with its shift
        assert count == len(coords) and np.array_equal(coords, again)

    def test_deterministic_in_seed(self):
        B = lattice.LatticeBasis(lattice.REAL, np.eye(2))
        (s1, c1), (s2, c2) = (shift_search(B, power=8.0, seed=17)
                              for _ in range(2))
        assert np.array_equal(s1, s2) and np.array_equal(c1, c2)

    def test_seeds_past_2_63_are_distinct(self):
        # the key (seed mod 2^64, 0) holds every 64-bit seed exactly
        B = lattice.LatticeBasis(lattice.REAL, np.eye(2))

        def shift(seed):
            return shift_search(B, power=8.0, seed=seed)[0]
        assert not np.array_equal(shift(2 ** 63), shift(2 ** 63 + 1000))
        assert np.array_equal(shift(2 ** 64 - 1), shift(-1))

    def test_try_cap_raises_with_best_count(self, monkeypatch):
        # F4-725 at rate 1: the volume ratio is 2^4 = 16, and the first
        # shift of seed 2 holds 14 points
        f, rate, power = field("F4-725"), 1.0, 10.0
        alpha = math.sqrt(energy_normalization(f, rate, power))
        B = nf.embedding_matrix(f).scaled(alpha)
        monkeypatch.setattr(cb, "_SHIFT_TRY_CAP", 1)
        with pytest.raises(ShiftSearchError) as info:
            shift_search(B, power, seed=2)
        assert info.value.best_count == 14
        assert info.value.required == pytest.approx(16.0, rel=1e-12)
        assert info.value.tries == 1
        assert "after 1 tries: best count 14" in str(info.value)
        monkeypatch.setattr(cb, "_SHIFT_TRY_CAP", 10)
        shift, _ = shift_search(B, power, seed=2)
        assert count_points(B, shift, math.sqrt(4 * power))[0] >= 16

    def test_full_size_count_is_accepted(self, monkeypatch):
        # F8-17 at rate 2 and 10 dB: a shift holding exactly 2^16 points
        # meets the volume ratio 2^16, which an absolute 1e-9 slack on the
        # float ratio 65536 + 3.8e-8 rejected
        f, power = field("F8-17"), 10.0
        B = cb.code_lattice(f, math.sqrt(energy_normalization(f, 2.0, power)))
        calls, coords = [], object()
        monkeypatch.setattr(cb, "count_points",
                            lambda *args: calls.append(args) or (2 ** 16,
                                                                 coords))
        monkeypatch.setattr(cb, "_SHIFT_TRY_CAP", 3)
        assert shift_search(B, power, seed=0)[1] is coords
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", [0, 17, -1, 2 ** 63, 2 ** 64 - 1])
    def test_draws_equal_a_fresh_philox(self, seed, monkeypatch):
        """Twenty tries on Z^2, the last accepted: each try's shift is what
        a fresh Philox keyed (seed mod 2^64, 0) draws next."""
        B = lattice.LatticeBasis(lattice.REAL, np.eye(2))
        shifts = []

        def count(basis, shift, radius):
            shifts.append(shift)
            return (10 ** 6 if len(shifts) == 20 else 0), None
        monkeypatch.setattr(cb, "count_points", count)
        shift_search(B, power=8.0, seed=seed)
        fresh = np.random.Generator(np.random.Philox(
            key=np.array((seed % 2 ** 64, 0), dtype=np.uint64)))
        assert len(shifts) == 20
        for shift in shifts:
            assert np.array_equal(shift, fresh.random(2) @ B.real_matrix)

    def test_shares_no_generator_with_the_streams(self):
        """A carve between a stream's re-keying and its draw leaves that
        draw as a fresh Philox keyed (7, 4 * 3 + stream) makes it."""
        config = CodeConfig(rate=1.0, power=10.0, field=field("F4-725"),
                            seed=7)
        for stream in range(3):
            g = ch.stream_rng(7, 3, stream)
            carve(config)
            fresh = np.random.Generator(np.random.Philox(
                key=np.array((7, 12 + stream), dtype=np.uint64)))
            assert g.random() == fresh.random()

    def test_failed_try_ball_is_dropped_before_the_next(self, monkeypatch):
        """F8-17 at rate 2, seed 6, takes three tries of some 65,000
        points: when each try starts, no earlier try's coordinates are
        alive."""
        f, power = field("F8-17"), 10.0
        B = cb.code_lattice(f, math.sqrt(energy_normalization(f, 2.0, power)))
        balls = []

        def count(basis, shift, radius):
            assert all(ball() is None for ball in balls)
            got, coords = count_points(basis, shift, radius)
            balls.append(weakref.ref(coords))
            return got, coords
        monkeypatch.setattr(cb, "count_points", count)
        shift, coords = shift_search(B, power, seed=6)
        assert len(balls) == 3 and balls[-1]() is coords


class TestCarve:
    def test_gaussian_integers_binary_code(self):
        code = carve(CodeConfig(rate=1.0, power=1.0, field=field("Qi"), seed=5))
        assert code.size == 2
        assert code.achieved_rate >= 1.0

    def test_quartic_code(self):
        code = carve(CodeConfig(rate=1.0, power=10.0,
                                field=field("F4-725"), seed=5))
        assert code.size >= 16
        assert code.achieved_rate >= 1.0

    def test_power_constraint(self):
        for name, power in [("Qi", 2.0), ("Qsqrt2", 6.0), ("F4-725", 12.0)]:
            code = carve(CodeConfig(rate=1.0, power=power,
                                    field=field(name), seed=9))
            per_sym = np.sum(np.abs(code.points) ** 2, axis=1) / code.n
            assert np.all(per_sym <= power * (1.0 + 1e-9))

    def test_points_lie_on_shifted_lattice(self):
        code = carve(CodeConfig(rate=1.0, power=6.0,
                                field=field("Qsqrt2"), seed=2))
        for p in code.points:
            u = lattice.closest_vector_coords(code.basis, p - code.shift)
            v = u @ code.basis.vectors
            assert np.max(np.abs(v - (p - code.shift))) < 1e-8

    def test_min_distance_vs_shortest_vector(self):
        code = carve(CodeConfig(rate=1.0, power=10.0,
                                field=field("F4-725"), seed=5))
        sv = lattice.shortest_vector(code.basis)
        diffs = code.points[:, None, :] - code.points[None, :, :]
        d2 = np.sum(np.abs(diffs) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        assert math.sqrt(d2.min()) >= sv - 1e-8

    def test_carve_memory_is_bounded(self):
        # the rate-2 ball holds about 65k points; the ball search itself
        # peaks below three times their coordinate array
        cfg = CodeConfig(rate=2.0, power=10.0, field=field("F8-17"), seed=5)
        tracemalloc.start()
        try:
            code = carve(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code.size > 60_000
        assert peak < 3 * code.points.nbytes

    def test_carving_is_scale_invariant(self):
        """The code at power P 10^-k holds as many points as at P: the
        lattice and the ball shrink together, and so must the ball's slack
        (an absolute slack let extra points in at k = 12)."""
        fields = nf.load_catalog()
        sizes = {(f.name, rate, seed): carve(CodeConfig(
                     rate=rate, power=10.0, field=f, seed=seed)).size
                 for f in fields for rate in (0.5, 1.0) for seed in range(3)}
        for k in (6, 12, 40):  # the widest last: an absolute slack hangs it
            for f in fields:
                for rate in (0.5, 1.0):
                    for seed in range(3):
                        code = carve(CodeConfig(rate=rate,
                                                power=10.0 * 10.0 ** -k,
                                                field=f, seed=seed))
                        assert code.size == sizes[f.name, rate, seed], \
                            (f.name, rate, seed, k)

    def test_deterministic(self):
        cfg = CodeConfig(rate=1.0, power=10.0, field=field("F4-725"), seed=5)
        c1, c2 = carve(cfg), carve(cfg)
        assert np.array_equal(c1.points, c2.points)
        assert c1.alpha == c2.alpha

    def test_rejects_nonpositive_config(self):
        with pytest.raises(ValueError):
            CodeConfig(rate=0.0, power=1.0, field=field("Qi"), seed=0)
        with pytest.raises(ValueError):
            CodeConfig(rate=1.0, power=-1.0, field=field("Qi"), seed=0)

    @pytest.mark.parametrize("rate, power", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)])
    def test_rejects_nonfinite_config(self, rate, power):
        bad, value = ("rate", rate) if rate != 1.0 else ("power", power)
        with pytest.raises(ValueError,
                           match=f"^{bad} must be finite and positive, "
                                 f"got {value}$"):
            CodeConfig(rate=rate, power=power, field=field("Qi"), seed=0)


def reference_carve(config):
    """``carve`` on the two-enumeration path: the shift found by counting
    each try's ball, then the accepted shift's ball enumerated again by
    ``points_in_ball``.  Returns (points, coords, shift, achieved_rate)."""
    f, power = config.field, config.power
    n = f.ambient_n
    basis = cb.code_lattice(
        f, math.sqrt(energy_normalization(f, config.rate, power)))
    dim, Breal = basis.rank, basis.real_matrix
    radius = math.sqrt(n * power)
    required = math.exp(lattice._ln_ball_constant(dim, n)
                        + 0.5 * dim * math.log(power)
                        - np.linalg.slogdet(Breal)[1])
    rng = np.random.Generator(np.random.Philox(
        key=np.array((config.seed % 2 ** 64, 0), dtype=np.uint64)))
    while True:
        shift = basis.to_ambient(rng.random(dim) @ Breal)
        count = len(lattice.points_in_ball(basis, -shift, radius)[0])
        if count >= required * (1.0 - 1e-9):
            break
    ured, points = lattice.points_in_ball(basis, -shift, radius)
    points += shift
    w = max(-ured.min(initial=0.0), ured.max(initial=0.0) + 1.0)
    coords = ured.astype(np.min_scalar_type(-int(w)))
    return points, coords, shift, math.log2(len(points)) / n


class TestCarveOnce:
    """A carve enumerates each shift try's ball once and keeps the accepted
    one as the code: the same code as counting the tries and enumerating
    the accepted ball again."""

    CASES = [(f.name, rate) for f in nf.load_catalog()
             for rate in (0.5, 1.0, 1.5)] + [("F8-17", 2.0)]

    @pytest.mark.pinned
    @pytest.mark.parametrize("name, rate", CASES)
    def test_equals_the_two_enumeration_path(self, name, rate, monkeypatch):
        balls, tries = [], []
        ball, count = lattice._ball, cb.count_points
        monkeypatch.setattr(lattice, "_ball",
                            lambda *args: balls.append(1) or ball(*args))
        monkeypatch.setattr(cb, "count_points",
                            lambda *args: tries.append(1) or count(*args))
        for seed in range(4):
            config = CodeConfig(rate=rate, power=10.0, field=field(name),
                                seed=seed)
            del balls[:], tries[:]
            code = carve(config)
            assert len(balls) == len(tries) >= 1
            points, coords, shift, achieved = reference_carve(config)
            assert code.points.dtype == points.dtype
            assert code.points.tobytes() == points.tobytes()
            assert code.coords.dtype == coords.dtype
            assert np.array_equal(code.coords, coords)
            assert code.shift.tobytes() == shift.tobytes()
            assert code.achieved_rate == achieved


def reference_prefixes(code):
    """``Codebook._prefixes`` before codes kept their coordinates, verbatim
    but for the magnitude bound it also returned: it recovered the prefix
    coordinates from ``points`` in floats."""
    _PREFIX_TOL = 1e-12
    red = code.basis._reduced
    k = len(red.rows)
    inv = np.linalg.inv(red.rows)
    dual = np.linalg.norm(inv, axis=0)  # |u_j| <= ||x - shift|| dual_j
    inv = inv[:, :min(cb._PREFIX_LEVELS, k)]
    pts = np.ascontiguousarray(code.points)
    shift = code.basis.to_real(code.shift)
    span = math.sqrt(code._norms[1]) + float(np.linalg.norm(shift))
    # (L, N), each coordinate's N values contiguous; the (N, dim) @
    # (dim, L) shape stalled for milliseconds in threaded BLAS
    coords = inv.T @ pts.view(pts.real.dtype).T
    coords -= (shift @ inv)[:, None]
    keys = np.rint(coords)
    coords -= keys
    np.abs(coords, out=coords)
    if np.any(np.maximum.reduce(coords, axis=1)
              > _PREFIX_TOL * span * dual[:len(keys)]):
        return None
    del coords
    new = keys[0, 1:] != keys[0, :-1]  # where a group starts
    L = 1
    while L < len(keys):
        longer = new | (keys[L, 1:] != keys[L, :-1])
        if np.count_nonzero(longer) + 1 > len(pts) / cb._PREFIX_GROUP_ROWS:
            break
        new, L = longer, L + 1
    keys = keys[:L]
    lo, hi = float(keys.min()), float(keys.max())
    base = hi - lo + 1.0
    if max(-lo, hi) * base ** L >= 2.0 ** 53:
        return None  # the mixed-radix key below would not be exact
    key = base ** np.arange(L - 1.0, -1.0, -1.0) @ keys
    if np.any(key[1:] < key[:-1]):
        return None
    starts = np.concatenate(([0], new.nonzero()[0] + 1, [len(pts)]))
    rev = lattice._reduction(red.rows[::-1], red.U[::-1])
    block = np.array(rev.R)[k - L:, k - L:]
    q = rev.Q[:, k - L:].T
    levels = block[:, ::-1] @ keys[:, starts[:-1]]
    levels += (q @ shift)[:, None]
    return cb.PrefixIndex(starts=starts, sizes=np.diff(starts),
                          levels=levels, q=q)


class TestCoords:
    """``carve`` keeps each row's integer coordinates in the code
    lattice's LLL rows, and the prefix index reads them."""

    CODES = [("Qi", 1.0), ("Qsqrt2", 1.0), ("F4-725", 2.0), ("F4-725", 4.0),
             ("F8-17", 1.0), ("F8-17", 1.5), ("F8-17", 2.0), ("Qzeta5", 2.0)]

    @pytest.mark.parametrize("name, rate", CODES)
    def test_coords_rebuild_the_points(self, name, rate):
        code = carve(CodeConfig(rate=rate, power=10.0, field=field(name),
                                seed=5))
        coords, basis = code.coords, code.basis
        # bit for bit, as carve built them
        rebuilt = basis.to_ambient(coords.astype(float)
                                   @ basis._reduced.rows) + code.shift
        assert np.array_equal(rebuilt, code.points)
        assert np.array_equal(np.lexsort(coords.T[::-1]),
                              np.arange(code.size))
        # the smallest signed dtype: every code here fits int8
        assert coords.dtype == np.int8 and coords.shape == (code.size,
                                                            basis.rank)

    @pytest.mark.parametrize("name, rate", [
        ("F8-17", 1.5), ("F8-17", 2.0), ("F4-725", 2.0), ("F4-725", 4.0),
        ("Qzeta5", 2.0)])
    def test_prefixes_equal_the_float_recovery(self, name, rate):
        code = carve(CodeConfig(rate=rate, power=10.0, field=field(name),
                                seed=5))
        got, ref = code._prefixes, reference_prefixes(code)
        for attr in ("starts", "sizes", "levels", "q"):
            assert np.array_equal(getattr(got, attr), getattr(ref, attr)), attr

    @pytest.mark.parametrize("name, rate", [
        ("F8-17", 1.5), ("F8-17", 2.0), ("F4-725", 2.0), ("F4-725", 4.0),
        ("Qzeta5", 2.0)])
    def test_levels_within_the_largest_codeword(self, name, rate):
        """Each group's levels are q x for its rows x, and q has orthonormal
        rows: no group's ||levels_g|| passes max ||x||, the bound that
        ``decoder._pruned_near`` scales its window by."""
        code = carve(CodeConfig(rate=rate, power=10.0, field=field(name),
                                seed=5))
        index = code._prefixes
        assert np.allclose(index.q @ index.q.T, np.eye(len(index.q)))
        assert np.sqrt(index.norms.max()) <= math.sqrt(code._norms[1])

    def test_coords_are_the_accepted_ball(self, monkeypatch):
        """``coords`` is the array ``lattice._ball`` returned for the
        accepted shift try, sorted in place: no second copy is made."""
        balls, ball = [], lattice._ball
        monkeypatch.setattr(lattice, "_ball",
                            lambda *args: balls.append(ball(*args))
                            or balls[-1])
        for name, rate in self.CODES:
            del balls[:]
            code = carve(CodeConfig(rate=rate, power=10.0, field=field(name),
                                    seed=5))
            assert np.shares_memory(code.coords, balls[-1])
            assert code.coords.dtype == balls[-1].dtype == np.int8

    def test_no_coords_no_index(self):
        code = carve(CodeConfig(rate=1.0, power=10.0, field=field("F4-725"),
                                seed=5))
        assert code._prefixes is not None
        bare = cb.Codebook(points=code.points, alpha=code.alpha,
                           shift=code.shift,
                           achieved_rate=code.achieved_rate, n=code.n,
                           basis=code.basis, power=code.power)
        assert bare.coords is None and bare._prefixes is None


@pytest.mark.pinned
class TestPinnedPoints:
    """Carved codes, pinned by digest.  ``points_in_ball`` multiplies the
    coordinates of the two 65k-row codes by the LLL rows in row blocks
    (``lattice.rows_product``); their digests were taken when it multiplied
    all rows at once."""

    @pytest.mark.parametrize("name,rate,digest", [
        ("F8-17", 2.0,
         "acbb5b70ede08d094cc43c08795f58800535dd917f73135db6df15900bae447d"),
        ("F4-725", 4.0,
         "57e7476934868f8a6bce3016ee5d5df230ba9fdf59d6a5a5e127353393cc1c26"),
    ])
    def test_digest(self, name, rate, digest):
        code = carve(CodeConfig(rate=rate, power=10.0, field=field(name),
                                seed=5))
        assert len(code.points) > lattice._PRODUCT_ROWS
        assert hashlib.sha256(code.points.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("name,rate,digest", [
        ("F4-725", 1.0,
         "0cdf7d417283504981473e6475b201f8fbe31056539ce9035c136348b696ab8c"),
        ("Qzeta5", 2.0,
         "fa2bd807969b423a49bf695f0b7eca7022716f82efc5d8e84cb762c636b6196f"),
    ])
    def test_small_code_digest(self, name, rate, digest):
        # a real and a complex code at seed 1: points, shift and alpha
        code = carve(CodeConfig(rate=rate, power=10.0, field=field(name),
                                seed=1))
        h = hashlib.sha256()
        for a in (code.points, code.shift, np.float64(code.alpha)):
            h.update(a.tobytes())
        assert h.hexdigest() == digest
