import dataclasses
import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcode import channel as ch
from latcode import cli
from latcode import codebook as cbmod
from latcode import decoder
from latcode import lattice
from latcode import numberfield as nf
from latcode.codebook import Codebook, CodeConfig, carve
from latcode.decoder import ml_decode, nld_decode
from latcode.lattice import COMPLEX, REAL, LatticeBasis


def make_code(name="F4-725", rate=1.0, power=10.0, seed=5):
    return carve(CodeConfig(rate=rate, power=power,
                            field=nf.catalog_field(name), seed=seed))


@pytest.fixture(scope="module")
def f8_rate2():
    return make_code("F8-17", rate=2.0)


def plain_code(points) -> Codebook:
    """A codebook holding exactly ``points``, on the integer lattice, with
    their coordinates if they are lattice points (else None)."""
    points = np.asarray(points)
    N, n = points.shape
    if np.iscomplexobj(points):
        basis = LatticeBasis(COMPLEX, np.vstack([np.eye(n), 1j * np.eye(n)]))
    else:
        basis = LatticeBasis(REAL, np.eye(n))
    rows, real = basis._reduced.rows, basis.to_real(points)
    coords = np.rint(real @ np.linalg.inv(rows)).astype(int)
    power = float(np.max(np.sum(np.abs(points) ** 2, axis=1))) / n
    return Codebook(points=points, alpha=1.0, shift=np.zeros(n, points.dtype),
                    achieved_rate=np.log2(N) / n, n=n, basis=basis,
                    power=power, coords=coords if np.array_equal(
                        coords @ rows, real) else None)


def full_scan(y, fading, codebook):
    metrics = np.sum(np.abs(y - fading * codebook.points) ** 2, axis=1)
    return int(np.argmin(metrics)), metrics.min()


def brute_force_ml(y, realization, codebook):
    best, best_m = None, np.inf
    for p in codebook.points:
        m = float(np.sum(np.abs(y - realization.fading * p) ** 2))
        if m < best_m:
            best, best_m = p, m
    return best, best_m


def nld_point(code, out):
    """The lattice point that an NLD decode decided, from its coordinates
    in the code basis."""
    return code.shift + out.coords @ code.basis.vectors


def noiseless(s, model, master_seed, trial_index):
    """The channel output y = fading * s of a seeded realization, and it."""
    r = ch.sample_realization(model, len(s), master_seed, trial_index)
    return r.fading * s, r


class TestZeroNoise:
    @pytest.mark.parametrize("model", [ch.AWGN_REAL, ch.RAYLEIGH_REAL])
    def test_both_decoders_recover(self, model):
        code = make_code()
        for t in range(20):
            idx = t % code.size
            y, r = noiseless(code.points[idx], model, 11, t)
            out = nld_decode(y, r, code, idx)
            assert out.correct and out.is_codeword
            out = ml_decode(y, r, code, idx)
            assert out.correct

    def test_complex_models(self):
        code = make_code("Qzeta5", rate=1.0, power=8.0)
        for model in [ch.AWGN_COMPLEX, ch.RAYLEIGH_COMPLEX]:
            for t in range(10):
                m = t % code.size
                y, r = noiseless(code.points[m], model, 3, t)
                assert nld_decode(y, r, code, m).correct
                assert ml_decode(y, r, code, m).correct


class TestMlOracle:
    @pytest.mark.parametrize("model", [ch.AWGN_REAL, ch.RAYLEIGH_REAL])
    def test_matches_brute_force(self, model):
        code = make_code()
        for t in range(30):
            m = t % code.size
            y, r = ch.transmit(code.points[m], model, 21, t)
            out = ml_decode(y, r, code, m)
            ref, _ = brute_force_ml(y, r, code)
            assert np.array_equal(code.points[out.row], ref)

    @pytest.mark.parametrize("name,model", [
        ("F8-17", ch.AWGN_REAL), ("F8-17", ch.RAYLEIGH_REAL),
        ("Qzeta5", ch.AWGN_COMPLEX), ("Qzeta5", ch.RAYLEIGH_COMPLEX)])
    def test_matches_full_scan_exactly(self, name, model, f8_rate2):
        code = f8_rate2 if name == "F8-17" else make_code(name, power=8.0)
        for t in range(30):
            m = (7 * t) % code.size
            y, r = ch.transmit(code.points[m], model, 23, t)
            out = ml_decode(y, r, code, m)
            idx, _ = full_scan(y, r.fading, code)
            assert out.row == idx
            assert out.correct == (idx == m)

    @staticmethod
    def decode_peak(code, model):
        """Peak traced memory of one warm ML decode."""
        y, r = ch.transmit(code.points[0], model, 29, 0)
        ml_decode(y, r, code, 0)  # fills the codebook's caches
        tracemalloc.start()
        try:
            ml_decode(y, r, code, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_memory_is_bounded(self, f8_rate2):
        peak = self.decode_peak(f8_rate2, ch.RAYLEIGH_REAL)
        # one (N, n) temporary would take code.n times as much
        assert peak < 4 * 8 * f8_rate2.size
        assert 4 < f8_rate2.n

    def test_awgn_memory_is_bounded_without_squares(self, f8_rate2):
        code = dataclasses.replace(f8_rate2)  # the same code, no caches yet
        peak = self.decode_peak(code, ch.AWGN_REAL)
        assert peak < 4 * 8 * code.size
        # the (N, n) |points|^2 is built for fading decodes only
        assert "_squares" not in code.__dict__

    def test_ml_never_beaten_by_nld_inside_codebook(self):
        # when nld lands inside the codebook its metric cannot beat ml
        code = make_code()
        for t in range(50):
            m = t % code.size
            y, r = ch.transmit(code.points[m], ch.RAYLEIGH_REAL, 31, t)
            ml = ml_decode(y, r, code, m)
            nl = nld_decode(y, r, code, m)
            ml_m, nl_m = (float(np.sum(np.abs(y - r.fading * x) ** 2))
                          for x in (code.points[ml.row], nld_point(code, nl)))
            assert nl_m <= ml_m + 1e-9
            if nl.is_codeword:
                assert ml_m <= nl_m + 1e-9


class TestMlTies:
    """Exact ties reach the rescoring window; the first index wins."""

    @pytest.fixture
    def rescored(self, monkeypatch):
        sizes = []
        exact = decoder._exact_metrics

        def spy(y, fading, rows):
            sizes.append(len(rows))
            return exact(y, fading, rows)

        monkeypatch.setattr(decoder, "_exact_metrics", spy)
        return sizes

    code = plain_code(list(itertools.product(range(-2, 3), repeat=3)))

    def test_midpoint_picks_lower_index(self, rescored):
        a, b = 62, 87  # (0, 0, 0) and (1, 0, 0)
        y = (self.code.points[a] + self.code.points[b]) / 2
        r = ch.ChannelRealization(fading=np.ones(3), noise=np.zeros(3),
                                  model=ch.AWGN_REAL)
        out = ml_decode(y, r, self.code, b)
        assert out.row == a and not out.correct
        assert full_scan(y, r.fading, self.code) == (a, 0.25)
        assert rescored == [2]

    def test_zero_coefficient_ties_every_row_in_its_coordinate(self,
                                                               rescored):
        fading = np.array([0.0, 0.8, 1.3])
        y = fading * self.code.points[88] + np.array([0.4, 0.1, -0.2])
        r = ch.ChannelRealization(fading=fading, noise=np.zeros(3),
                                  model=ch.RAYLEIGH_REAL)
        out = ml_decode(y, r, self.code, 88)  # (1, 0, 1)
        assert out.row == full_scan(y, fading, self.code)[0]
        # five rows tie; the first one wins
        assert self.code.points[out.row][0] == -2
        assert rescored == [5]
        with pytest.raises(ValueError, match="singular"):
            nld_decode(y, r, self.code, 88)

    def test_block_ties_pick_first_index(self, rescored):
        """Both ties above, in one block scored at once among untied
        trials, and a zero fade on a catalog code: the first index wins."""
        a, b = 62, 87
        fading = np.array([0.0, 0.8, 1.3])
        untied = np.array([0.9, 0.8, 1.3])
        ys = [fading * self.code.points[88] + np.array([0.4, 0.1, -0.2]),
              (self.code.points[a] + self.code.points[b]) / 2,
              untied * self.code.points[30] + 0.01]
        fadings = np.array([fading, np.ones(3), untied])
        near = decoder.ml_near_rows(np.array(ys), fadings, self.code)
        assert [len(rows) for rows in near] == [5, 2, 1]
        for y, h, rows in zip(ys, fadings, near):
            r = ch.ChannelRealization(fading=h, noise=np.zeros(3),
                                      model=ch.RAYLEIGH_REAL)
            out = ml_decode(y, r, self.code, 0, near=rows)
            assert out.row == full_scan(y, h, self.code)[0]
        assert rescored == [5, 2]  # the untied trial is not rescored
        code = make_code()
        h = np.array([1.1, 0.0, 0.7, 0.9])
        for i in range(code.size):
            y = h * code.points[i] + 0.05
            r = ch.ChannelRealization(fading=h, noise=np.zeros(4),
                                      model=ch.RAYLEIGH_REAL)
            rows, = decoder.ml_near_rows(y[None], h[None], code)
            out = ml_decode(y, r, code, i, near=rows)
            idx, _ = full_scan(y, h, code)
            assert out.correct == (idx == i)
            assert out.row == idx


class TestMlProperty:
    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 300),
           n=st.integers(1, 6), cplx=st.booleans(),
           scale=st.floats(-3.0, 3.0), integral=st.booleans(),
           midpoint=st.booleans(), fades=st.booleans(),
           kinds=st.lists(st.sampled_from(["rand", "tiny", "zero"]),
                          min_size=6, max_size=6))
    def test_equals_full_scan(self, seed, size, n, cplx, scale, integral,
                              midpoint, fades, kinds):
        rng = np.random.default_rng(seed)

        def draw(shape):
            x = (rng.integers(-3, 4, (2,) + shape) if integral
                 else rng.standard_normal((2,) + shape))
            return 10.0 ** scale * (x[0] + 1j * x[1] if cplx
                                    else x[0].astype(float))

        code = plain_code(draw((size, n)))
        fading = rng.rayleigh(size=n) * (np.exp(1j * rng.uniform(0, 7, n))
                                         if cplx else 1.0)
        fading = np.where(np.array(kinds[:n]) == "tiny", 1e-8 * fading,
                          fading)
        fading = np.where(np.array(kinds[:n]) == "zero", 0.0, fading)
        if not fades:  # an unfaded realization, as the channel draws it
            fading = np.ones(n, dtype=complex if cplx else float)
        a, b = rng.integers(0, size, 2)
        if midpoint:
            y = fading * (code.points[a] + code.points[b]) / 2
        else:
            y = fading * code.points[a] + draw((n,))
        r = ch.ChannelRealization(
            fading=fading, noise=np.zeros(n),
            model=[[ch.AWGN_REAL, ch.AWGN_COMPLEX],
                   [ch.RAYLEIGH_REAL, ch.RAYLEIGH_COMPLEX]][fades][cplx])
        out = ml_decode(y, r, code, a)
        ref, _ = brute_force_ml(y, r, code)
        assert np.array_equal(code.points[out.row], ref)
        assert out.row == full_scan(y, fading, code)[0]


@functools.lru_cache(maxsize=None)
def catalog_code(name, rate, seed):
    return make_code(name, rate=rate, seed=seed)


def force_pruned(mp):
    """Patch every code onto the pruned path; returns the list of calls that
    reached ``_pruned_near``."""
    calls = []
    near = decoder._pruned_near

    def spy(y, codebook):
        calls.append(codebook._prefixes)
        return near(y, codebook)

    mp.setattr(decoder, "_ML_PRUNE_BYTES", 0)
    mp.setattr(decoder, "_pruned_near", spy)
    return calls


def spy_fallbacks(mp):
    """Record the trial count of every ``_score_block`` call: on the pruned
    path, one for each trial that falls back to scoring every row."""
    blocks, real = [], decoder._score_block
    mp.setattr(decoder, "_score_block", lambda y, fading, code: blocks.append(
        len(y)) or real(y, fading, code))
    return blocks


def unfaded(code):
    model = ch.AWGN_COMPLEX if np.iscomplexobj(code.points) else ch.AWGN_REAL
    return ch.ChannelRealization(fading=np.ones(code.n), noise=np.zeros(code.n),
                                 model=model)


class TestMlPruned:
    """The pruned scoring of large unfaded codes (``Codebook._prefixes``,
    ``decoder._pruned_near``), forced onto every code size by patching the
    size thresholds: the decision is a full scan's, in any row order, and
    every other code or channel falls back to scoring every row
    (``_score_block``)."""

    CODES = [(name, rate, seed)
             for name in ("F4-725", "F8-17", "Qzeta5", "Qi")
             for rate in (0.5, 1.0, 1.5, 2.0)
             for seed in ((5,) if (name, rate) == ("F8-17", 2.0)
                          else (0, 1, 2))]

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(CODES), group_rows=st.sampled_from([1, 4, 32]),
           kind=st.sampled_from(["inside", "on", "outside", "midpoint",
                                 "zero"]),
           order=st.sampled_from(["sorted", "reversed", "permuted"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_full_scan(self, key, group_rows, kind, order, seed):
        rng = np.random.default_rng(seed)
        code = catalog_code(*key)
        if order != "sorted":  # a group is a run of equal prefixes
            rows = (np.arange(code.size)[::-1] if order == "reversed"
                    else rng.permutation(code.size))
            code = dataclasses.replace(code, points=code.points[rows],
                                       coords=code.coords[rows])
        a, b = rng.integers(0, code.size, 2)
        n, radius = code.n, np.sqrt(code.n * code.power)

        def direction():
            d = rng.standard_normal(n) + (1j * rng.standard_normal(n)
                                          if np.iscomplexobj(code.points)
                                          else 0.0)
            return d / np.linalg.norm(d)

        y = {"inside": lambda: code.points[a] + 10.0 ** rng.uniform(-3, 0)
             * radius * direction(),
             "on": lambda: radius * direction(),
             "outside": lambda: 10.0 ** rng.uniform(0.2, 3) * radius
             * direction(),
             "midpoint": lambda: (code.points[a] + code.points[b]) / 2,
             "zero": lambda: code.points[a].copy()}[kind]()
        with pytest.MonkeyPatch.context() as mp:
            calls = force_pruned(mp)
            mp.setattr(cbmod, "_PREFIX_GROUP_ROWS", group_rows)
            code = dataclasses.replace(code)  # a fresh index for this L
            r = unfaded(code)
            out = ml_decode(y, r, code, a)
            assert code._prefixes is not None and len(calls) == 1
        assert out.row == full_scan(y, r.fading, code)[0]

    @settings(max_examples=200, deadline=None)
    @given(key=st.sampled_from(CODES), group_rows=st.sampled_from([1, 4, 32]),
           scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_group_bounds_below_exact_metrics(self, key, group_rows, scale,
                                              seed):
        """Each group's bound, expanded as ``_pruned_near`` takes it from
        one product, is at most the least exact metric of the group's rows,
        plus the window on M' = (||y|| + max||x||)^2 over the code's rows x;
        the pass that reads it decides as a full scan."""
        rng = np.random.default_rng(seed)
        code = catalog_code(*key)
        radius = np.sqrt(code.n * code.power)
        y = rng.standard_normal(code.n) + (
            1j * rng.standard_normal(code.n) if np.iscomplexobj(code.points)
            else 0.0)
        y *= 10.0 ** scale * radius / np.linalg.norm(y)
        y += code.points[rng.integers(code.size)] * rng.integers(0, 2)
        with pytest.MonkeyPatch.context() as mp:
            calls = force_pruned(mp)
            mp.setattr(cbmod, "_PREFIX_GROUP_ROWS", group_rows)
            code = dataclasses.replace(code)  # a fresh index for this L
            index = code._prefixes
            r = unfaded(code)
            out = ml_decode(y, r, code, 0)
            assert len(calls) == 1
        assert out.row == full_scan(y, r.fading, code)[0]
        qw = index.q @ code.basis.to_real(-2.0 * y)
        bound = qw @ index.levels + index.norms + 0.25 * float(qw @ qw)
        metrics = np.sum(np.abs(y - code.points) ** 2, axis=1)
        least = np.minimum.reduceat(metrics, index.starts[:-1])
        m_prime = (np.linalg.norm(y) + np.sqrt(code._norms[1])) ** 2
        assert np.all(bound <= least + decoder._ML_WINDOW * m_prime)

    @pytest.mark.parametrize("seed", [1, 5])
    def test_rate_2_decisions_equal_full_scan(self, seed, monkeypatch):
        """Unpatched, the rate-2 F8-17 code is pruned by its size.  Seeded
        AWGN trials at 6, 10 and 14 dB, and targets 2-100 times the ball's
        radius outside it: every trial's near rows hold the full scan's
        winner, and every decision is that winner."""
        rng = np.random.default_rng(seed)
        calls, real = [], decoder._pruned_near
        monkeypatch.setattr(decoder, "_pruned_near", lambda y, code: calls
                            .append(y) or real(y, code))
        blocks = spy_fallbacks(monkeypatch)
        for snr_db in (6.0, 10.0, 14.0):
            code = make_code("F8-17", rate=2.0, power=10.0 ** (snr_db / 10.0),
                             seed=seed)
            assert code.points.nbytes >= decoder._ML_PRUNE_BYTES
            radius = np.sqrt(code.n * code.power)
            sent = rng.integers(0, code.size, 60)
            ys = [ch.transmit(code.points[m], ch.AWGN_REAL, seed, t)[0]
                  for t, m in enumerate(sent)]
            for _ in range(20):
                d = rng.standard_normal(code.n)
                ys.append(10.0 ** rng.uniform(np.log10(2.0), 2.0) * radius
                          * d / np.linalg.norm(d))
            calls.clear()
            blocks.clear()
            near = decoder.ml_near_rows(np.array(ys), None, code)
            assert len(calls) == len(ys) and len(blocks) < len(ys) / 2
            r = unfaded(code)
            for y, rows in zip(ys, near):
                want = full_scan(y, r.fading, code)[0]
                assert want in rows
                assert ml_decode(y, r, code, 0, near=rows).row == want
                assert ml_decode(y, r, code, 0).row == want

    def test_prunes_the_rate_2_code(self, f8_rate2, monkeypatch):
        """On the F8-17 rate-2 code the bound keeps a small share of the
        rows, in a few contiguous runs, and all of them on a noiseless
        target are in the transmitted point's group.  A decode takes two
        products (``lattice.rows_product``), the best group's and the
        scored rows': the kept ones, or every row if it falls back."""
        index, kept, products = f8_rate2._prefixes, [], []
        assert index.levels.shape[0] >= 3
        real = lattice.rows_product
        monkeypatch.setattr(lattice, "rows_product", lambda a, b: products
                            .append(len(a)) or real(a, b))
        for t in range(40):
            m = (7919 * t) % f8_rate2.size
            y, r = ch.transmit(f8_rate2.points[m], ch.AWGN_REAL, 61, t)
            products.clear()
            assert ml_decode(y, r, f8_rate2, m).row == \
                full_scan(y, r.fading, f8_rate2)[0]
            assert len(products) == 2
            kept.append(products[-1])
        assert np.median(kept) < f8_rate2.size / 20

    @pytest.mark.parametrize("case", ["off_lattice", "permuted", "fading"])
    def test_falls_back_to_near_best(self, case, monkeypatch):
        """A code without coordinates or a faded channel scores every row
        without pruning.  A permuted code is pruned, but its groups are
        short runs, so ``_pruned_near`` often keeps more than half the rows
        and falls back to scoring them all (``_score_block``).  Every
        decision is a full scan's."""
        calls = force_pruned(monkeypatch)
        blocks = spy_fallbacks(monkeypatch)
        rng = np.random.default_rng(3)
        code = make_code("F4-725", rate=2.0)
        r = unfaded(code)
        if case == "off_lattice":
            code = plain_code(rng.standard_normal((300, 4)))
        elif case == "permuted":
            order = rng.permutation(code.size)
            code = dataclasses.replace(code, points=code.points[order],
                                       coords=code.coords[order])
        else:
            r = ch.ChannelRealization(fading=rng.rayleigh(size=4),
                                      noise=np.zeros(4),
                                      model=ch.RAYLEIGH_REAL)
        for t in range(10):
            y = r.fading * code.points[t] + 0.3 * rng.standard_normal(4)
            out = ml_decode(y, r, code, t)
            assert out.row == full_scan(y, r.fading, code)[0]
        if case == "permuted":
            assert len(calls) == 10 and calls[0] is not None
            assert 0 < len(blocks) <= 10 and set(blocks) == {1}
        else:
            assert not calls and blocks == [1] * 10
        if case == "fading":
            assert "_prefixes" not in code.__dict__  # never built
        elif case == "off_lattice":
            assert code._prefixes is None

    def test_large_awgn_code_stays_pruned(self, f8_rate2, monkeypatch):
        """A simulation of the 65k-row code on AWGN scores no block:
        ``ml_near_rows`` prunes each trial's rows in one pass of its own,
        which scores only the pruned rows unless it falls back to a block
        of that one trial."""
        calls = force_pruned(monkeypatch)
        monkeypatch.setattr(decoder, "_ML_PRUNE_BYTES", 1 << 20)
        blocks = spy_fallbacks(monkeypatch)
        assert f8_rate2.points.nbytes >= decoder._ML_PRUNE_BYTES
        near = decoder.ml_near_rows(np.zeros((3, 8)), None, f8_rate2)
        assert len(near) == 3
        assert all(isinstance(rows, np.ndarray) and len(rows) for rows in near)
        assert len(calls) == 3 and set(blocks) <= {1}
        calls.clear()
        blocks.clear()
        errors = cli._simulate_chunk(f8_rate2, ch.AWGN_REAL, 5, 0, 20, "ml")
        assert len(calls) == 20 and errors[0] == 0
        assert len(blocks) <= 2 and set(blocks) <= {1}

    def test_block_rows_equal_single_decodes(self, f8_rate2, monkeypatch):
        """On the pruned rate-2 code, ``ml_near_rows`` returns an index
        array for every trial of a block, the rows that ``ml_decode`` alone
        scores for that trial, and the decisions agree."""
        sent = [(7919 * t) % f8_rate2.size for t in range(5)]
        block = [ch.transmit(f8_rate2.points[m], ch.AWGN_REAL, 13, t)
                 for t, m in enumerate(sent)]
        near = decoder.ml_near_rows(np.array([y for y, _ in block]), None,
                                    f8_rate2)
        assert len(near) == len(block)
        alone, real = [], decoder.ml_near_rows
        monkeypatch.setattr(decoder, "ml_near_rows",
                            lambda *a: alone.extend(real(*a)) or alone[-1:])
        for m, (y, r), rows in zip(sent, block, near):
            assert isinstance(rows, np.ndarray)
            out = ml_decode(y, r, f8_rate2, m)
            assert np.array_equal(rows, alone[-1])
            given = ml_decode(y, r, f8_rate2, m, near=rows)
            assert (given.correct, given.row) == (out.correct, out.row)
        assert len(alone) == len(block)

    def test_small_code_builds_no_index(self):
        code = make_code()  # 16 rows, far below _ML_PRUNE_BYTES
        r = unfaded(code)
        assert ml_decode(code.points[3] + 0.1, r, code, 3).correct
        assert "_prefixes" not in code.__dict__

    def test_index_build_memory_is_bounded(self, f8_rate2):
        code = dataclasses.replace(f8_rate2)  # the same code, no caches yet
        code._norms  # carve builds it
        tracemalloc.start()
        try:
            index = code._prefixes
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert index is not None
        # no (N, n) array: the mixed-radix key's (L, N) float cast of the
        # stored integer prefixes, and a few length-N rows
        assert peak <= (8 * cbmod._PREFIX_LEVELS + 16) * code.size + (1 << 16)


class TestScoreBytes:
    """No score matrix passes ``_ML_SCORE_BYTES``, except the one row of a
    single trial on a code too large for the bound."""

    @pytest.mark.parametrize("model", [ch.AWGN_REAL, ch.RAYLEIGH_REAL])
    def test_score_matrices_within_the_bound(self, model, f8_rate2,
                                             monkeypatch):
        codes = (make_code("F8-17"), make_code("F8-17", rate=1.5), f8_rate2)
        shapes, rows_scored, passes = [], [], []
        real, product, one_pass = (decoder._over_rows, lattice.rows_product,
                                   decoder._pruned_near)

        def spy(w, rows):
            out = real(w, rows)
            shapes.append((out.shape, out.nbytes))
            return out

        def product_spy(a, b):
            out = product(a, b)
            rows_scored.append(out.shape)
            return out

        monkeypatch.setattr(decoder, "_over_rows", spy)
        monkeypatch.setattr(lattice, "rows_product", product_spy)
        monkeypatch.setattr(decoder, "_pruned_near", lambda y, code: passes
                            .append(y.shape) or one_pass(y, code))
        for code in codes:
            shapes.clear()
            rows_scored.clear()
            passes.clear()
            cli._simulate_chunk(code, model, 3, 0, 70, "ml")
            if passes:  # one pruning pass per trial, of one trial's row
                assert not model.fading
                assert code.points.nbytes >= decoder._ML_PRUNE_BYTES
                assert passes == [(code.n,)] * 70
                assert all(len(s) == 1 and s[0] <= code.size
                           for s in rows_scored)
            else:  # one product per trial and sum (fading takes two)
                assert sum(t for (t, _), _ in shapes) == \
                    70 * (2 if model.fading else 1)
            for (trials, rows), nbytes in shapes:
                assert nbytes <= decoder._ML_SCORE_BYTES or trials == 1
                assert rows <= code.size
            if code.size * 8 <= decoder._ML_SCORE_BYTES:
                assert max(n for _, n in shapes) <= decoder._ML_SCORE_BYTES
                assert max(t for (t, _), _ in shapes) > 1
            elif model.fading:
                assert {s for s, _ in shapes} == {(1, code.size)}
        assert code is f8_rate2 and (not passes) == model.fading


class TestDominance:
    @pytest.mark.parametrize("model", [ch.AWGN_REAL, ch.RAYLEIGH_REAL])
    def test_nld_correct_implies_ml_correct(self, model):
        # an nld success lands on the transmitted point, which then also has
        # the best finite-codebook metric
        code = make_code()
        nld_ok = ml_ok = 0
        for t in range(300):
            m = t % code.size
            y, r = ch.transmit(code.points[m], model, 41, t)
            nl = nld_decode(y, r, code, m)
            ml = ml_decode(y, r, code, m)
            nld_ok += nl.correct
            ml_ok += ml.correct
            if nl.correct:
                assert ml.correct
        assert ml_ok >= nld_ok


class TestFadingHandling:
    def test_tiny_fading_is_stable(self):
        for name, model, depth in [
                ("F4-725", ch.RAYLEIGH_REAL, 1e-6),
                ("F4-725", ch.RAYLEIGH_REAL, 1e-8),
                ("F8-17", ch.RAYLEIGH_REAL, 1e-8),
                # the interleaved re/im rows of a complex code, faded
                ("Qzeta5", ch.RAYLEIGH_COMPLEX, 1e-8 * np.exp(0.7j))]:
            code = make_code(name)
            s = code.points[0]
            fading = np.ones(code.n, dtype=np.asarray(depth).dtype)
            fading[0] = depth
            r = ch.ChannelRealization(fading=fading, noise=np.zeros(code.n),
                                      model=model)
            y = fading * s
            out = nld_decode(y, r, code, 0)
            assert out.correct
            x = nld_point(code, out)
            assert np.all(np.isfinite(x))
            assert np.sum(np.abs(y - fading * x) ** 2) < 1e-12

    def test_zero_fading_raises(self):
        code = make_code()
        s = code.points[0]
        fading = np.array([0.0, 1.0, 1.0, 1.0])
        r = ch.ChannelRealization(fading=fading, noise=np.zeros(4),
                                  model=ch.RAYLEIGH_REAL)
        with pytest.raises(ValueError, match="singular"):
            nld_decode(fading * s, r, code, 0)

    def test_awgn_reduces_to_plain_lattice_decoding(self):
        code = make_code()
        y, r = ch.transmit(code.points[1], ch.AWGN_REAL, 51, 0)
        out = nld_decode(y, r, code, 1)
        # with unit fading the faded lattice is the code lattice itself
        from latcode import lattice
        u = lattice.closest_vector_coords(code.basis,
                                          np.asarray(y) - code.shift)
        assert np.array_equal(out.coords, u)


class TestCodebookMembership:
    def test_norm_test_agrees_with_codebook_scan(self):
        """``is_codeword`` tests the decoded point's norm against the carving
        ball; a scan of every codeword gives the same answer."""
        off = 0
        for name, model in [("F4-725", ch.AWGN_REAL),
                            ("F4-725", ch.RAYLEIGH_REAL),
                            ("F8-17", ch.RAYLEIGH_REAL),
                            ("Qzeta5", ch.AWGN_COMPLEX),
                            ("Qzeta5", ch.RAYLEIGH_COMPLEX)]:
            for snr_db in (3.0, 9.0, 15.0):
                code = make_code(name, power=10.0 ** (snr_db / 10.0))
                for t in range(100):
                    m = t % code.size
                    y, r = ch.transmit(code.points[m], model, 17, t)
                    out = nld_decode(y, r, code, m)
                    gap = np.max(np.abs(code.points - nld_point(code, out)),
                                 axis=1)
                    in_scan = bool(gap.min() <= 1e-8)
                    assert out.is_codeword == in_scan
                    off += not in_scan
        assert off > 200
