"""The one Schnorr-Euchner kernel: identical results to the closest-point and
ball kernels it replaced, agreement with brute force, invariance under a
change of basis, and the rank cap and node budget."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_lll import code_bases, exact_det

from latcode import channel as ch
from latcode import lattice
from latcode import numberfield as nf
from latcode.codebook import energy_normalization
from latcode.lattice import REAL, EnumerationCapError, LatticeBasis

_TIE_EPS = 1e-12  # the old kernel's tie window


# The two kernels the walk replaced, kept verbatim as references that it
# must match exactly.

def reference_se_closest(Rl, t, exclude_zero=False):
    """Schnorr-Euchner search for argmin_u ||Rl u - t|| over integer u.

    Ties within an absolute 1e-12 in squared distance break to the
    lexicographically smaller coordinate vector u in the basis of ``Rl``,
    which for the callers here is the LLL-reduced basis, not the caller's.
    The window does not scale with the lattice: once squared distances are
    large enough that 1e-12 is below their float resolution, near-ties that
    differ only by rounding are settled by that rounding, not by the
    coordinate order.
    """
    k = len(t)
    tl = [float(v) for v in t]
    best = {"u": None, "d2": math.inf}
    u = [0] * k

    def rec(level, y, acc):
        rii = Rl[level][level]
        ci = y[level] / rii
        u0 = math.floor(ci + 0.5)
        delta = 1 if ci >= u0 else -1
        step = 0
        while True:
            if step == 0:
                cand = u0
            elif step % 2 == 1:
                cand = u0 + delta * ((step + 1) // 2)
            else:
                cand = u0 - delta * (step // 2)
            step += 1
            diff = y[level] - cand * rii
            new_acc = acc + diff * diff
            if new_acc > best["d2"] + _TIE_EPS:
                # zig-zag ordering: every later candidate is at least this far
                break
            u[level] = cand
            if level == 0:
                if exclude_zero and all(v == 0 for v in u):
                    continue
                if new_acc < best["d2"] - _TIE_EPS:
                    best["u"] = list(u)
                    best["d2"] = new_acc
                elif best["u"] is not None and new_acc <= best["d2"] + _TIE_EPS:
                    if list(u) < best["u"]:
                        best["u"] = list(u)
                        best["d2"] = min(best["d2"], new_acc)
                elif best["u"] is None:
                    best["u"] = list(u)
                    best["d2"] = new_acc
            else:
                ynext = [y[j] - cand * Rl[j][level] for j in range(level)]
                rec(level - 1, ynext, new_acc)

    rec(k - 1, tl, 0.0)
    return best["u"], best["d2"]


def reference_enum_ball(Rl, t, radius):
    """All integer u with ||Rl u - t|| <= radius, in deterministic DFS order."""
    k = len(t)
    tl = [float(v) for v in t]
    r2 = radius * radius * (1.0 + 1e-12) + 1e-12
    out = []
    u = [0] * k

    def rec(level, y, acc):
        rii = Rl[level][level]
        rem = r2 - acc
        if rem < 0.0:
            return
        ci = y[level] / rii
        half = math.sqrt(rem) / abs(rii)
        lo = math.ceil(ci - half)
        hi = math.floor(ci + half)
        for cand in range(lo, hi + 1):
            diff = y[level] - cand * rii
            new_acc = acc + diff * diff
            if new_acc > r2:
                continue
            u[level] = cand
            if level == 0:
                out.append(list(u))
            else:
                ynext = [y[j] - cand * Rl[j][level] for j in range(level)]
                rec(level - 1, ynext, new_acc)

    rec(k - 1, tl, 0.0)
    return out


def reduced_target(basis, center):
    _, _, Q, R = basis._reduced
    return R, Q.T @ basis.to_real(np.asarray(center))


def assert_same_closest(basis, target):
    R, t = reduced_target(basis, target)
    assert lattice._nearest(basis, target) == reference_se_closest(R, t)


def assert_same_shortest(basis):
    R, _ = reduced_target(basis, np.zeros(basis.n))
    assert (lattice._nearest(basis, np.zeros(basis.n), exclude_zero=True)
            == reference_se_closest(R, [0.0] * basis.rank, exclude_zero=True))


def assert_same_ball(basis, center, radius):
    R, t = reduced_target(basis, center)
    ref = sorted(reference_enum_ball(R, t, radius))
    assert lattice.count_in_ball(basis, center, radius) == len(ref)
    coords, vecs = lattice.points_in_ball(basis, center, radius)
    U = basis._reduced[1]
    assert np.array_equal(coords, np.array(ref, dtype=np.int64)
                          .reshape(-1, basis.rank) @ U)
    return len(ref)


def assert_same_search(basis, rng, targets=3):
    """Closest point to a few random targets, the shortest vector, and the
    ball of twice the minimum around a random center."""
    B = basis.real_matrix
    for _ in range(targets):
        x = 3.0 * rng.standard_normal(basis.rank)
        assert_same_closest(basis, basis.to_ambient(x @ B))
    assert_same_shortest(basis)
    _, sv = lattice.shortest_vector(basis)
    center = basis.to_ambient(rng.random(basis.rank) @ B)
    return assert_same_ball(basis, center, 2.0 * sv)


class TestMatchesOldKernels:
    def test_catalog_and_code_lattices(self):
        rng = np.random.default_rng(11)
        counts = [assert_same_search(basis, rng) for _, basis in code_bases()]
        assert len(counts) > 100 and sum(counts) > 1000

    def test_carving_balls(self):
        # the balls carve and shift search enumerate, about 2^(8 rate) points
        f = nf.catalog_field("F8-17")
        rng = np.random.default_rng(2)
        for rate in (1.0, 1.5):
            basis = nf.embedding_matrix(f).scaled(
                math.sqrt(energy_normalization(f, rate, 10.0)))
            for _ in range(3):
                shift = rng.random(basis.rank) @ basis.real_matrix
                count = assert_same_ball(basis, -shift, math.sqrt(80.0))
                assert count > 2 ** (8 * rate) / 2

    def test_rayleigh_faded_code_lattices(self):
        rng = np.random.default_rng(12)
        for f, basis in code_bases():
            model = ch.RAYLEIGH_REAL if f.totally_real else ch.RAYLEIGH_COMPLEX
            for trial in range(3):
                fading = ch.sample_realization(model, basis.n, 7, trial).fading
                faded = LatticeBasis(basis.ambient, basis.vectors * fading)
                assert_same_search(faded, rng, targets=2)

    def test_random_bases(self):
        rng = np.random.default_rng(13)
        for rank in range(2, 9):
            for _ in range(10):
                B = rng.standard_normal((rank, rank))
                B *= np.exp(rng.standard_normal(rank))  # uneven columns
                assert_same_search(LatticeBasis(REAL, B), rng)
                M = rng.integers(-6, 7, (rank, rank))
                if exact_det(M) != 0:
                    assert_same_search(LatticeBasis(REAL, M), rng)
                    # half-integer targets: exact ties in distance; and a
                    # sphere through lattice points
                    basis = LatticeBasis(REAL, M)
                    assert_same_closest(basis, 0.5 * rng.integers(-9, 10, rank))
                    assert_same_ball(basis, np.zeros(rank),
                                     float(np.linalg.norm(M[0])))


# ---------------------------------------------------------------- brute force


def box_points(basis, center, radius):
    """Every lattice point whose LLL coordinates lie in the box that holds the
    ball B(center, radius): (coordinates in the caller's basis, squared
    distances)."""
    Bred, U, _, _ = basis._reduced
    inv = np.linalg.inv(Bred)
    mid = basis.to_real(np.asarray(center)) @ inv
    half = radius * np.linalg.norm(inv, axis=0) * (1 + 1e-9) + 1e-9
    ranges = [range(math.ceil(m - h), math.floor(m + h) + 1)
              for m, h in zip(mid, half)]
    assume(math.prod(len(r) for r in ranges) <= 200_000)
    ured = np.array(list(itertools.product(*ranges)), dtype=np.int64)
    ured = ured.reshape(-1, basis.rank)
    d2 = np.sum((ured @ Bred - basis.to_real(np.asarray(center))) ** 2, axis=1)
    return ured @ U, d2


def ball_coords(basis, center, radius):
    coords, _ = lattice.points_in_ball(basis, center, radius)
    return {tuple(c) for c in coords}


def assert_ball_matches(got, coords, d2, r2):
    """``got`` holds every point clearly inside and none clearly outside;
    points within float error of the sphere may fall either way."""
    inside = {tuple(c) for c, d in zip(coords, d2) if d <= r2 * (1 - 1e-9)}
    near = {tuple(c) for c, d in zip(coords, d2) if d <= r2 * (1 + 1e-9)}
    assert inside <= got <= near


@st.composite
def bases(draw):
    """Integer rows times positive column scales, rank 2 to 6."""
    rank = draw(st.integers(2, 6))
    M = draw(arrays(np.int64, (rank, rank), elements=st.integers(-5, 5)))
    assume(exact_det(M) != 0)
    scale = draw(arrays(np.float64, rank, elements=st.floats(0.1, 10.0)))
    return LatticeBasis(REAL, M * scale)


@st.composite
def unimodular(draw, rank):
    """A product of elementary integer row operations."""
    U = np.eye(rank, dtype=np.int64)
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.permutations(range(rank)))[:2]
        U[i] += draw(st.integers(-3, 3)) * U[j]
    return U


def unit_box(rank):
    return st.lists(st.floats(-1.0, 1.0), min_size=rank, max_size=rank)


class TestAgainstBruteForce:
    @settings(max_examples=100, deadline=None)
    @given(bases(), st.data())
    def test_closest(self, basis, data):
        x = np.array(data.draw(unit_box(basis.rank))) * 4.0
        target = x @ basis.real_matrix
        vec, coords = lattice.closest_vector_coords(basis, target)
        d = float(np.linalg.norm(vec - target))
        assert np.allclose(coords @ basis.real_matrix, vec)
        _, d2 = box_points(basis, target, d * (1 + 1e-9) + 1e-12)
        assert d * d == pytest.approx(d2.min(), rel=1e-9, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(bases())
    def test_shortest(self, basis):
        vec, sv = lattice.shortest_vector(basis)
        assert sv == pytest.approx(np.linalg.norm(vec), rel=1e-12)
        coords, d2 = box_points(basis, np.zeros(basis.n), sv * (1 + 1e-9))
        d2 = d2[np.any(coords != 0, axis=1)]
        assert sv * sv == pytest.approx(d2.min(), rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(bases(), st.data(), st.floats(0.5, 2.5))
    def test_ball(self, basis, data, factor):
        center = np.array(data.draw(unit_box(basis.rank))) @ basis.real_matrix
        radius = factor * lattice.shortest_vector(basis)[1]
        coords, d2 = box_points(basis, center, radius)
        assert_ball_matches(ball_coords(basis, center, radius), coords, d2,
                            radius * radius)


class TestChangeOfBasis:
    @settings(max_examples=100, deadline=None)
    @given(bases(), st.data())
    def test_results_unchanged(self, basis, data):
        U = data.draw(unimodular(basis.rank))
        other = LatticeBasis(REAL, U @ basis.real_matrix)
        x = np.array(data.draw(unit_box(basis.rank))) * 4.0
        target = x @ basis.real_matrix
        v1, _ = lattice.closest_vector_coords(basis, target)
        v2, _ = lattice.closest_vector_coords(other, target)
        assert np.linalg.norm(v2 - target) == pytest.approx(
            np.linalg.norm(v1 - target), rel=1e-9, abs=1e-12)
        _, sv = lattice.shortest_vector(basis)
        assert lattice.shortest_vector(other)[1] == pytest.approx(sv, rel=1e-9)
        # the same ball, its points mapped back to the first basis
        radius = 2.0 * sv
        coords, d2 = box_points(basis, target, radius)
        back = {tuple(c @ U) for c in ball_coords(other, target, radius)}
        assert_ball_matches(back, coords, d2, radius * radius)


# ---------------------------------------------------------------- faded hint


def code_lattice(name):
    """The rate-1, P = 10 code lattice that ``carve`` builds for ``name``."""
    f = nf.catalog_field(name)
    return nf.embedding_matrix(f).scaled(
        math.sqrt(energy_normalization(f, 1.0, 10.0)))


def single_fades(n, depths=(1e-2, 1e-3, 1e-5, 1e-8)):
    for depth in depths:
        for col in range(n):
            fading = np.ones(n)
            fading[col] = depth
            yield fading


def assert_hint_exact(basis, fadings, rng, targets=3):
    """A hinted faded basis and a plain one built from the same faded rows
    give the same closest point and coordinates, on noisy faded lattice points
    and on uniform targets.  Each decode gets a fresh hinted basis, as in
    NLD; returns how many of them ran ``_lll`` (the fallback) and how many
    decodes there were.  The parent must already be reduced."""
    lll_calls = []
    real_lll = lattice._lll
    decodes = 0
    for fading in fadings:
        plain = LatticeBasis(basis.ambient, basis.vectors * fading)
        B = plain.real_matrix
        sigma = 0.3 * float(np.min(np.linalg.norm(B, axis=1)))
        for k in range(targets):
            if k % 2 == 0:
                x = rng.integers(-3, 4, basis.rank) @ B
                x = x + sigma * rng.standard_normal(basis.rank)
            else:
                x = 3.0 * rng.standard_normal(basis.rank) @ B
            target = plain.to_ambient(x)
            hinted = basis.faded(fading)
            lattice._lll = lambda M: lll_calls.append(1) or real_lll(M)
            try:
                vec, got = lattice.closest_vector_coords(hinted, target)
            finally:
                lattice._lll = real_lll
            want_vec, want = lattice.closest_vector_coords(plain, target)
            assert np.array_equal(got, want)
            scale = float(np.max(np.abs(want_vec))) + 1.0
            assert np.allclose(vec, want_vec, rtol=0.0, atol=1e-12 * scale)
            decodes += 1
    return len(lll_calls), decodes


class TestFadedHint:
    """``LatticeBasis.faded`` searches the parent's LLL rows, faded, within
    ``_FADED_NODES`` nodes and falls back to its own LLL: the coordinates
    are those of the plain faded basis either way."""

    @pytest.mark.parametrize("name, model", [
        ("F4-725", ch.RAYLEIGH_REAL), ("F8-17", ch.RAYLEIGH_REAL),
        ("Qzeta5", ch.RAYLEIGH_COMPLEX)])
    def test_seeded_rayleigh_fades(self, name, model):
        basis = code_lattice(name)
        basis._reduced
        fadings = [ch.sample_realization(model, basis.n, 7, t).fading
                   for t in range(40)]
        fallbacks, decodes = assert_hint_exact(
            basis, fadings, np.random.default_rng(21))
        assert decodes == 120
        # typical fades never leave the fast path
        assert fallbacks == 0

    @pytest.mark.parametrize("name", ["F4-725", "F8-17"])
    def test_single_coordinate_deep_fades(self, name):
        basis = code_lattice(name)
        basis._reduced
        fallbacks, decodes = assert_hint_exact(
            basis, single_fades(basis.n), np.random.default_rng(22))
        # deep fades trip the budget and take the fallback, not all of them
        assert 0 < fallbacks < decodes

    def test_complex_deep_fades(self):
        basis = code_lattice("Qzeta5")
        basis._reduced
        phase = np.exp(0.7j)
        fadings = [f * phase for f in single_fades(basis.n)]
        fallbacks, decodes = assert_hint_exact(
            basis, fadings, np.random.default_rng(23))
        assert fallbacks > 0

    def test_other_searches_ignore_the_hint(self):
        basis = code_lattice("F4-725")
        fading = ch.sample_realization(ch.RAYLEIGH_REAL, 4, 3, 1).fading
        hinted = basis.faded(fading)
        plain = LatticeBasis(basis.ambient, basis.vectors * fading)
        _, sv = lattice.shortest_vector(plain)
        assert lattice.shortest_vector(hinted)[1] == sv
        for got, want in zip(
                lattice.points_in_ball(hinted, np.zeros(4), 2.0 * sv),
                lattice.points_in_ball(plain, np.zeros(4), 2.0 * sv)):
            assert np.array_equal(got, want)
        assert "_faded_reduced" not in vars(hinted)


# ---------------------------------------------------------------- caps


class TestCaps:
    def test_node_budget_bounds_the_ring_ball(self):
        """The full default min_ideal ball of the F8-17 ring (about 1e8
        points) stops at the budget with its context, in bounded memory."""
        f = nf.catalog_field("F8-17")
        basis = nf.embedding_matrix(f)
        radius = nf.default_min_ideal_radius(f, f.unit_ideal())
        basis._reduced
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError) as info:
                lattice.points_in_ball(basis, np.zeros(basis.n), radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = info.value
        assert err.rank == 8
        assert err.bound == lattice.ball_bound(radius)
        assert err.nodes > lattice.MAX_ENUM_NODES
        assert err.budget == lattice.MAX_ENUM_NODES
        assert f"{lattice.MAX_ENUM_NODES} nodes" in str(err)
        # one int64 per coordinate per point held, with growth slack
        assert peak < 1.5 * 8 * basis.rank * lattice.MAX_ENUM_NODES

    def test_budget_read_at_call_time(self, monkeypatch):
        basis = nf.embedding_matrix(nf.catalog_field("F8-17"))
        radius = 2.0 * lattice.shortest_vector(basis)[1]
        count = lattice.count_in_ball(basis, np.zeros(basis.n), radius)
        monkeypatch.setattr(lattice, "MAX_ENUM_NODES", count // 2)
        for search in (lattice.count_in_ball, lattice.points_in_ball):
            with pytest.raises(EnumerationCapError) as info:
                search(basis, np.zeros(basis.n), radius)
            assert info.value.nodes > count // 2
        monkeypatch.setattr(lattice, "MAX_ENUM_NODES", 0)
        with pytest.raises(EnumerationCapError):
            lattice.closest_vector_coords(basis, np.full(basis.n, 0.3))

    def test_rank_cap_raises_before_reducing(self, monkeypatch):
        basis = LatticeBasis(REAL, np.eye(30))
        monkeypatch.setattr(lattice, "_lll", None)
        with pytest.raises(EnumerationCapError) as info:
            lattice.count_in_ball(basis, np.zeros(30), 1.0)
        assert (info.value.rank, info.value.nodes) == (30, 0)

    def test_faded_rank_cap_raises_before_reducing(self, monkeypatch):
        basis = LatticeBasis(REAL, np.eye(30)).faded(np.full(30, 0.5))
        monkeypatch.setattr(lattice, "_lll", None)
        monkeypatch.setattr(lattice, "_qr", None)
        with pytest.raises(EnumerationCapError) as info:
            lattice.closest_vector_coords(basis, np.zeros(30))
        assert (info.value.rank, info.value.nodes) == (30, 0)

    def test_fast_budget_trip_names_its_budget(self):
        basis = code_lattice("F8-17")
        fading = np.ones(8)
        fading[3] = 1e-5
        faded = basis.faded(fading)
        target = faded.to_ambient(
            np.random.default_rng(4).standard_normal(8) @ faded.real_matrix)
        with pytest.raises(EnumerationCapError) as info:
            lattice._closest(faded, target, hinted=True)
        assert info.value.budget == lattice._FADED_NODES
        assert info.value.nodes > lattice._FADED_NODES
        assert f"{lattice._FADED_NODES} nodes" in str(info.value)
        # the fallback finishes the decode
        lattice.closest_vector_coords(faded, target)

    def test_zero_fast_budget_always_falls_back(self, monkeypatch):
        basis = code_lattice("F4-725")
        basis._reduced
        monkeypatch.setattr(lattice, "_FADED_NODES", 0)
        fadings = [ch.sample_realization(ch.RAYLEIGH_REAL, 4, 9, t).fading
                   for t in range(10)]
        fallbacks, decodes = assert_hint_exact(
            basis, fadings, np.random.default_rng(5))
        assert fallbacks == decodes

    def test_global_cap_holds_on_faded_bases(self, monkeypatch):
        basis = code_lattice("F4-725")
        fading = ch.sample_realization(ch.RAYLEIGH_REAL, 4, 9, 0).fading
        monkeypatch.setattr(lattice, "MAX_ENUM_NODES", 0)
        with pytest.raises(EnumerationCapError) as info:
            lattice.closest_vector_coords(basis.faded(fading), np.full(4, 0.3))
        assert info.value.budget == 0
