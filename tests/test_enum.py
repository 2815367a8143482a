"""The one Schnorr-Euchner kernel: identical results to the closest-point and
ball kernels it replaced, agreement with brute force, invariance under a
change of basis, the level-wise ball search against the walk, and the rank
cap and node budget."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_lll import code_bases, exact_det

from latcode import channel as ch
from latcode import lattice
from latcode import numberfield as nf
from latcode.codebook import CodeConfig, carve, energy_normalization, \
    shift_search
from latcode.lattice import COMPLEX, REAL, EnumerationCapError, LatticeBasis

_TIE_EPS = 1e-12  # the tie window, relative to the best squared distance


# The two kernels the walk replaced, kept verbatim as references that it
# must match exactly, except that the closest-point kernel's tie window is
# now relative to the best squared distance, as the walk's is.

def reference_se_closest(Rl, t, exclude_zero=False):
    """Schnorr-Euchner search for argmin_u ||Rl u - t|| over integer u.

    Ties within a relative 1e-12 of the best squared distance break to the
    lexicographically smaller coordinate vector u in the basis of ``Rl``,
    which for the callers here is the LLL-reduced basis, not the caller's.
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
            if new_acc > best["d2"] * (1 + _TIE_EPS):
                # zig-zag ordering: every later candidate is at least this far
                break
            u[level] = cand
            if level == 0:
                if exclude_zero and all(v == 0 for v in u):
                    continue
                if new_acc < best["d2"] * (1 - _TIE_EPS):
                    best["u"] = list(u)
                    best["d2"] = new_acc
                elif best["u"] is not None and \
                        new_acc <= best["d2"] * (1 + _TIE_EPS):
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
    """R of the basis's reduction and the real center, and Q^T of it."""
    red = basis._reduced
    real = basis.to_real(np.asarray(center))
    return red.R, real, red.Q.T @ real


def assert_same_closest(basis, target):
    R, real, t = reduced_target(basis, target)
    assert (lattice._nearest(basis._reduced, real)
            == reference_se_closest(R, t))


def assert_same_shortest(basis):
    R, real, _ = reduced_target(basis, np.zeros(basis.n))
    assert (lattice._nearest(basis._reduced, real, exclude_zero=True)
            == reference_se_closest(R, [0.0] * basis.rank, exclude_zero=True))


def assert_same_ball(basis, center, radius):
    R, _, t = reduced_target(basis, center)
    ref = sorted(reference_enum_ball(R, t, radius))
    assert lattice.count_in_ball(basis, center, radius) == len(ref)
    coords, vecs = lattice.points_in_ball(basis, center, radius)
    assert np.array_equal(coords, np.array(ref).reshape(-1, basis.rank))
    return len(ref)


def assert_same_search(basis, rng, targets=3):
    """Closest point to a few random targets, the shortest vector, and the
    ball of twice the minimum around a random center."""
    B = basis.real_matrix
    for _ in range(targets):
        x = 3.0 * rng.standard_normal(basis.rank)
        assert_same_closest(basis, basis.to_ambient(x @ B))
    assert_same_shortest(basis)
    sv = lattice.shortest_vector(basis)
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
    ball B(center, radius): (those coordinates, squared distances)."""
    Bred = basis._reduced.rows
    inv = np.linalg.inv(Bred)
    mid = basis.to_real(np.asarray(center)) @ inv
    half = radius * np.linalg.norm(inv, axis=0) * (1 + 1e-9) + 1e-9
    ranges = [range(math.ceil(m - h), math.floor(m + h) + 1)
              for m, h in zip(mid, half)]
    assume(math.prod(len(r) for r in ranges) <= 200_000)
    ured = np.array(list(itertools.product(*ranges)), dtype=np.int64)
    ured = ured.reshape(-1, basis.rank)
    d2 = np.sum((ured @ Bred - basis.to_real(np.asarray(center))) ** 2, axis=1)
    return ured, d2


def ball_coords(basis, center, radius, U=None):
    """The coordinates that ``points_in_ball`` returns, or with ``U`` given,
    the points' coordinates in the basis B with ``basis`` = U @ B."""
    coords, _ = lattice.points_in_ball(basis, center, radius)
    if U is not None:
        coords = coords @ basis._reduced.U @ U
    return {tuple(c) for c in coords.astype(np.int64)}


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
        coords = lattice.closest_vector_coords(basis, target)
        d = float(np.linalg.norm(coords @ basis.real_matrix - target))
        _, d2 = box_points(basis, target, d * (1 + 1e-9) + 1e-12)
        assert d * d == pytest.approx(d2.min(), rel=1e-9, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(bases())
    def test_shortest(self, basis):
        sv = lattice.shortest_vector(basis)
        coords, d2 = box_points(basis, np.zeros(basis.n), sv * (1 + 1e-9))
        d2 = d2[np.any(coords != 0, axis=1)]
        assert sv * sv == pytest.approx(d2.min(), rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(bases(), st.data(), st.floats(0.5, 2.5))
    def test_ball(self, basis, data, factor):
        center = np.array(data.draw(unit_box(basis.rank))) @ basis.real_matrix
        radius = factor * lattice.shortest_vector(basis)
        coords, d2 = box_points(basis, center, radius)
        assert_ball_matches(ball_coords(basis, center, radius), coords, d2,
                            radius * radius)


@st.composite
def changes_of_basis(draw):
    """A basis, a unimodular U and a point of the unit box."""
    basis = draw(bases())
    return (basis, draw(unimodular(basis.rank)),
            np.array(draw(unit_box(basis.rank))))


class TestChangeOfBasis:
    @settings(max_examples=100, deadline=None)
    @given(changes_of_basis())
    # U @ B is rounded: the target, a point of the first lattice, lies
    # 1.04e-12 off the second
    @example((LatticeBasis(REAL, [[0.0, 1.0], [11.305726655165277, 0.0]]),
              np.array([[17, 13], [13, 10]]), np.array([0.0, 1.0])))
    def test_results_unchanged(self, case):
        basis, U, x = case
        other = LatticeBasis(REAL, U @ basis.real_matrix)
        x = x * 4.0
        target = x @ basis.real_matrix
        v1 = lattice.closest_vector_coords(basis, target) @ basis.real_matrix
        v2 = lattice.closest_vector_coords(other, target) @ other.real_matrix
        # the absolute part scales with other's entries, whose rounding
        # moves its lattice
        scale = float(np.max(np.abs(other.real_matrix)))
        assert np.linalg.norm(v2 - target) == pytest.approx(
            np.linalg.norm(v1 - target), rel=1e-9, abs=1e-12 * scale)
        sv = lattice.shortest_vector(basis)
        assert lattice.shortest_vector(other) == pytest.approx(sv, rel=1e-9)
        # the same ball, both in the first basis's coordinates
        radius = 2.0 * sv
        coords, d2 = box_points(basis, target, radius)
        back = ball_coords(other, target, radius, U)
        assert_ball_matches(back, coords @ basis._reduced.U, d2,
                            radius * radius)


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
    """A faded basis with its hint and a plain one built from the same faded
    rows give the same closest-point coordinates, on noisy faded lattice
    points and on uniform targets.  Each decode gets a fresh faded basis, as
    in NLD; returns how many of them ran ``_lll`` (the fallback) and how many
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
            faded = basis.faded(fading)
            lattice._lll = lambda M: lll_calls.append(1) or real_lll(M)
            try:
                got = lattice.closest_vector_coords(faded, target)
            finally:
                lattice._lll = real_lll
            want = lattice.closest_vector_coords(plain, target)
            assert np.array_equal(got, want)
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
        faded = basis.faded(fading)
        plain = LatticeBasis(basis.ambient, basis.vectors * fading)
        sv = lattice.shortest_vector(plain)
        assert lattice.shortest_vector(faded) == sv
        for got, want in zip(
                lattice.points_in_ball(faded, np.zeros(4), 2.0 * sv),
                lattice.points_in_ball(plain, np.zeros(4), 2.0 * sv)):
            assert np.array_equal(got, want)


# ---------------------------------------------------------------- level-wise


WALKED = {"_BALL_DFS_NODES": 1 << 62}  # every ball is walked
LEVELLED = {"_BALL_DFS_NODES": 0}  # every ball of radius > 0 goes level-wise


def ball_outcome(search, basis, center, radius, patch):
    """``search`` with lattice constants patched: ("ok", its result) or
    ("cap", the error's rank, bound and budget)."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patch.items():
            mp.setattr(lattice, name, value)
        try:
            return "ok", search(basis, center, radius)
        except EnumerationCapError as err:
            assert err.nodes > err.budget
            return "cap", (err.rank, err.bound, err.budget)


def assert_levels_match_walk(basis, center, radius, **patch):
    """Level-wise and walked ``count_in_ball`` and ``points_in_ball`` agree
    exactly, or both raise ``EnumerationCapError`` past the same budget;
    returns the walked count's outcome."""
    outcomes = []
    for search in (lattice.count_in_ball, lattice.points_in_ball):
        want = ball_outcome(search, basis, center, radius, WALKED | patch)
        got = ball_outcome(search, basis, center, radius, LEVELLED | patch)
        assert got[0] == want[0]
        if want[0] == "ok" and search is lattice.points_in_ball:
            for g, w in zip(got[1], want[1]):
                assert g.dtype == w.dtype and np.array_equal(g, w)
        else:
            assert got[1] == want[1]
        outcomes.append(want)
    return outcomes[0]


@st.composite
def ball_cases(draw):
    """A real or complex basis of rank 2 to 8, Gaussian rows with uneven
    columns at a scale of 1e-2 to 1e2, a center in its span, a radius of
    0.5 to 4 shortest vectors, a node budget, and the level-wise block and
    spare tries (small ones split blocks and retry nodes)."""
    is_complex = draw(st.booleans())
    rank = 2 * draw(st.integers(1, 4)) if is_complex else draw(
        st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    B = rng.standard_normal((rank, rank)) * np.exp(rng.standard_normal(rank))
    B *= 10.0 ** draw(st.floats(-2.0, 2.0))
    if is_complex:
        basis = LatticeBasis(COMPLEX, B[:, 0::2] + 1j * B[:, 1::2])
    else:
        basis = LatticeBasis(REAL, B)
    center = basis.to_ambient(rng.uniform(-3.0, 3.0, rank) @ basis.real_matrix)
    radius = rng.uniform(0.5, 4.0) * lattice.shortest_vector(basis)
    patch = {"MAX_ENUM_NODES": draw(st.sampled_from([20_000, 2_000, 50])),
             "_LEVEL_BLOCK": draw(st.sampled_from([lattice._LEVEL_BLOCK, 16])),
             "_ZIGZAG_SPARE": draw(st.sampled_from([2, 1]))}
    return basis, center, radius, patch


class TestLevelwiseBalls:
    """A ball expected past ``_BALL_DFS_NODES`` walk nodes is enumerated
    level by level: the same count, points and order as the walk, and the
    same cap."""

    @settings(max_examples=150, deadline=None)
    @given(ball_cases())
    def test_matches_the_walk(self, case):
        basis, center, radius, patch = case
        assert_levels_match_walk(basis, center, radius, **patch)

    @pytest.mark.parametrize("spare", [2, 1])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_integer_lattice_ties_at_the_bound(self, n, spare):
        """Half-integer centers, whose two nearest integers tie, and spheres
        through lattice points; brute force in exact quarter-integers."""
        rng = np.random.default_rng(n)
        basis = LatticeBasis(REAL, np.eye(n))
        for _ in range(10):
            center = 0.5 * rng.integers(-5, 6, n)
            point = np.floor(center) + rng.integers(-2, 3, n)
            r2 = float(np.sum((point - center) ** 2))
            kind, count = assert_levels_match_walk(
                basis, center, math.sqrt(r2), _ZIGZAG_SPARE=spare)
            assert kind == "ok"
            r = math.sqrt(r2)
            grid = np.array(list(itertools.product(
                *[range(math.floor(c - r), math.ceil(c + r) + 1)
                  for c in center])))
            assert count == np.sum(np.sum((grid - center) ** 2, axis=1) <= r2)

    def test_cap_trips_exactly_past_the_tree(self):
        """Both paths raise exactly when the tree, interior nodes included,
        has more than ``MAX_ENUM_NODES`` nodes."""
        basis = code_lattice("F8-17")
        center = basis.to_ambient(np.random.default_rng(6).random(8)
                                  @ basis.real_matrix)
        radius = 2.0 * lattice.shortest_vector(basis)
        lo, hi = 0, 1 << 20  # the walk raises within lo nodes, not within hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            kind, _ = ball_outcome(lattice.count_in_ball, basis, center,
                                   radius, WALKED | {"MAX_ENUM_NODES": mid})
            lo, hi = (mid, hi) if kind == "cap" else (lo, mid)
        _, points = ball_outcome(lattice.count_in_ball, basis, center, radius,
                                 WALKED)
        assert 128 < points < hi
        for budget, kind in ((points, "cap"), (hi - 1, "cap"), (hi, "ok")):
            assert assert_levels_match_walk(
                basis, center, radius, MAX_ENUM_NODES=budget)[0] == kind

    def test_catalog_carves_identical(self):
        for f in nf.load_catalog():
            for rate in (0.5, 1.0, 1.5, 2.0):
                config = CodeConfig(rate=rate, power=10.0, field=f, seed=0)
                books = []
                for patch in (WALKED, {}, LEVELLED):
                    with pytest.MonkeyPatch.context() as mp:
                        for name, value in patch.items():
                            mp.setattr(lattice, name, value)
                        books.append(carve(config))
                want = books[0]
                for got in books[1:]:
                    assert got.points.tobytes() == want.points.tobytes()
                    assert got.shift.tobytes() == want.shift.tobytes()
                    assert (got.alpha, got.achieved_rate) == (
                        want.alpha, want.achieved_rate)

    def test_lex_order_matches_lexsort(self):
        rng = np.random.default_rng(3)
        # keys exact in floats (98^8 < 2^53, near the limit), and a span
        # whose key would not be
        for lo, hi, width in ((-3, 4, 5), (-49, 49, 8), (-10 ** 5, 10 ** 5, 5)):
            rows = np.unique(rng.integers(lo, hi, (2000, width)), axis=0)
            rows = rows[rng.permutation(len(rows))].astype(float)
            assert np.array_equal(lattice._lex_order(rows),
                                  np.lexsort(rows.T[::-1]))

    def test_lex_order_keeps_its_threshold_under_path_patches(
            self, monkeypatch):
        """``WALKED`` and ``LEVELLED`` switch the ball path alone: the sort
        key is taken past ``_LEX_KEY_ROWS`` rows, as without them."""
        keyed, product = [], lattice.rows_product
        monkeypatch.setattr(lattice, "rows_product",
                            lambda a, b: keyed.append(len(a)) or product(a, b))
        rng = np.random.default_rng(5)
        for patch in (WALKED, LEVELLED, {}):
            with pytest.MonkeyPatch.context() as mp:
                for name, value in patch.items():
                    mp.setattr(lattice, name, value)
                for count in (lattice._LEX_KEY_ROWS, lattice._LEX_KEY_ROWS + 1):
                    rows = np.unique(rng.integers(-9, 9, (4 * count, 4)),
                                     axis=0)[:count]
                    rows = rows[rng.permutation(count)].astype(float)
                    keyed.clear()
                    assert np.array_equal(lattice._lex_order(rows),
                                          np.lexsort(rows.T[::-1]))
                    assert keyed == ([count] if count > lattice._LEX_KEY_ROWS
                                     else [])

    def test_lex_order_past_product_rows(self):
        """Past ``_PRODUCT_ROWS`` rows the mixed-radix key is multiplied in
        blocks (``rows_product``): the order is still lexsort's, on the
        rate-2 F8-17 carving ball and on rows whose key nears 2^53."""
        f = nf.catalog_field("F8-17")
        basis = nf.embedding_matrix(f).scaled(
            math.sqrt(energy_normalization(f, 2.0, 10.0)))
        shift = shift_search(basis, 10.0, 0)
        ured = lattice._ball(basis, -shift, math.sqrt(80.0), True)[1]
        assert len(ured) > 2 ** 16
        rng = np.random.default_rng(4)
        # 98^8 < 2^53: the widest span whose key is exact at width 8
        wide = np.unique(rng.integers(-49, 49, (6000, 8)), axis=0)
        wide = wide[rng.permutation(len(wide))[:lattice._PRODUCT_ROWS + 1]]
        assert wide.max() - wide.min() + 1 == 98
        for rows in (ured, wide.astype(float)):
            assert np.array_equal(lattice._lex_order(rows),
                                  np.lexsort(rows.T[::-1]))


def expected_nodes(red, r2):
    """The walk's expected node count, sum over k of Vol(B_k(r)) over the
    product of R's last k diagonal entries, in logs."""
    rank, r = len(red.R), math.sqrt(r2)
    total, ln_volume = 0.0, 0.0
    for k in range(1, rank + 1):
        ln_volume += math.log(red.R[rank - k][rank - k])
        total += math.exp(0.5 * k * math.log(math.pi) - math.lgamma(k / 2 + 1)
                          + k * math.log(r) - ln_volume)
    return total


def spied_ball(search, basis, center, radius, patch=None):
    """``search``'s result and which kernels its ball ran: a tuple of
    "walk" and "levels" in call order."""
    ran = []
    walk, levels = lattice._enumerate, lattice._enumerate_levels

    def spy(name, fn):
        def call(*args, **kwargs):
            ran.append(name)
            return fn(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name, value in (patch or {}).items():
            mp.setattr(lattice, name, value)
        mp.setattr(lattice, "_enumerate", spy("walk", walk))
        mp.setattr(lattice, "_enumerate_levels", spy("levels", levels))
        return search(basis, center, radius), tuple(ran)


def recorded_balls(run):
    """``run()``, and the (basis, center, radius) of every ball it searched."""
    balls, ball = [], lattice._ball

    def spy(basis, center, radius, keep):
        balls.append((basis, center, radius))
        return ball(basis, center, radius, keep)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_ball", spy)
        run()
    return balls


def ideal_runs():
    """For each catalog field, ``min_ideal`` of each ideal of the ``ideal``
    table: the catalog's, and the unit ideal where none has norm 1."""
    for f in nf.load_catalog():
        ideals = list(f.ideals)
        if not any(i.norm == 1 for i in ideals):
            ideals.insert(0, f.unit_ideal())
        for i in ideals:
            yield lambda f=f, i=i: nf.min_ideal(f, i)


class TestBallPath:
    """A ball is enumerated once: level by level if the walk is expected to
    visit more than ``_BALL_DFS_NODES`` nodes (the Gaussian heuristic on
    each level's projected lattice), else walked, and a walk's error
    reaches the caller."""

    def test_paths_of_the_carving_balls(self):
        """Rate 1 at P = 10: the rank-8 ball (2^8 points, some 650 walk
        nodes expected) goes level by level; the rank-4 ball (2^4 points)
        is walked."""
        for name, want in (("F8-17", ("levels",)), ("F4-725", ("walk",))):
            basis = code_lattice(name)
            center = -shift_search(basis, 10.0, 0)
            radius = math.sqrt(basis.n * 10.0)
            for search in (lattice.count_in_ball, lattice.points_in_ball):
                assert spied_ball(search, basis, center, radius)[1] == want

    def test_patches_force_each_path(self):
        """``WALKED`` walks every ball to its end, ``LEVELLED`` goes level
        by level at once, and both give the same points."""
        for name in ("F8-17", "F4-725", "Qzeta5"):
            basis = code_lattice(name)
            center = -shift_search(basis, 10.0, 0)
            for scale in (0.5, 1.0, 1.5):
                radius = scale * math.sqrt(basis.n * 10.0)
                walked, ran = spied_ball(lattice.points_in_ball, basis,
                                         center, radius, WALKED)
                assert ran == ("walk",)
                levelled, ran = spied_ball(lattice.points_in_ball, basis,
                                           center, radius, LEVELLED)
                assert ran == ("levels",)
                for g, w in zip(levelled, walked):
                    assert g.tobytes() == w.tobytes()

    def test_radius_zero_is_walked(self):
        """A ball of radius 0 expects no node and is walked: it holds its
        center when that is a lattice point."""
        for f in nf.load_catalog():
            basis = nf.embedding_matrix(f)
            origin = np.zeros(basis.n)
            count, ran = spied_ball(lattice.count_in_ball, basis, origin, 0.0)
            assert (count, ran) == (1, ("walk",))
            coords, vecs = lattice.points_in_ball(basis, origin, 0.0)
            assert not coords.any() and not vecs.any() and len(coords) == 1
            off = basis.to_ambient(np.full(basis.rank, 0.5)
                                   @ basis.real_matrix)
            assert lattice.count_in_ball(basis, off, 0.0) == 0

    def test_qzeta5_unit_ideal_goes_level_by_level(self):
        """Its ball holds 111 points in 194 walk nodes.  Expected at 165
        nodes, it goes level by level at once; by its expected point count
        (100) it would have walked 128 nodes and started over."""
        f = nf.catalog_field("Qzeta5")
        basis = nf.ideal_lattice(f, f.unit_ideal())
        radius = nf.ideal_search_radius(f, f.unit_ideal()) / 4.0
        _, ran = spied_ball(lambda f, ideal, _: nf.min_ideal(f, ideal),
                            f, f.unit_ideal(), None)
        assert ran == ("levels",)
        red, r2 = basis._reduced, lattice.ball_bound(radius)
        assert lattice._enumerate(red, np.zeros(4), r2, lambda u, d2: r2) \
            == 194
        assert 128 < expected_nodes(red, r2) < 194

    def test_node_estimate_tracks_the_walk(self):
        """Within 0.5-2x of the walk's node count on every ball that the
        catalog's carves at rates 0.5-2 and P = 10, ``invariants`` and
        ``ideal`` search, and the same sum as the cached coefficients'."""
        runs = [lambda f=f, rate=rate: carve(CodeConfig(
            rate=rate, power=10.0, field=f, seed=0))
            for f in nf.load_catalog() for rate in (0.5, 1.0, 1.5, 2.0)]
        runs += [lambda f=f: lattice.invariants(nf.embedding_matrix(f))
                 for f in nf.load_catalog()]
        runs += list(ideal_runs())
        seen, paths = set(), set()
        for run in runs:
            for basis, center, radius in recorded_balls(run):
                red, r2 = basis._reduced, lattice.ball_bound(radius)
                center = basis.to_real(np.asarray(center))
                key = (id(red), center.tobytes(), r2)
                if key in seen:
                    continue
                seen.add(key)
                nodes = lattice._enumerate(red, center, r2, lambda u, d2: r2)
                estimate = expected_nodes(red, r2)
                assert 0.5 <= nodes / estimate <= 2.0, (basis.rank, radius)
                r = math.sqrt(r2)
                horner = sum(c * r ** k for k, c in zip(
                    range(basis.rank, 0, -1), red._node_coefficients))
                assert horner == pytest.approx(estimate, rel=1e-9)
                walked = lattice._walk_first(red, r2)
                assert walked == (horner <= lattice._BALL_DFS_NODES)
                paths.add(walked)
        assert paths == {True, False}

    @pytest.mark.parametrize("radius", [1.5, 40.0])
    def test_both_paths_stop_where_floats_hold_no_integers(self, radius):
        """Far from the origin of the Qsqrt2 ring the walk's error reaches
        the caller, and the level-wise search raises it too, before any
        node; nearer, where floats still hold integers, the two agree."""
        ring = nf.embedding_matrix(nf.catalog_field("Qsqrt2"))
        for patch in (WALKED, LEVELLED, {}):
            for search in (lattice.count_in_ball, lattice.points_in_ball):
                with pytest.MonkeyPatch.context() as mp:
                    for name, value in patch.items():
                        mp.setattr(lattice, name, value)
                    with pytest.raises(
                            lattice.EnumerationPrecisionError) as info:
                        search(ring, (1e17, 1e17), radius)
                err = info.value
                assert abs(err.coordinate) >= 2.0 ** 52
                assert err.budget == lattice.MAX_ENUM_NODES
                if patch is LEVELLED:
                    assert err.nodes == 0
        kind, count = assert_levels_match_walk(ring, (1e12, 1e12), radius)
        assert kind == "ok" and count > 0

    def test_nan_centre_raises_before_any_node(self, monkeypatch):
        """A NaN centre or target raises ``ValueError`` on both ball paths
        and in the closest-point walk, plain or faded, before any node (a
        budget of 0 trips at the first), and a faded basis raises it from
        its hint without its LLL fallback.  On the identity lattice the
        NaN may be the first coordinate or the last."""
        ring = nf.embedding_matrix(nf.catalog_field("Qsqrt2"))
        eye = LatticeBasis(REAL, np.eye(4))
        code = code_lattice("F4-725")
        faded = code.faded(ch.sample_realization(
            ch.RAYLEIGH_REAL, 4, 9, 0).fading)
        ring._reduced, eye._reduced, code._reduced  # built before the patches
        monkeypatch.setattr(lattice, "MAX_ENUM_NODES", 0)
        monkeypatch.setattr(lattice, "_lll", None)  # no reduction runs
        cases = [(ring, (math.nan, 0.0)), (eye, [math.nan, 0.0, 0.0, 0.0]),
                 (eye, [0.0, 0.0, 0.0, math.nan])]
        nan = "^the search centre has a NaN coordinate$"
        for basis, centre in cases:
            for patch in (WALKED, LEVELLED):
                for name, value in patch.items():
                    monkeypatch.setattr(lattice, name, value)
                for search in (lattice.count_in_ball, lattice.points_in_ball):
                    for radius in (1.5, 40.0):
                        with pytest.raises(ValueError, match=nan):
                            search(basis, centre, radius)
            with pytest.raises(ValueError, match=nan):
                lattice.closest_vector_coords(basis, centre)
        with pytest.raises(ValueError, match=nan):
            lattice.closest_vector_coords(faded, [0.3, math.nan, 0.1, 0.2])

    @pytest.mark.parametrize("radius", [1e150, 1e200, math.inf])
    def test_overflowing_estimate_caps(self, radius):
        """An estimate past a float's range (~ r^8 at rank 8) goes level by
        level and stops at the budget before its first step, one node past
        it."""
        basis = nf.embedding_matrix(nf.catalog_field("F8-17"))
        for search in (lattice.count_in_ball, lattice.points_in_ball):
            with pytest.raises(EnumerationCapError) as info:
                search(basis, np.zeros(basis.n), radius)
            err = info.value
            assert (err.rank, err.bound, err.nodes, err.budget) == (
                8, lattice.ball_bound(radius), lattice.MAX_ENUM_NODES + 1,
                lattice.MAX_ENUM_NODES)


# ---------------------------------------------------------------- caps


class TestCaps:
    def test_node_budget_bounds_the_ring_ball(self):
        """The full min_ideal ball of the F8-17 ring (about 1e8
        points) stops at the budget with its context, in bounded memory."""
        f = nf.catalog_field("F8-17")
        basis = nf.embedding_matrix(f)
        radius = nf.ideal_search_radius(f, f.unit_ideal())
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

    def test_budget_holds_within_one_level(self, monkeypatch):
        """A ball whose one level alone holds two million integers stops at
        the budget: the walk at the node past it, the level-wise search
        before it builds that level's tries."""
        basis = LatticeBasis(REAL, np.eye(2))
        basis._reduced
        budget = 1 << 12
        monkeypatch.setattr(lattice, "MAX_ENUM_NODES", budget)
        leaves = []
        with pytest.raises(EnumerationCapError) as info:
            lattice._enumerate(basis._reduced, np.zeros(2), 1e12,
                               lambda u, d2: leaves.append(1) or 1e12)
        assert info.value.nodes == budget + 1
        assert len(leaves) <= budget
        for radius in (1e6, 1e12):
            tracemalloc.start()
            start = time.perf_counter()
            try:
                for search in (lattice.count_in_ball, lattice.points_in_ball,
                               lattice._enumerate_levels):
                    with pytest.raises(EnumerationCapError) as info:
                        if search is lattice._enumerate_levels:
                            search(basis._reduced, np.zeros(2),
                                   radius * radius, True)
                        else:
                            search(basis, np.zeros(2), radius)
                    assert info.value.nodes > budget
                took = time.perf_counter() - start
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert took < 0.5
            assert peak < 1 << 20

    def test_rate2_carving_ball_memory(self):
        """The rate-2 F8-17 carving ball (about 65,700 points) goes level by
        level within three times the coordinates it returns."""
        f = nf.catalog_field("F8-17")
        basis = nf.embedding_matrix(f).scaled(
            math.sqrt(energy_normalization(f, 2.0, 10.0)))
        shift = shift_search(basis, 10.0, 0)
        tracemalloc.start()
        try:
            coords, _ = lattice.points_in_ball(basis, -shift, math.sqrt(80.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(coords) > 2 ** 16
        assert peak < 3 * 8 * basis.rank * len(coords)

    def test_budget_read_at_call_time(self, monkeypatch):
        basis = nf.embedding_matrix(nf.catalog_field("F8-17"))
        radius = 2.0 * lattice.shortest_vector(basis)
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
            lattice._closest(faded, faded._hint, target, lattice._FADED_NODES)
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
