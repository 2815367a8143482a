"""Ball coordinates are integers of one small dtype on both search paths:
the same points as the walk collected into float64, a dtype that holds the
stated a-priori bound, and a product that reads the integers exactly as
it reads floats."""

import array
import math

import numpy as np
import pytest
from hypothesis import given, settings
from test_enum import LEVELLED, WALKED, ball_cases, recorded_balls

from latcode import lattice
from latcode import numberfield as nf
from latcode.codebook import CodeConfig, carve
from latcode.lattice import EnumerationCapError


def float_walk(basis, center, radius):
    """The ball's coordinates as the walk finds them, collected as float64
    and sorted lexicographically: the reference every path must equal."""
    red, r2 = basis._reduced, lattice.ball_bound(radius)
    flat = array.array("d")
    lattice._enumerate(red, basis.to_real(np.asarray(center)), r2,
                       lambda u, d2: flat.extend(u) or r2)
    ref = np.frombuffer(flat).reshape(-1, basis.rank)
    return ref[np.lexsort(ref.T[::-1])]


def stated_bound(basis, center, radius):
    """Per coordinate, ||row k of R^-1|| (||center|| + r): no coordinate of
    a point in the ball, or of a node above it, passes it."""
    red = basis._reduced
    centre = np.linalg.norm(basis.to_real(np.asarray(center)))
    r = math.sqrt(lattice.ball_bound(radius))
    return np.linalg.norm(np.linalg.inv(np.array(red.R)), axis=1) * (
        centre + r)


def narrowest(bound):
    """The narrowest signed dtype holding ``bound`` with ``_ball``'s margin
    (a relative 1e-9 and one unit)."""
    for dtype in (np.int8, np.int16, np.int32):
        if bound * (1.0 + 1e-9) + 1.0 <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def assert_integer_ball(basis, center, radius, **patch):
    """Walked and level-wise ``_ball`` return the float64 walk's points
    exactly, in one integer dtype: the narrowest that holds the stated
    bound, which every reference point meets.  Returns the dtype and the
    point count, or None if the walk stops at a patched budget (then the
    level-wise search stops too)."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patch.items():
            mp.setattr(lattice, name, value)
        try:
            want = float_walk(basis, center, radius)
        except EnumerationCapError:
            for path in (WALKED, LEVELLED):
                for name, value in path.items():
                    mp.setattr(lattice, name, value)
                with pytest.raises(EnumerationCapError):
                    lattice._ball(basis, center, radius)
            return None
        bound = stated_bound(basis, center, radius)
        assert np.all(np.abs(want) <= bound)
        dtypes = set()
        for path in (WALKED, LEVELLED):
            for name, value in path.items():
                mp.setattr(lattice, name, value)
            got = lattice._ball(basis, center, radius)
            assert got.dtype.kind == "i" and got.shape == want.shape
            dtypes.add(got.dtype)
            got = got[np.lexsort(got.T[::-1])]
            assert np.array_equal(got.astype(np.float64), want)
    (dtype,) = dtypes
    assert dtype == narrowest(bound.max())
    assert np.iinfo(dtype).max >= bound.max()
    return dtype, len(want)


class TestIntegerBalls:
    @settings(max_examples=100, deadline=None)
    @given(ball_cases())
    def test_paths_agree_on_random_balls(self, case):
        basis, center, radius, patch = case
        assert_integer_ball(basis, center, radius, **patch)

    def test_every_catalog_carving_ball(self):
        """Every shift try of the catalog's carves at rates 0.5-2 and
        P = 10 (seed 0): int8 on both paths, the float walk's points."""
        seen, paths = 0, set()
        for f in nf.load_catalog():
            for rate in (0.5, 1.0, 1.5, 2.0):
                config = CodeConfig(rate=rate, power=10.0, field=f, seed=0)
                for basis, center, radius in recorded_balls(
                        lambda: carve(config)):
                    dtype, _ = assert_integer_ball(basis, center, radius)
                    assert dtype == np.int8
                    paths.add(lattice._walk_first(
                        basis._reduced, lattice.ball_bound(radius)))
                    seen += 1
        assert seen >= 4 * len(nf.load_catalog()) and paths == {True, False}

    @pytest.mark.parametrize("name", ["F4-725", "F8-17", "Qzeta5"])
    def test_far_centres_widen_the_dtype(self, name):
        """A centre 10^3, 10^6 or 10^12 units out along every reduced row
        gives coordinates near that size: int16, int32 and int64, exact on
        both paths, where int8 (or a narrower dtype) would wrap."""
        basis = nf.embedding_matrix(nf.catalog_field(name))
        red = basis._reduced
        radius = 1.5 * lattice.shortest_vector(basis)
        for scale, want in ((1e3, np.int16), (1e6, np.int32),
                            (1e12, np.int64)):
            center = basis.to_ambient(scale * np.ones(basis.rank) @ red.rows)
            dtype, count = assert_integer_ball(basis, center, radius)
            assert dtype == want and count > 0


class TestIntegerReaders:
    def test_rows_product_reads_integers_as_floats(self):
        """An integer left factor gives the float64 product bit for bit, in
        one block and in several."""
        rng = np.random.default_rng(8)
        b = rng.standard_normal((8, 8))
        for rows in (100, 3 * lattice._PRODUCT_ROWS + 5):
            a = rng.integers(-128, 128, (rows, 8)).astype(np.int8)
            want = lattice.rows_product(a.astype(np.float64), b)
            got = lattice.rows_product(a, b)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
