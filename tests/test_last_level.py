"""The level-wise search's last level in closed form, and the packed-key
sort of a ball's rows: the same points, node count and cap as the zig-zag
step at every level-0 node, and the same order as ``np.lexsort``."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from test_enum import (LEVELLED, ball_cases, ball_outcome, count_in_ball,
                       recorded_balls)

from latcode import lattice
from latcode import numberfield as nf
from latcode.codebook import CodeConfig, carve
from latcode.lattice import REAL, LatticeBasis

#: Every level-0 node takes the zig-zag step, as before the closed form.
ZIGZAG = {"_INTERVAL_MARGIN": math.inf}


def assert_intervals_match_zigzag(basis, center, radius, patch=None):
    """Level by level, the closed-form last level and the zig-zag step give
    the same sorted coordinates and vectors, or stop at the same budget;
    when they finish, both stop one node short of the walk's node count
    and finish at it.  Returns the point count, or None at a cap."""
    patch = LEVELLED | (patch or {})
    got, want = (ball_outcome(lattice.points_in_ball, basis, center, radius,
                              patch | margin) for margin in ({}, ZIGZAG))
    assert got[0] == want[0]
    if got[0] == "cap":
        assert got[1] == want[1]
        return None
    for g, w in zip(got[1], want[1]):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    r2 = lattice.ball_bound(radius)
    nodes = lattice._enumerate(basis._reduced,
                               basis.to_real(np.asarray(center)), r2,
                               lambda u, d2: r2)
    for margin in ({}, ZIGZAG):
        for budget, kind in ((nodes - 1, "cap"), (nodes, "ok")):
            outcome = ball_outcome(count_in_ball, basis, center, radius,
                                   patch | margin
                                   | {"MAX_ENUM_NODES": budget})
            assert outcome[0] == kind
    return len(got[1][0])


def left_out(monkeypatch):
    """The count of nodes that each ``_last_level`` call leaves to the
    zig-zag step, in call order."""
    counts, last_level = [], lattice._last_level

    def spy(*args):
        rows, odd = last_level(*args)
        counts.append(len(odd))
        return rows, odd

    monkeypatch.setattr(lattice, "_last_level", spy)
    return counts


class TestClosedFormLastLevel:
    @pytest.mark.pinned
    def test_every_catalog_carving_ball(self):
        """Every shift try of the catalog's carves at rates 0.5-2 and
        P = 2, 10 and 100 (seed 0), each level by level."""
        seen = points = 0
        for f in nf.load_catalog():
            for rate, power in itertools.product((0.5, 1.0, 1.5, 2.0),
                                                 (2.0, 10.0, 100.0)):
                config = CodeConfig(rate=rate, power=power, field=f, seed=0)
                for ball in recorded_balls(lambda: carve(config)):
                    points += assert_intervals_match_zigzag(*ball)
                    seen += 1
        assert seen >= 12 * len(nf.load_catalog()) and points > 2 ** 17

    @settings(max_examples=100, deadline=None)
    @given(ball_cases())
    def test_random_balls(self, case):
        basis, center, radius, patch = case
        assert_intervals_match_zigzag(basis, center, radius, patch)

    def test_integer_end_takes_the_zigzag_step(self, monkeypatch):
        """On the rank-1 lattice 0.75 Z with bound (3 * 0.75)^2 the only
        node's interval is exactly [-3, 3]: it takes the zig-zag step, and
        keeps the walk's seven points."""
        basis = LatticeBasis(REAL, [[0.75]])
        red, bound = basis._reduced, (3 * 0.75) ** 2
        odd = left_out(monkeypatch)
        got = lattice._enumerate_levels(red, np.zeros(1), bound,
                                        np.dtype(np.int8))
        assert odd == [1]
        walked = []
        assert lattice._enumerate(red, np.zeros(1), bound,
                                  lambda u, d2: walked.append(u[0])
                                  or bound) == 7
        assert sorted(got[:, 0]) == sorted(walked) == list(range(-3, 4))

    def test_only_integer_ends_take_the_zigzag_step(self, monkeypatch):
        """On Z^2 with bound 25 the level-0 nodes j = 0, +-3, +-4 and +-5
        have intervals ending on integers (sqrt(25 - j^2) is one) and take
        the zig-zag step; j = +-1, +-2 take the closed form.  Together they
        hold the 81 integer points of the disc."""
        basis = LatticeBasis(REAL, np.eye(2))
        odd = left_out(monkeypatch)
        got = lattice._enumerate_levels(basis._reduced, np.zeros(2), 25.0,
                                        np.dtype(np.int8))
        assert odd == [7]  # of the one level-0 block's 11 nodes
        grid = [p for p in itertools.product(range(-5, 6), repeat=2)
                if p[0] ** 2 + p[1] ** 2 <= 25]
        assert sorted(map(tuple, got.tolist())) == sorted(grid)


class TestPackedKeySort:
    @pytest.mark.parametrize("rank", [1, 2, 4, 8])
    def test_int8_rows_sort_as_lexsort(self, rank, monkeypatch):
        """Distinct int8 rows of 1, 2, 4 and 8 bytes, both ends of the
        range among them, go into ``np.lexsort``'s order, with no lexsort."""
        rng = np.random.default_rng(rank)
        rows = rng.integers(-128, 128, (3000, rank)).astype(np.int8)
        rows = np.concatenate((rows, np.full((1, rank), -128, np.int8),
                               np.full((1, rank), 127, np.int8),
                               np.eye(rank, dtype=np.int8) * -128,
                               np.eye(rank, dtype=np.int8) * 127))
        rows = np.unique(rows, axis=0)
        rng.shuffle(rows)
        want = rows[np.lexsort(rows.T[::-1])]
        monkeypatch.setattr(np, "lexsort", None)
        lattice._sort_rows(rows)
        assert rows.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype, rank", [(np.int8, 3), (np.int16, 2),
                                             (np.int16, 4), (np.int8, 16)])
    def test_other_rows_use_lexsort(self, dtype, rank, monkeypatch):
        rng = np.random.default_rng(rank)
        info = np.iinfo(dtype)
        rows = np.unique(rng.integers(info.min, info.max, (500, rank),
                                      endpoint=True).astype(dtype), axis=0)
        rng.shuffle(rows)
        want = rows[np.lexsort(rows.T[::-1])]
        lexsorts, lexsort = [], np.lexsort
        monkeypatch.setattr(np, "lexsort",
                            lambda keys: lexsorts.append(1) or lexsort(keys))
        lattice._sort_rows(rows)
        assert lexsorts == [1] and rows.tobytes() == want.tobytes()

    def test_empty_ball(self):
        rows = np.zeros((0, 8), np.int8)
        lattice._sort_rows(rows)
        assert rows.shape == (0, 8)
