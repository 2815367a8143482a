import math

import numpy as np
import pytest
from test_enum import count_in_ball

from latcode import lattice
from latcode import numberfield as nf
from latcode.lattice import (COMPLEX, REAL, LatticeBasis, ZeroProductNormError,
                             closest_vector_coords, invariants,
                             min_product_distance, points_in_ball,
                             shortest_vector, volume)

Z2 = LatticeBasis(REAL, np.eye(2))
ZI = LatticeBasis(COMPLEX, np.array([[1.0 + 0j], [1j]]))
ZSQRT2 = LatticeBasis(REAL, np.array([[1.0, 1.0],
                                      [math.sqrt(2), -math.sqrt(2)]]))


def random_basis(rng, rank):
    """Well-conditioned random full-rank basis."""
    while True:
        B = np.eye(rank) + 0.25 * rng.standard_normal((rank, rank))
        if abs(np.linalg.det(B)) > 0.3:
            return LatticeBasis(REAL, B)


def brute_force_shortest(basis, box=5):
    B = basis.real_matrix
    best = math.inf
    ranges = [range(-box, box + 1)] * basis.rank
    grids = np.meshgrid(*ranges, indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    vecs = coords @ B
    norms = np.linalg.norm(vecs, axis=1)
    norms[np.all(coords == 0, axis=1)] = np.inf
    return norms.min()


def brute_force_closest(basis, target, box=6):
    B = basis.real_matrix
    center = np.rint(np.linalg.solve(B.T, target)).astype(int)
    ranges = [range(c - box, c + box + 1) for c in center]
    grids = np.meshgrid(*ranges, indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    vecs = coords @ B
    d = np.linalg.norm(vecs - target, axis=1)
    return d.min()


class TestVolume:
    def test_gaussian_integers(self):
        assert volume(ZI) == pytest.approx(1.0)

    def test_real_quadratic(self):
        assert volume(ZSQRT2) == pytest.approx(2 * math.sqrt(2), rel=1e-12)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(0)
        B = random_basis(rng, 4)
        for c in [0.3, 2.0, 7.5]:
            assert volume(B.scaled(c)) == pytest.approx(
                c ** 4 * volume(B), rel=1e-10)

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            LatticeBasis(REAL, np.array([[1.0, 0.0], [2.0, 0.0]]))


class TestShortestVector:
    def test_real_quadratic(self):
        norm = shortest_vector(ZSQRT2)
        assert norm == pytest.approx(math.sqrt(2), rel=1e-12)
        assert norm == pytest.approx(brute_force_shortest(ZSQRT2), rel=1e-12)

    def test_gaussian_integers(self):
        norm = shortest_vector(ZI)
        assert norm == pytest.approx(1.0)

    def test_degree4_field_normalized(self):
        B = nf.embedding_matrix(nf.catalog_field("F4-725"))
        sv = shortest_vector(B)
        nsv = sv / volume(B) ** 0.25
        assert nsv == pytest.approx(2.0 / 725.0 ** 0.125, rel=1e-10)

    def test_random_lattices_against_brute_force(self):
        rng = np.random.default_rng(123)
        for trial in range(50):
            rank = int(rng.integers(2, 6))
            B = random_basis(rng, rank)
            norm = shortest_vector(B)
            assert norm == pytest.approx(brute_force_shortest(B), rel=1e-9)

    def test_dimension_cap(self, monkeypatch):
        B = LatticeBasis(REAL, np.eye(30))
        with pytest.raises(lattice.EnumerationCapError):
            shortest_vector(B)
        monkeypatch.setattr(lattice, "MAX_ENUM_RANK", 32)
        norm = shortest_vector(B)
        assert norm == pytest.approx(1.0)


class TestClosestVector:
    def test_lattice_point_is_fixed(self):
        target = np.array([3.0, -2.0])
        assert np.allclose(closest_vector_coords(Z2, target) @ Z2.vectors,
                           target)

    def test_deep_hole(self):
        v = closest_vector_coords(Z2, np.array([0.5, 0.5])) @ Z2.vectors
        assert np.linalg.norm(v - [0.5, 0.5]) == pytest.approx(
            math.sqrt(0.5), rel=1e-12)
        assert set(np.round(v)) <= {0.0, 1.0}

    def test_random_rank4_against_brute_force(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            B = random_basis(rng, 4)
            target = 3.0 * rng.standard_normal(4)
            v = closest_vector_coords(B, target) @ B.vectors
            d = np.linalg.norm(v - target)
            assert d == pytest.approx(brute_force_closest(B, target),
                                      rel=1e-9, abs=1e-12)

    def test_deterministic_tie_break(self):
        u1 = closest_vector_coords(Z2, np.array([0.5, 0.5]))
        u2 = closest_vector_coords(Z2, np.array([0.5, 0.5]))
        assert np.array_equal(u1, u2)

    def test_precision_error_names_the_coordinate(self, monkeypatch):
        """A lattice far finer than its target: past 2^52 the walk's
        projected coordinate holds no fraction, every try would land on the
        same integer, and the walk stops with a typed error naming it as it
        enters the top level, before its first node."""
        monkeypatch.setattr(lattice, "MAX_ENUM_NODES", 64)
        fine = Z2.scaled(1e-20)
        with pytest.raises(lattice.EnumerationPrecisionError) as info:
            closest_vector_coords(fine, np.array([1.0, -3.0]))
        err = info.value
        assert isinstance(err, lattice.EnumerationCapError)
        assert abs(err.coordinate) >= 2.0 ** 52
        assert (err.nodes, err.budget) == (0, 64)
        assert "floats no longer hold integers" in str(err)
        with pytest.raises(lattice.EnumerationCapError) as info:
            lattice._enumerate(Z2._reduced, np.zeros(2), 1e6,
                               lambda u, d2: 1e6)
        assert type(info.value) is lattice.EnumerationCapError


class TestPointsInBall:
    def test_z2_disc_count(self):
        # Gauss circle: 13 points within radius 2 of the origin
        coords, vecs = points_in_ball(Z2, np.zeros(2), 2.0)
        assert len(coords) == 13

    def test_offcenter(self):
        coords, vecs = points_in_ball(Z2, np.array([0.5, 0.5]), 0.8)
        assert len(coords) == 4

    @pytest.mark.parametrize("radius", [-3.0, -1e-300, math.nan])
    def test_rejects_negative_or_nan_radius(self, radius):
        """``ball_bound`` squares the radius, so a negative one would search
        the ball of its magnitude: every ball search names it instead."""
        ring = nf.embedding_matrix(nf.catalog_field("Qsqrt2"))
        for search in (
                lambda: count_in_ball(ring, np.zeros(2), radius),
                lambda: points_in_ball(ring, np.zeros(2), radius),
                lambda: min_product_distance(ring, radius)):
            with pytest.raises(ValueError,
                               match="^ball radius must be non-negative, "
                                     "got (-|nan)"):
                search()

    def test_radius_zero_and_inf_keep_their_results(self):
        ring = nf.embedding_matrix(nf.catalog_field("Qsqrt2"))
        assert count_in_ball(ring, np.zeros(2), 0.0) == 1
        assert count_in_ball(ring, np.zeros(2), -0.0) == 1
        with pytest.raises(lattice.EnumerationCapError) as info:
            count_in_ball(ring, np.zeros(2), math.inf)
        assert info.value.nodes > info.value.budget


class TestCachedReduction:
    def test_lll_runs_once_per_basis(self, monkeypatch):
        calls = []
        real_lll = lattice._lll
        monkeypatch.setattr(lattice, "_lll",
                            lambda B: calls.append(1) or real_lll(B))
        # a fresh basis: the cached embedding's reduction may already exist
        emb = nf.embedding_matrix(nf.catalog_field("F4-725"))
        basis = LatticeBasis(emb.ambient, emb.vectors.copy())
        shortest_vector(basis)
        for t in ([0.3, -1.2, 0.7, 2.1], [1.0, 0.0, -0.5, 0.25]):
            lattice.closest_vector_coords(basis, np.array(t))
        points_in_ball(basis, np.zeros(basis.n), 3.0)
        invariants(basis)
        assert len(calls) == 1
        shortest_vector(basis.scaled(2.0))
        assert len(calls) == 2


class TestMinProductDistance:
    def test_real_quadratic_exact(self):
        dp = min_product_distance(ZSQRT2, 6.0)
        assert type(dp) is float
        assert dp == pytest.approx(1.0, rel=1e-12)
        assert nf.reaches_norm_floor(dp)

    def test_ring_lattices_attain_one(self):
        for name in ["Qi", "Qzeta5", "F4-725"]:
            B = nf.embedding_matrix(nf.catalog_field(name))
            dp = min_product_distance(B, 1.5 * math.sqrt(B.n))
            assert dp == pytest.approx(1.0, rel=1e-10)
            assert nf.reaches_norm_floor(dp)

    def test_zero_product_norm_rejected(self):
        with pytest.raises(ZeroProductNormError):
            min_product_distance(Z2, 2.0)

    def test_no_nonzero_vector_in_ball(self):
        # the shortest vectors of ZSQRT2 have norm sqrt(2)
        with pytest.raises(ValueError, match="within radius 1.2$"):
            min_product_distance(ZSQRT2, 1.2)


class TestInvariants:
    def test_real_quadratic_closed_forms(self):
        inv = invariants(ZSQRT2)
        assert inv.ndp == pytest.approx(1 / math.sqrt(8), rel=1e-10)
        assert inv.nsv == pytest.approx(math.sqrt(2) / 8 ** 0.25, rel=1e-10)

    def test_gaussian_integer_closed_forms(self):
        inv = invariants(ZI)
        assert inv.ndp == pytest.approx(1.0, rel=1e-10)
        assert inv.nsv == pytest.approx(1.0, rel=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(42)
        B = nf.embedding_matrix(nf.catalog_field("Qsqrt5"))
        base = invariants(B)
        for _ in range(5):
            c = float(rng.uniform(0.1, 10.0))
            scaled = invariants(B.scaled(c))
            assert scaled.nsv == pytest.approx(base.nsv, rel=1e-9)
            assert scaled.ndp == pytest.approx(base.ndp, rel=1e-9)

    @pytest.mark.parametrize("name", ["Qi", "Qsqrt2", "Qsqrt5", "Qsqrt-5",
                                      "Qzeta5", "F4-725", "F8-17"])
    def test_catalog_lemma_closed_forms(self, name):
        f = nf.catalog_field(name)
        inv = invariants(nf.embedding_matrix(f))
        d = abs(f.disc_catalog)
        if f.totally_real:
            n = f.degree
            assert inv.ndp == pytest.approx(1 / math.sqrt(d), rel=1e-8)
            assert inv.nsv == pytest.approx(math.sqrt(n) / d ** (1 / (2 * n)),
                                            rel=1e-8)
        else:
            n = f.degree // 2
            assert inv.ndp == pytest.approx(2 ** (n / 2) / d ** 0.25, rel=1e-8)
            assert inv.nsv == pytest.approx(
                math.sqrt(2 * n) / d ** (1 / (4 * n)), rel=1e-8)

    @pytest.mark.parametrize("name", ["Qi", "Qsqrt2", "Qsqrt5", "Qsqrt-5",
                                      "Qzeta5", "F4-725", "F8-17"])
    def test_am_gm_bound(self, name):
        f = nf.catalog_field(name)
        inv = invariants(nf.embedding_matrix(f))
        n = inv.n
        assert inv.ndp <= inv.nsv ** n / n ** (n / 2) + 1e-9

    def test_am_gm_on_random_lattices(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 20:
            rank = int(rng.integers(2, 5))
            B = random_basis(rng, rank)
            try:
                inv = invariants(B)
            except ZeroProductNormError:
                continue
            checked += 1
            assert inv.ndp <= inv.nsv ** rank / rank ** (rank / 2) + 1e-9
