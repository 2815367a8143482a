"""The array minimum of the product norm: identical results to the per-point
loops of ``min_product_distance`` and ``min_ideal`` that it replaced, and the
one ball-volume formula against mpmath."""

import math

import mpmath
import numpy as np
import pytest

from latcode import lattice
from latcode import numberfield as nf
from latcode.lattice import (REAL, LatticeBasis, ZeroProductNormError,
                             points_in_ball)

CAT = nf.load_catalog()
NAMES = [f.name for f in CAT]


# The per-point loops the array minimum replaced, kept verbatim as references
# that it must match exactly.

def reference_product_norm(vec) -> float:
    """Product of coordinate moduli in the ambient space."""
    v = np.asarray(vec)
    return float(np.prod(np.abs(v)))


def reference_min_product_distance(basis, radius):
    coords, vecs = points_in_ball(basis, np.zeros(basis.n), radius)
    dp = math.inf
    for u, v in zip(coords, vecs):
        if not np.any(u):
            continue
        norm = float(np.linalg.norm(v))
        if np.min(np.abs(v)) <= 1e-9 * max(1.0, norm):
            raise ZeroProductNormError(v)
        dp = min(dp, reference_product_norm(v))
    if math.isinf(dp):
        raise ValueError(f"no nonzero lattice vector within radius {radius}")
    return dp


def reference_min_ideal(f, ideal, search_radius=None):
    if search_radius is None:
        search_radius = nf.default_min_ideal_radius(f, ideal)
    basis = nf.ideal_lattice(f, ideal)
    best = math.inf
    for r in (search_radius / 4.0, search_radius / 2.0, search_radius):
        coords, vecs = lattice.points_in_ball(basis, np.zeros(basis.n), r)
        for u, v in zip(coords, vecs):
            if not np.any(u):
                continue
            p = reference_product_norm(v)
            # product over chosen embeddings: sqrt(|Nr|) complex, |Nr| real
            if f.totally_real:
                best = min(best, p / ideal.norm)
            else:
                best = min(best, p / math.sqrt(ideal.norm))
        if best <= 1.0 + 1e-9:
            break
    if math.isinf(best):
        raise ValueError(
            f"no nonzero ideal element within radius {search_radius}")
    return best


def outcome(fn, *args, **kwargs):
    """The value, or the error's type, message and carried vector."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, lattice.EnumerationCapError) as exc:
        vector = getattr(exc, "vector", None)
        return (type(exc), str(exc),
                None if vector is None else vector.tolist())


def assert_same(basis, radius):
    got = outcome(lattice.min_product_distance, basis, radius)
    want = outcome(reference_min_product_distance, basis, radius)
    assert got == want
    return got


def catalog_ideals(f):
    """The ideals the ``ideal`` table reports: the catalog's, and the unit
    ideal where none has norm 1."""
    ideals = list(f.ideals)
    if not any(i.norm == 1 for i in ideals):
        ideals.insert(0, f.unit_ideal())
    return ideals


class TestMinProductDistanceOracle:
    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("scale", [0.37, 1.0, 2.9])
    def test_catalog_embeddings(self, name, scale):
        basis = nf.embedding_matrix(nf.catalog_field(name)).scaled(scale)
        _, sv = lattice.shortest_vector(basis)
        results = [assert_same(basis, k * sv) for k in (0.5, 1.5, 2.5)]
        # below the shortest vector the ball holds only the origin
        assert results[0][0] is ValueError
        assert isinstance(results[2], float)

    def test_random_bases(self):
        rng = np.random.default_rng(5)
        for t in range(60):
            rank = 2 + t % 4
            basis = LatticeBasis(REAL, rng.standard_normal((rank, rank)))
            _, sv = lattice.shortest_vector(basis)
            for k in (0.5, 1.5, 2.5):
                assert_same(basis, k * sv)

    @pytest.mark.parametrize("rows,radius", [
        ([[1.0, 0.0], [0.0, 1.0]], 2.0),
        # 5e-8 is zero relative to the norm 100, not in absolute terms
        ([[100.0, 5e-8], [31.0, 170.0]], 150.0)])
    def test_zero_product_norm_carries_the_same_vector(self, rows, radius):
        kind, _, vector = assert_same(LatticeBasis(REAL, np.array(rows)),
                                      radius)
        assert kind is ZeroProductNormError
        assert min(map(abs, vector)) <= 1e-9 * math.hypot(*vector)


class TestMinIdealOracle:
    @pytest.mark.parametrize("name", NAMES)
    def test_catalog_ideals(self, name):
        f = nf.catalog_field(name)
        for ideal in catalog_ideals(f):
            radius = nf.default_min_ideal_radius(f, ideal)
            for r in (radius / 4.0, radius / 2.0, radius):
                assert outcome(nf.min_ideal, f, ideal, search_radius=r) \
                    == outcome(reference_min_ideal, f, ideal, search_radius=r)


class TestBallVolume:
    @pytest.mark.parametrize("name", NAMES)
    def test_against_mpmath(self, name):
        f = nf.catalog_field(name)
        d, n = f.degree, f.ambient_n
        with mpmath.workdps(40):
            for radius in (0.3, 1.0, math.sqrt(n * 100.0), 25.0):
                r = mpmath.mpf(radius)
                want = mpmath.pi ** (mpmath.mpf(d) / 2) * r ** d \
                    / mpmath.gamma(mpmath.mpf(d) / 2 + 1)
                # Vol(B(r)) = C (r^2/n)^{d/2}, as energy_normalization and
                # the shift search take it
                got = math.exp(lattice._ln_ball_constant(d, n)
                               + 0.5 * d * math.log(radius * radius / n))
                assert got == pytest.approx(float(want), rel=1e-13)
