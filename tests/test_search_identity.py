"""The searches on one ``Reduction`` value: bit-identical results to the
searches they replaced, which read a positional reduction tuple, kept a
second one on faded bases and converted every ball point to the caller's
basis.  Covered: every catalog embedding, the F8-17 carving balls at rates 1,
1.5 and 2 (rate 2 goes level by level), seeded Rayleigh fades, and the
single-coordinate deep fades whose fast walk trips into the fallback."""

import array
import math

import numpy as np
import pytest
from test_enum import count_in_ball

from latcode import channel as ch
from latcode import lattice
from latcode import numberfield as nf
from latcode.codebook import energy_normalization, shift_search
from latcode.lattice import EnumerationCapError, LatticeBasis

# The searches before the reduction became a value, kept verbatim as
# references that the new ones must match exactly, except where the
# reduction comes from: they take it as the dict ``reference_reduced``
# builds, with the same arithmetic, and a faded basis takes its parent and
# fading explicitly.


def reference_reduced(basis, parent=None, h=None):
    """LLL rows, U, the QR of the rows and R as lists; with ``parent`` and
    ``h``, the parent's LLL rows faded by ``h`` and the parent's U."""
    rows, U = lattice._lll((basis if parent is None else parent).real_matrix)
    if parent is not None:
        rows = basis.to_real(basis.to_ambient(rows) * h)
    Q, R = lattice._qr(rows)
    return {"rows": rows, "U": U, "Q": Q, "R": R.tolist()}


def reference_enumerate(basis, center, bound, leaf, budget, red):
    rank = basis.rank
    budget = (lattice.MAX_ENUM_NODES if budget is None
              else min(budget, lattice.MAX_ENUM_NODES))
    if rank > lattice.MAX_ENUM_RANK:
        raise EnumerationCapError(rank, bound, 0, budget)
    Q, R = red["Q"], red["R"]
    t = Q.T @ basis.to_real(np.asarray(center))
    u = [0] * rank
    nodes = 0

    def rec(level, y, acc):
        nonlocal bound, nodes
        rii = R[level][level]
        yl = y[level]
        ci = yl / rii
        cand = math.floor(ci + 0.5)
        jump = 1 if ci >= cand else -1
        while True:
            diff = yl - cand * rii
            d2 = acc + diff * diff
            if d2 > bound:
                break
            u[level] = cand
            if level == 0:
                bound = leaf(u, d2)
            else:
                rec(level - 1, [y[j] - cand * R[j][level] for j in range(level)],
                    d2)
            cand += jump
            jump = -jump - 1 if jump > 0 else 1 - jump
        nodes += abs(jump) - 1
        if nodes > budget:
            raise EnumerationCapError(rank, bound, nodes, budget)

    rec(rank - 1, [float(v) for v in t], 0.0)


def reference_nearest(basis, target, red, exclude_zero=False, budget=None):
    best_u, best_d2 = None, math.inf

    def leaf(u, d2):
        nonlocal best_u, best_d2
        if exclude_zero and not any(u):
            pass
        elif d2 < best_d2 - lattice._TIE_EPS:
            best_u, best_d2 = u.copy(), d2
        elif u < best_u:
            best_u, best_d2 = u.copy(), min(best_d2, d2)
        return best_d2 + lattice._TIE_EPS

    reference_enumerate(basis, target, math.inf, leaf, budget, red)
    return best_u, best_d2


def reference_shortest_vector(basis):
    red = reference_reduced(basis)
    _, d2 = reference_nearest(basis, np.zeros(basis.n), red,
                              exclude_zero=True)
    return math.sqrt(d2)


def reference_closest_vector_coords(basis, target, parent=None, h=None):
    if parent is not None:
        try:
            return reference_closest(
                basis, target, reference_reduced(basis, parent, h),
                lattice._FADED_NODES)
        except EnumerationCapError:
            pass
    return reference_closest(basis, target, reference_reduced(basis))


def reference_closest(basis, target, red, budget=None):
    u, _ = reference_nearest(basis, target, red, budget=budget)
    u = np.asarray(u, dtype=np.int64)
    return basis.to_ambient(u.astype(float) @ red["rows"]), u @ red["U"]


def reference_enumerate_levels(basis, center, bound, keep, red):
    rank, budget = basis.rank, lattice.MAX_ENUM_NODES
    if rank > lattice.MAX_ENUM_RANK:
        raise EnumerationCapError(rank, bound, 0, budget)
    Q, R = red["Q"], red["R"]
    R = np.array(R)
    t = Q.T @ basis.to_real(np.asarray(center))
    nodes, points, leaves = 0, 0, []
    stack = [(rank - 1, t[None, :], np.zeros(1),
              np.zeros((1, rank if keep else 0)))]
    while stack:
        level, y, acc, u = stack.pop()
        rll = R[level, level]
        tries = int(2.0 * math.sqrt(bound - acc.min()) / abs(rll)) \
            + lattice._ZIGZAG_SPARE
        take = max(1, lattice._LEVEL_BLOCK // tries)
        if take < len(acc):
            stack.append((level, y[take:], acc[take:], u[take:]))
            y, acc, u = y[:take], acc[:take], u[:take]
        yl = y[:, level]
        ci = yl / rll
        nearest = np.floor(ci + 0.5)
        sign = np.where(ci >= nearest, 1.0, -1.0)
        while True:
            j = np.arange(tries)[:, None]
            cand = nearest + sign * ((j + 1) // 2 * np.where(j & 1, 1.0, -1.0))
            diff = yl - cand * rll
            d2 = acc + diff * diff
            inside = ~np.logical_or.accumulate(d2 > bound)
            if not inside[-1].any():
                break
            tries *= 2
        keep_at = np.flatnonzero(inside)
        nodes += len(keep_at)
        if nodes > budget:
            raise EnumerationCapError(rank, bound, nodes, budget)
        node = keep_at % len(acc)
        cand = np.take(cand, keep_at)
        u = np.take(u, node, axis=0)
        if keep:
            u[:, level] = cand
        if level == 0:
            points += len(node)
            if keep:
                leaves.append(u)
        elif len(node):
            y = np.take(y[:, :level], node, axis=0)
            y -= cand[:, None] * R[:level, level]
            stack.append((level - 1, y, np.take(d2, keep_at), u))
    if not keep:
        return points, None
    return points, np.concatenate(leaves) if leaves else np.zeros((0, rank))


def reference_points_in_ball(basis, center, radius):
    red = reference_reduced(basis)
    r2 = lattice.ball_bound(radius)
    flat = array.array("d")
    try:
        reference_enumerate(basis, center, r2,
                            lambda u, d2: flat.extend(u) or r2,
                            lattice._BALL_DFS_NODES, red)
        ured = np.frombuffer(flat).reshape(-1, basis.rank)
    except EnumerationCapError:
        ured = reference_enumerate_levels(basis, center, r2, True, red)[1]
    if not len(ured):
        coords = np.zeros((0, basis.rank), dtype=np.int64)
        vecs = np.zeros((0, basis.n), dtype=basis.vectors.dtype)
        return coords, vecs
    Bred, U = red["rows"], red["U"]
    ured = np.take(ured, np.lexsort(ured.T[::-1]), axis=0)
    vec_real = ured @ Bred
    coords = ured.view(np.int64)
    for lo in range(0, len(ured), lattice._LEVEL_BLOCK):
        block = slice(lo, lo + lattice._LEVEL_BLOCK)
        coords[block] = ured[block].astype(np.int64) @ U
    return coords, np.atleast_2d(basis.to_ambient(vec_real))


# ---------------------------------------------------------------- checks


def assert_same_ball(basis, center, radius):
    """The same vectors in the same order; the old caller-basis coordinates
    are the new coordinates times ``_reduced.U``.  Returns the count."""
    coords, vecs = lattice.points_in_ball(basis, center, radius)
    ref_coords, ref_vecs = reference_points_in_ball(basis, center, radius)
    assert vecs.dtype == ref_vecs.dtype and np.array_equal(vecs, ref_vecs)
    assert coords.shape == ref_coords.shape
    assert np.array_equal(coords @ basis._reduced.U, ref_coords)
    assert count_in_ball(basis, center, radius) == len(ref_coords)
    return len(coords)


def assert_same_closest(basis, target, parent=None, h=None):
    coords = lattice.closest_vector_coords(basis, target)
    _, ref_coords = reference_closest_vector_coords(basis, target, parent, h)
    assert coords.dtype == ref_coords.dtype
    assert np.array_equal(coords, ref_coords)


def assert_same_shortest(basis):
    sv = lattice.shortest_vector(basis)
    assert sv == reference_shortest_vector(basis)
    return sv


def targets(basis, rng, count):
    """Noisy lattice points and uniform points of a box of lattice cells."""
    B = basis.real_matrix
    sigma = 0.3 * float(np.min(np.linalg.norm(B, axis=1)))
    for k in range(count):
        if k % 2 == 0:
            x = rng.integers(-3, 4, basis.rank) @ B
            x = x + sigma * rng.standard_normal(basis.rank)
        else:
            x = 3.0 * rng.standard_normal(basis.rank) @ B
        yield basis.to_ambient(x)


def code_lattice(name, rate, power=10.0):
    f = nf.catalog_field(name)
    return nf.embedding_matrix(f).scaled(
        math.sqrt(energy_normalization(f, rate, power)))


class TestMatchesOldSearches:
    @pytest.mark.parametrize("name", [f.name for f in nf.load_catalog()])
    def test_catalog_embeddings(self, name):
        basis = nf.embedding_matrix(nf.catalog_field(name))
        rng = np.random.default_rng(31)
        sv = assert_same_shortest(basis)
        for target in targets(basis, rng, 6):
            assert_same_closest(basis, target)
        # the invariants' product-distance ball, and one off the origin
        assert assert_same_ball(basis, np.zeros(basis.n), 1.5 * sv) > 1
        center = basis.to_ambient(rng.random(basis.rank) @ basis.real_matrix)
        assert_same_ball(basis, center, 2.0 * sv)
        # a ball with no point in it
        assert assert_same_ball(basis, center, 1e-3 * sv) == 0

    @pytest.mark.parametrize("rate", [1.0, 1.5, 2.0])
    def test_f8_17_carving_balls(self, rate):
        basis = code_lattice("F8-17", rate)
        shift = shift_search(basis, 10.0, 0)[0]
        count = assert_same_ball(basis, -shift, math.sqrt(80.0))
        assert count >= 2 ** (8 * rate)
        assert_same_shortest(basis)
        for target in targets(basis, np.random.default_rng(32), 4):
            assert_same_closest(basis, target)

    @pytest.mark.parametrize("name, model", [
        ("F4-725", ch.RAYLEIGH_REAL), ("F8-17", ch.RAYLEIGH_REAL),
        ("Qzeta5", ch.RAYLEIGH_COMPLEX)])
    def test_seeded_rayleigh_fades(self, name, model):
        basis = code_lattice(name, 1.0)
        rng = np.random.default_rng(33)
        for t in range(12):
            h = ch.sample_realization(model, basis.n, 7, t).fading
            faded = basis.faded(h)
            for target in targets(faded, rng, 3):
                assert_same_closest(faded, target, basis, h)
            plain = LatticeBasis(basis.ambient, basis.vectors * h)
            assert_same_shortest(faded)
            assert_same_ball(faded, np.zeros(basis.n),
                             2.0 * lattice.shortest_vector(plain))

    @pytest.mark.parametrize("name", ["F4-725", "F8-17", "Qzeta5"])
    def test_single_coordinate_deep_fades(self, name):
        basis = code_lattice(name, 1.0)
        rng = np.random.default_rng(34)
        phase = np.exp(0.7j) if basis.ambient == lattice.COMPLEX else 1.0
        tripped = 0
        for depth in (1e-2, 1e-3, 1e-5, 1e-8):
            for col in range(basis.n):
                h = np.ones(basis.n) * phase
                h[col] *= depth
                faded = basis.faded(h)
                for target in targets(faded, rng, 2):
                    assert_same_closest(faded, target, basis, h)
                    try:
                        lattice._closest(faded, faded._hint, target,
                                         lattice._FADED_NODES)
                    except EnumerationCapError:
                        tripped += 1
        assert tripped > 0  # the fallback is covered
