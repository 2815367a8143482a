"""The Schnorr-Euchner walk as one loop: bit-identical to the recursive walk
it replaced.  Every leaf call, its live coordinates and squared distance,
the node count, and the error and node of any budget trip are the same.
The two part only where a projected coordinate reaches 2^52: the loop
stops there as it enters the level, the recursion ran its budget out
first.  Covered: every catalog embedding and ideal lattice, the code
lattices at rates 0.5 to 2, seeded real and complex Rayleigh hints and
single-coordinate fades of 1e-4 and 1e-8, under the faded-hint, ball and
default budgets, and random bases, targets and budgets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lll import code_bases

from latcode import channel as ch
from latcode import lattice
from latcode import numberfield as nf
from latcode.channel import STREAM_MESSAGE, stream_rng, transmit
from latcode.codebook import CodeConfig, carve, energy_normalization
from latcode.lattice import (COMPLEX, REAL, EnumerationCapError,
                             EnumerationPrecisionError, LatticeBasis,
                             MAX_ENUM_NODES)


def reference_enumerate(red, center, bound, leaf, budget=None):
    """The recursive walk, kept verbatim as the reference, except that it
    returns its node count."""
    R = red.R
    rank = len(R)
    budget = MAX_ENUM_NODES if budget is None else min(budget, MAX_ENUM_NODES)
    t = red.Q.T @ center
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
                # zig-zag order: every later candidate is at least this far
                break
            nodes += 1
            if nodes > budget:
                if abs(ci) >= 2.0 ** 52:  # no fractional part left
                    raise EnumerationPrecisionError(rank, bound, nodes,
                                                    budget, ci)
                raise EnumerationCapError(rank, bound, nodes, budget)
            u[level] = cand
            if level == 0:
                bound = leaf(u, d2)
            else:
                rec(level - 1, [y[j] - cand * R[j][level] for j in range(level)],
                    d2)
            # jumps of 1, -2, 3, -4, ... (signs flipped if ci < cand)
            cand += jump
            jump = -jump - 1 if jump > 0 else 1 - jump

    rec(rank - 1, [float(v) for v in t], 0.0)
    return nodes


BUDGETS = (lattice._FADED_NODES, lattice._BALL_DFS_NODES, None)


def walk_log(walk, red, center, bound, budget, shrink):
    """Every leaf call of ``walk`` as (u, d2, type of u's entries), then
    ("done", nodes) or the error's type, rank, bound, nodes and budget.
    With ``shrink`` the leaf lowers the bound to the best squared distance
    so far, as a closest-point leaf does; else it keeps the ball's."""
    log, best = [], [math.inf]

    def leaf(u, d2):
        log.append((tuple(u), d2, tuple(map(type, u))))
        if not shrink:
            return bound
        best[0] = min(best[0], d2)
        return best[0] * (1.0 + lattice._TIE_EPS)

    try:
        log.append(("done", walk(red, center, bound, leaf, budget)))
    except EnumerationCapError as err:
        log.append((type(err), err.rank, err.bound, err.nodes, err.budget))
    return log


def assert_same_walks(red, center, ball_bound, budgets=BUDGETS):
    """The loop and the recursion on ``red`` from ``center``: a closest-point
    walk (unbounded, shrinking) and a ball walk within ``ball_bound``, under
    each budget.  Returns the loop's logs."""
    logs = []
    for budget in budgets:
        for bound, shrink in ((math.inf, True), (ball_bound, False)):
            want = walk_log(reference_enumerate, red, center, bound, budget,
                            shrink)
            got = walk_log(lattice._enumerate, red, center, bound, budget,
                           shrink)
            assert got == want
            logs.append(got)
    return logs


def centers(basis, rng, count):
    """The origin, then noisy lattice points and uniform points of the span,
    in the real representation."""
    B = basis.real_matrix
    yield np.zeros(basis.rank)
    sigma = 0.3 * float(np.min(np.linalg.norm(B, axis=1)))
    for k in range(count):
        if k % 2 == 0:
            yield (rng.integers(-3, 4, basis.rank) @ B
                   + sigma * rng.standard_normal(basis.rank))
        else:
            yield 3.0 * rng.standard_normal(basis.rank) @ B


def assert_same_on(basis, red, rng, count=2, budgets=BUDGETS):
    """``assert_same_walks`` on ``red`` from a few centers, with the ball of
    twice the distance from each to the nearest other lattice point;
    returns the number of walks that tripped a budget."""
    trips = 0
    for center in centers(basis, rng, count):
        _, d2 = lattice._nearest(basis._reduced, center,
                                 exclude_zero=not center.any())
        for log in assert_same_walks(red, center, 4.0 * d2, budgets):
            trips += log[-1][0] != "done"
    return trips


def code_lattice(name, rate=1.0, power=10.0):
    f = nf.catalog_field(name)
    return nf.embedding_matrix(f).scaled(
        math.sqrt(energy_normalization(f, rate, power)))


class TestMatchesTheRecursion:
    def test_catalog_ideal_and_code_lattices(self):
        rng = np.random.default_rng(41)
        bases = list(code_bases())
        trips = sum(assert_same_on(basis, basis._reduced, rng)
                    for _, basis in bases)
        assert len(bases) > 100
        assert trips > 0  # some ball walks run past the ball's budget

    @pytest.mark.parametrize("name, model", [
        ("F4-725", ch.RAYLEIGH_REAL), ("F8-17", ch.RAYLEIGH_REAL),
        ("Qzeta5", ch.RAYLEIGH_COMPLEX), ("Qi", ch.RAYLEIGH_COMPLEX)])
    def test_seeded_rayleigh_hints(self, name, model):
        basis = code_lattice(name)
        rng = np.random.default_rng(42)
        for t in range(10):
            h = ch.sample_realization(model, basis.n, 7, t).fading
            faded = basis.faded(h)
            assert_same_on(faded, faded._hint, rng)
            assert_same_on(faded, faded._reduced, rng, count=1)

    @pytest.mark.parametrize("name", ["F4-725", "F8-17", "Qzeta5"])
    def test_single_coordinate_deep_fades(self, name):
        # the hint's rows are far from reduced here, and a walk on them
        # under the default budget runs to millions of nodes: the hint's
        # own budget, the ball's, and one between stand for it
        basis = code_lattice(name)
        rng = np.random.default_rng(43)
        phase = np.exp(0.7j) if basis.ambient == COMPLEX else 1.0
        trips = 0
        for depth in (1e-4, 1e-8):
            for col in range(basis.n):
                h = np.ones(basis.n) * phase
                h[col] *= depth
                faded = basis.faded(h)
                trips += assert_same_on(
                    faded, faded._hint, rng,
                    budgets=BUDGETS[:2] + (1 << 12,))
        assert trips > 0  # the hint's budget trips on deep fades

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.integers(1, 4),
           st.floats(-3.0, 3.0), st.floats(0.1, 3.0),
           st.sampled_from([0, 1, 5, 40, 300, None]))
    def test_random_bases(self, seed, is_complex, half_rank, scale, reach,
                          budget):
        """Gaussian rows with uneven columns at a scale of 1e-3 to 1e3, a
        center in the span, the closest-point walk and a ball of ``reach``
        shortest vectors, under a random budget."""
        rng = np.random.default_rng(seed)
        rank = 2 * half_rank if is_complex else half_rank + 1
        B = rng.standard_normal((rank, rank)) * np.exp(rng.standard_normal(rank))
        B *= 10.0 ** scale
        basis = (LatticeBasis(COMPLEX, B[:, 0::2] + 1j * B[:, 1::2])
                 if is_complex else LatticeBasis(REAL, B))
        red = basis._reduced
        center = rng.uniform(-3.0, 3.0, rank) @ basis.real_matrix
        sv = lattice.shortest_vector(basis)[1]
        for bound, shrink in ((math.inf, True), ((reach * sv) ** 2, False)):
            assert (walk_log(lattice._enumerate, red, center, bound, budget,
                             shrink)
                    == walk_log(reference_enumerate, red, center, bound,
                                budget, shrink))


class TestTooFineALattice:
    """At -400 dB the F4-725 code lattice is about 1e-20 across: the walk
    stops as it enters the first level whose projected coordinate is past
    2^52, on the faded hint and on the fallback's own reduction alike,
    where the recursion first spent each walk's whole budget."""

    def test_decode_stops_within_the_rank(self):
        f = nf.catalog_field("F4-725")
        code = carve(CodeConfig(rate=1.0, power=1e-40, field=f, seed=1))
        m = int(stream_rng(1, 0, STREAM_MESSAGE).integers(code.size))
        y, r = transmit(code.points[m], ch.RAYLEIGH_REAL, 1, 0)
        faded = code.basis.faded(r.fading)
        target = faded.to_real(y - r.fading * code.shift)
        for red in (faded._hint, faded._reduced):
            for walk in (lattice._enumerate, reference_enumerate):
                with pytest.raises(EnumerationPrecisionError) as info:
                    walk(red, target, math.inf, lambda u, d2: d2,
                         lattice._FADED_NODES)
                err = info.value
                assert abs(err.coordinate) >= 2.0 ** 52
                if walk is lattice._enumerate:
                    assert err.nodes <= faded.rank
                else:
                    assert err.nodes == lattice._FADED_NODES + 1
        with pytest.raises(EnumerationPrecisionError) as info:
            lattice.closest_vector_coords(faded, y - r.fading * code.shift)
        assert info.value.nodes <= faded.rank
        assert info.value.budget == MAX_ENUM_NODES  # the fallback's walk
