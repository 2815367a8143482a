"""Naive lattice decoding and ML decoding with receiver-side channel knowledge.

Fading is folded into the lattice basis (never divided out), so tiny
coefficients cannot blow up numerically.  The faded basis carries a hint,
the code lattice's cached reduction with its rows faded: the closest-point
search first walks it within a small node budget, and LLL-reduces the
faded basis itself only when a deep fade trips that budget.  A simulation
builds a block of trials' faded bases at once and hands each to
``nld_decode``; a single decode builds its own.  An exactly zero
coefficient makes the faded basis singular, and NLD raises ``ValueError`` on
it; ML decodes it.

Both decoders return their decision (``DecodeOutcome``): whether it is the
sent codeword, decided in integers, and the decided point's coordinates in
the code basis (NLD) or its codebook row (ML); whether an NLD point lies in
the codebook is computed only when read.  ``ml_near_rows`` alone chooses
the rows an ML decode scores, for every trial of a block: an unfaded large
code is pruned by its prefix groups in one pass a trial, which bounds every
group from one product and scores the kept rows at once, and every other
code is scored as a block, with one product over the code's rows, one mask
over the rescoring window and one ``nonzero``.  ``ml_decode`` rescores a
trial only if more than one row lies in its window; called alone it is a
block of one.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import lattice
from .channel import ChannelRealization
from .codebook import Codebook

_ML_WINDOW = 1e-9  # relative to the score bound M in _score_block
# _score_block holds the scores of at most this many bytes of (trials x
# codewords) at once, and of one trial at least.  Per ML decode in a block
# of 64 trials (in-process, best of 15, 2 CPUs): the 268-row F8-17 code
# fits whole (134 KiB) and cost 2.2 us against 13 us a trial alone (AWGN;
# Rayleigh 2.3 against 18); on the 4,132-row code 4-12 trials a product
# cost 14-21 us (AWGN) and 20-29 us (Rayleigh) against 38 and 60.  With
# 16 or more trials a product (0.5 MiB) that code's product stalled in
# threaded OpenBLAS in some runs: 31 trials cost 456 us once.
_ML_SCORE_BYTES = 1 << 18
# ml_near_rows prunes the scoring of an unfaded code whose points take at
# least this many bytes by its prefix groups (_pruned_near).  Per AWGN ML
# decode (in-process, best of 7 runs of 256 trials, 2 CPUs) on the 8k-, 16k-
# and 65k-row F8-17, F4-725 and Qzeta5 codes, the pass cost 30-43 us, the
# block scan 27-30, 64-78 and 247-318 us: the crossover is at 8.2k-11.6k rows
# (F8-17 514-727 KiB, the others 257-362), so 0.5 MiB would lose on F8-17.
_ML_PRUNE_BYTES = 1 << 20


class DecodeOutcome:
    """What a decode decided.  ``correct`` says whether it decided the sent
    codeword and ``is_codeword`` whether the point it decided lies in the
    codebook; each subclass names that point its own way."""


class _NldOutcome(DecodeOutcome):
    """An NLD decision, the lattice point with coordinates ``coords`` in
    the code basis; whether it is a codeword is computed on first read."""

    def __init__(self, correct: bool, codebook: Codebook, coords):
        self.correct, self.coords, self._codebook = correct, coords, codebook

    @functools.cached_property
    def is_codeword(self) -> bool:
        # the codebook is every shifted lattice point in carve's ball
        code = self._codebook
        x = code.shift + self.coords.astype(float) @ code.basis.vectors
        radius = math.sqrt(code.n * code.power)
        return (float(np.add.reduce(np.abs(x) ** 2))
                <= lattice.ball_bound(radius))


class _MlOutcome(DecodeOutcome):
    """An ML decision, row ``row`` of the code."""

    is_codeword = True

    def __init__(self, correct: bool, row: int):
        self.correct, self.row = correct, row


def nld_decode(y, realization: ChannelRealization, codebook: Codebook,
               sent: int, faded: lattice.LatticeBasis | None = None
               ) -> DecodeOutcome:
    """Closest point in the infinite shifted faded lattice.

    Decoding lands on shift + alpha*psi(x) for some algebraic integer x; it
    is correct when x's integer coordinates in the code basis, all that
    ``lattice.closest_vector_coords`` returns, equal row ``sent``'s
    (``codebook.coords`` needed, carried into the code basis once per code,
    ``Codebook._basis_coords``).  The outcome holds those coordinates, and
    whether they give a codeword is computed when read.  Unit fading is
    left out of every product: a product by 1 is exact.  On a fading
    channel, ``faded`` is the code lattice faded by this realization, as a
    caller that builds a block of them at once (``LatticeBasis.faded``)
    passes it; without it the decode builds its own.
    """
    if realization.model.fading:
        fading = realization.fading
        # its cached LLL rows are faded and searched first
        basis = codebook.basis.faded(fading) if faded is None else faded
        target = y - fading * codebook.shift
    else:  # the code lattice itself is searched: one cached reduction
        basis, target = codebook.basis, y - codebook.shift
    coords = lattice.closest_vector_coords(basis, target)
    correct = coords.tolist() == codebook._basis_coords[sent].tolist()
    return _NldOutcome(correct, codebook, coords)


def _exact_metrics(y, fading, rows) -> np.ndarray:
    """||y - fading * x||^2 for each row x, in a full scan's arithmetic;
    ``fading`` None is unit fading, not multiplied in.

    ``fading`` enters as a (1, n) row: numpy multiplies a single complex
    coordinate against a (1, 1) block in a scalar loop that rounds
    differently from the loop a scan of many rows takes."""
    if fading is not None:
        rows = fading[None] * rows
    return np.add.reduce(np.abs(y - rows) ** 2, axis=1)


def ml_decode(y, realization: ChannelRealization, codebook: Codebook,
              sent: int, near: np.ndarray | None = None) -> DecodeOutcome:
    """Exhaustive minimum-distance search over the finite codebook; it is
    correct when the winning row is row ``sent``.

    ``near`` holds the rows whose score lies near this trial's best
    (``ml_near_rows``), as a caller that scores a block of trials at once
    passes it; without it the decode is a block of one.  One near row is
    the decision.  Several are rescored with the exact per-row arithmetic
    of a full scan, and the first index among the exact minima wins, as in
    a full scan.
    """
    fading = realization.fading if realization.model.fading else None
    if near is None:
        near = ml_near_rows(np.asarray(y)[None],
                            None if fading is None else fading[None],
                            codebook)[0]
    if len(near) == 1:
        row = int(near[0])
    else:  # first index wins ties
        row = int(near[_exact_metrics(y, fading, codebook.points[near])
                        .argmin()])
    return _MlOutcome(row == sent, row)


def ml_near_rows(y, fading, codebook: Codebook) -> list:
    """For each trial of a block, the indices, in codebook order, of the
    rows that ``ml_decode`` rescores (``_score_block``): ``y`` is the
    (T, n) stack of received words and ``fading`` their (T, n) fadings, or
    None for unit fading.

    On an unfaded channel a code of at least ``_ML_PRUNE_BYTES`` that has a
    prefix index (``Codebook._prefixes``) is scored only on the row groups
    that a lower bound from the walk's top levels does not exclude, in one
    pass a trial (``_pruned_near``, Agrell, Eriksson, Vardy and Zeger,
    "Closest point search in lattices", IEEE Trans. IT 2002).  The size is
    tested first, so a small code never builds its index."""
    if (fading is not None or codebook.points.nbytes < _ML_PRUNE_BYTES
            or codebook._prefixes is None):
        return _score_block(y, fading, codebook)
    return [_pruned_near(yt, codebook) for yt in y]


def _score_block(y, fading, codebook: Codebook) -> list:
    """For each row of the (T, n) stack ``y`` of received words, faded by
    the (T, n) ``fading`` (None: unit fading), the indices, in codebook
    order, of the rows whose score lies within the rescoring window of that
    trial's lowest.

    Every codeword x is scored by ||y - h x||^2 - ||y||^2 =
    sum_i |h_i|^2 |x_i|^2 - 2 Re sum_i conj(y_i) h_i x_i.  The second sum
    is a product of the rows, complex ones read as re, im pairs
    (``LatticeBasis.to_real``), with re, im pairs of -2 y conj(h).  On a
    fading channel the first is another product, with the codebook's
    cached ``|points|^2``; an unfaded channel has unit fading, so the first
    sum is the cached row norm ||x||^2 and h is multiplied in nowhere.
    Each product takes as many trials at once as keep the (trials x
    codewords) score matrix within ``_ML_SCORE_BYTES`` (one trial at least,
    whose product runs over blocks of the code's rows), and one mask and
    one ``nonzero`` pick the near rows of all of them.

    Both sums are at most M = ||y||^2 + max|h|^2 max||x||^2 in magnitude,
    and the exact metric at most 2M, so a score and the exact metric less
    ||y||^2 differ by a few n ulps of M.  If they differ by at most e on
    every row, the first exact minimizer scores within 2e of the lowest
    score, on every set of rows that holds it, as ``_pruned_near``'s do.
    Every row scoring within ``_ML_WINDOW`` * M of the lowest, far above
    2e, is returned for rescoring.  Usually only the winner is; an exactly
    zero fading coefficient makes rows that differ only there tie exactly,
    and all of them are.
    """
    points, (norm2, max_norm2) = codebook.points, codebook._norms
    to_real = codebook.basis.to_real
    flat = to_real(points)
    weights = to_real(-2.0 * y if fading is None
                      else -2.0 * y * np.conjugate(fading))
    yy = np.einsum("ij,ij->i", to_real(y), to_real(y))
    if fading is None:
        big_m = yy + max_norm2
    else:
        w = (np.conjugate(fading) * fading).real
        big_m = yy + np.maximum.reduce(w, axis=1) * max_norm2
    step = max(1, _ML_SCORE_BYTES // (8 * len(points)))
    near = []
    for lo in range(0, len(y), step):
        part = slice(lo, lo + step)
        scores = _over_rows(weights[part], flat)
        scores += (norm2 if fading is None
                   else _over_rows(w[part], codebook._squares))
        cut = np.minimum.reduce(scores, axis=1) + _ML_WINDOW * big_m[part]
        trial, rows = np.divmod(np.flatnonzero(scores <= cut[:, None]),
                                len(points))
        ends = np.searchsorted(trial, np.arange(len(cut) + 1)).tolist()
        near += [rows[a:b] for a, b in zip(ends[:-1], ends[1:])]
    return near


def _over_rows(w, rows) -> np.ndarray:
    """``w @ rows.T``: the (T, N) products of T trials' weights with a
    code's N rows.  One trial's product is taken over blocks of the rows
    (``lattice.rows_product``)."""
    if len(w) == 1:
        return lattice.rows_product(rows, w[0])[None]
    return w @ rows.T


def _pruned_near(y, codebook: Codebook) -> np.ndarray:
    """``_score_block``'s near rows of the one unfaded trial ``y``, scored
    only on the prefix groups (``Codebook._prefixes``) whose lower bound
    does not exclude the first exact minimizer of ||y - x||^2, or on every
    row if those groups hold more than half the code.

    Group g's bound b_g = ||levels_g - q y||^2 (``PrefixIndex``), at most
    the exact metric of each of its rows, is taken for every group from one
    product as norms_g - 2 levels_g . q y + ||q y||^2 (-2 q y is exact from
    -2 y).  The group with the lowest bound is scored first: its best score
    plus ||y||^2, u, is at least the exact minimum, so a group holding a
    minimizer has b_g <= u in exact arithmetic; only groups with
    b_g <= u + ``_ML_WINDOW`` * M' are kept, for M' = (||y|| + max||x||)^2
    over the code's rows x (``Codebook._norms``).  levels_g is q x for every
    row x of group g (a prefix is the code's exact integer coordinates),
    and q has orthonormal rows, so ||levels_g|| <= max||x||: every term of
    the expanded bound, of the score and of the exact metric is at most M'
    in magnitude.  Each of b_g, u and the exact metric errs by a few
    dim ulps of M', far inside the window: the group holding the first exact
    minimizer is always kept.  The kept rows are gathered and scored once,
    as ``_score_block`` scores them, with its cut.
    """
    index, points = codebook._prefixes, codebook.points
    norm2, max_norm2 = codebook._norms
    to_real = codebook.basis.to_real
    w = to_real(-2.0 * y)
    qw = index.q @ w
    bound = qw @ index.levels + index.norms
    g = bound.argmin()
    lo, hi = index.starts[g:g + 2].tolist()
    yy = 0.25 * float(w @ w)
    upper = np.minimum.reduce(
        lattice.rows_product(to_real(points[lo:hi]), w) + norm2[lo:hi])
    # ||q y||^2 moves to the right-hand side
    keep = (bound <= upper + (yy - 0.25 * float(qw @ qw)) + _ML_WINDOW
            * (math.sqrt(yy) + math.sqrt(max_norm2)) ** 2).nonzero()[0]
    size = index.sizes[keep]
    ends = size.cumsum()
    if 2 * ends[-1] > len(points):  # scoring every row costs less
        return _score_block(y[None], None, codebook)[0]
    rows = np.arange(ends[-1]) + (index.starts[keep] - ends + size).repeat(size)
    scores = lattice.rows_product(to_real(points.take(rows, axis=0)), w)
    scores += norm2[rows]
    return rows[scores <= np.minimum.reduce(scores)
                + _ML_WINDOW * (yy + max_norm2)]
