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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice
from .channel import ChannelRealization
from .codebook import Codebook, PrefixIndex

_ML_WINDOW = 1e-9  # relative to the score bound M in _near_best
# ml_decode scans codes this small without scoring them first; scoring
# cost less than a scan on a 256-point Rayleigh code
_ML_SCAN_ROWS = 64
# ml_decode prunes the scoring of an unfaded code whose points take at least
# this many bytes by its prefix groups (_pruned_rows).  Median per decode
# (in-process, 2 CPUs): at 0.5 MiB pruning cost 73 against 61 us on F8-17
# (8,229 rows) but 60 against 71 us on F4-725 and 93 against 156 us on
# Qzeta5; from 1 MiB (16,408 F8-17 rows: 82 against 126 us) to 4 MiB
# (65,577 F8-17 rows: 81 against 274 us) it won on every code.
_ML_PRUNE_BYTES = 1 << 20


@dataclass(frozen=True)
class DecodeOutcome:
    decoded: np.ndarray
    is_codeword: bool
    correct: bool
    metric: float


def nld_decode(y, realization: ChannelRealization, codebook: Codebook,
               sent: int, faded: lattice.LatticeBasis | None = None
               ) -> DecodeOutcome:
    """Closest point in the infinite shifted faded lattice.

    Decoding lands on shift + alpha*psi(x) for some algebraic integer x; it
    is correct when x's integer coordinates in the code basis, which every
    search path returns, equal row ``sent``'s (``codebook.coords`` needed).
    Unit fading is left out of every product: a product by 1 is exact.  On
    a fading channel, ``faded`` is the code lattice faded by this
    realization, as a caller that builds a block of them at once
    (``LatticeBasis.faded``) passes it; without it the decode builds its own.
    """
    shift, fading = codebook.shift, realization.fading
    is_faded = realization.model.fading
    # unfaded, the code lattice itself is searched: one cached reduction;
    # faded, its cached LLL rows are faded and searched first
    if is_faded:
        basis = codebook.basis.faded(fading) if faded is None else faded
        target = y - fading * shift
    else:
        basis, target = codebook.basis, y - shift
    _, coords = lattice.closest_vector_coords(basis, target)
    decoded = shift + coords.astype(float) @ codebook.basis.vectors
    residual = y - fading * decoded if is_faded else y - decoded
    metric = float(np.add.reduce(np.abs(residual) ** 2))
    # the codebook is every shifted lattice point in carve's ball
    radius = math.sqrt(codebook.n * codebook.power)
    is_codeword = (float(np.add.reduce(np.abs(decoded) ** 2))
                   <= lattice.ball_bound(radius))
    sent_coords = codebook.coords[sent] @ codebook.basis._reduced.U
    return DecodeOutcome(decoded=decoded, is_codeword=is_codeword,
                         correct=np.array_equal(coords, sent_coords),
                         metric=metric)


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
              sent: int) -> DecodeOutcome:
    """Exhaustive minimum-distance search over the finite codebook; it is
    correct when the winning row is row ``sent``.

    A code of at most ``_ML_SCAN_ROWS`` codewords is scanned: every row gets
    the exact metric ||y - h x||^2 in one pass, which costs less than
    scoring it first.  A larger code is scored (``_near_best``) and only the
    rows near the best score are rescored with the same per-row arithmetic.
    On an unfaded channel, a code of at least ``_ML_PRUNE_BYTES`` that has a
    prefix index (``Codebook._prefixes``) is scored only on the row groups
    that a lower bound from the walk's top levels does not exclude
    (``_pruned_rows``, Agrell, Eriksson, Vardy and Zeger, "Closest point
    search in lattices", IEEE Trans. IT 2002); any other code, and every
    fading decode, is scored on every row.  Either way the first index
    among the exact minima wins, so the decision and ``metric`` are those of
    a full scan, bit for bit.
    """
    points = codebook.points
    fading = realization.fading if realization.model.fading else None
    if len(points) <= _ML_SCAN_ROWS:
        near, rows = None, points
    else:
        index = (codebook._prefixes if fading is None
                 and points.nbytes >= _ML_PRUNE_BYTES else None)
        among = None if index is None else _pruned_rows(y, index, codebook)
        near = _near_best(y, fading, codebook, among)
        rows = points[near]
    metrics = _exact_metrics(y, fading, rows)
    best = metrics.argmin()  # first index wins ties
    won = best if near is None else near[best]
    return DecodeOutcome(decoded=rows[best], is_codeword=True,
                         correct=bool(won == sent),
                         metric=float(metrics[best]))


def _near_best(y, fading, codebook: Codebook, among=None) -> np.ndarray:
    """Indices, in codebook order, of the rows whose score lies within the
    rescoring window of the lowest; ``fading`` None is unit fading.  Only
    the rows at the increasing indices ``among`` are scored, if given.

    Every codeword x is scored by ||y - h x||^2 - ||y||^2 =
    sum_i |h_i|^2 |x_i|^2 - 2 Re sum_i conj(y_i) h_i x_i.  The second sum is
    one matrix-vector product with ``points``.  On a fading channel the first
    is another, with the codebook's cached ``|points|^2``; an unfaded channel
    has unit fading, so the first sum is the cached row norm ||x||^2, the
    call does one product and multiplies by h nowhere (a product by 1 is
    exact).  A call allocates codebook-length temporaries only.

    Both sums are at most M = ||y||^2 + max|h|^2 max||x||^2 in magnitude,
    and the exact metric at most 2M, so a score and the exact metric less
    ||y||^2 differ by a few n ulps of M.  If they differ by at most e on
    every row, the first exact minimizer scores within 2e of the lowest
    score, on every set of rows that holds it, as ``among`` does.  Every
    row scoring within ``_ML_WINDOW`` * M of the lowest, far above 2e, is
    returned for rescoring.  Usually only the winner is; an
    exactly zero fading coefficient makes rows that differ only there tie
    exactly, and all of them are.  The rows are given by their indices
    (``nonzero``): a boolean mask over the rows of a 2-D array costs about
    as much as a product on a large code.
    """
    points, (norm2, max_norm2) = codebook.points, codebook._norms
    if among is not None:
        points, norm2 = np.take(points, among, axis=0), np.take(norm2, among)
    weights = -2.0 * np.conjugate(y)
    if fading is None:
        scores = (points @ weights).real
        scores += norm2
        max_w = 1.0
    else:
        scores = (points @ (weights * fading)).real
        w = (fading.conj() * fading).real
        scores += codebook._squares @ w
        max_w = np.maximum.reduce(w)
    window = _ML_WINDOW * (np.vdot(y, y).real + max_w * max_norm2)
    near = (scores <= scores[scores.argmin()] + window).nonzero()[0]
    return near if among is None else among[near]


def _pruned_rows(y, index: PrefixIndex, codebook: Codebook):
    """Indices, in codebook order, of the rows of every prefix group whose
    lower bound does not exclude the first exact minimizer of ||y - x||^2;
    None if they are more than half the code.

    Group g's bound b_g (``PrefixIndex``) is at most the exact metric of
    each of its rows.  The group with the lowest bound is scored first: its
    best score plus ||y||^2, u, is at least the exact minimum.  A group
    holding a minimizer then has b_g <= u in exact arithmetic, and only
    groups with b_g <= u + ``_ML_WINDOW`` * M' are kept, for
    M' = (||y|| + reach)^2.  Every term of the bound, of the score and of
    the exact metric is at most M' in magnitude (reach bounds ||shift|| and
    sum_j |u_j| ||rows_j|| over the code), and a prefix is the code's exact
    integer coordinates, so b_g, u and the exact metric each err by a few
    dim ulps of M' at most, far below the window.
    """
    starts = index.starts
    gap = index.levels - (index.q @ codebook.basis.to_real(y))[:, None]
    gap *= gap
    bound = np.add.reduce(gap)
    g = bound.argmin()
    lo, hi = starts[g], starts[g + 1]
    yy = np.vdot(y, y).real
    upper = np.minimum.reduce(
        (codebook.points[lo:hi] @ (-2.0 * np.conjugate(y))).real
        + codebook._norms[0][lo:hi]) + yy
    keep = (bound <= upper + _ML_WINDOW * (math.sqrt(yy) + index.reach) ** 2
            ).nonzero()[0]
    size = index.sizes[keep]
    ends = size.cumsum()
    if 2 * ends[-1] > starts[-1]:
        return None  # a scan of every row costs less than gathering these
    return np.arange(ends[-1]) + (starts[keep] - ends + size).repeat(size)
