"""Naive lattice decoding and ML decoding with receiver-side channel knowledge.

Fading is folded into the lattice basis (never divided out), so tiny
coefficients cannot blow up numerically.  The faded basis carries the code
lattice as a hint: the closest-point search first walks the code lattice's
cached LLL rows, faded, within a small node budget, and LLL-reduces the
faded basis itself only when a deep fade trips that budget.  An exactly zero
coefficient makes the faded basis singular, and NLD raises ``ValueError`` on
it; ML decodes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice
from .channel import ChannelRealization
from .codebook import Codebook

_MATCH_TOL = 1e-8
_ML_WINDOW = 1e-9  # relative to the score bound M in ml_decode


@dataclass(frozen=True)
class DecodeOutcome:
    decoded: np.ndarray
    is_codeword: bool
    correct: bool
    metric: float


def _matches(a, b) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= _MATCH_TOL)


def nld_decode(y, realization: ChannelRealization, codebook: Codebook,
               transmitted) -> DecodeOutcome:
    """Closest point in the infinite shifted faded lattice.

    Decoding lands on shift + alpha*psi(x) for some algebraic integer x; a
    result outside the finite codebook counts as an error.
    """
    fading = realization.fading
    # unfaded, the code lattice itself is searched: one cached reduction;
    # faded, its cached LLL rows are faded and searched first
    basis = codebook.basis
    if realization.is_fading:
        basis = basis.faded(fading)
    target = np.asarray(y) - fading * codebook.shift
    _, coords = lattice.closest_vector_coords(basis, target)
    decoded = codebook.shift + coords.astype(float) @ codebook.basis.vectors
    metric = float(np.sum(np.abs(np.asarray(y) - fading * decoded) ** 2))
    # the codebook is every shifted lattice point in carve's ball
    radius = math.sqrt(codebook.n * codebook.power)
    is_codeword = float(np.sum(np.abs(decoded) ** 2)) <= lattice.ball_bound(radius)
    return DecodeOutcome(decoded=decoded, is_codeword=is_codeword,
                         correct=_matches(decoded, transmitted), metric=metric)


def _exact_metrics(y, fading, rows) -> np.ndarray:
    """||y - fading * x||^2 for each row x, in a full scan's arithmetic.

    ``fading`` enters as a (1, n) row: numpy multiplies a single complex
    coordinate against a (1, 1) block in a scalar loop that rounds
    differently from the loop a scan of many rows takes."""
    return np.add.reduce(np.abs(y - fading[None] * rows) ** 2, axis=1)


def ml_decode(y, realization: ChannelRealization, codebook: Codebook,
              transmitted) -> DecodeOutcome:
    """Exhaustive minimum-distance search over the finite codebook.

    Every codeword x is scored by ||y - h x||^2 - ||y||^2 =
    sum_i |h_i|^2 |x_i|^2 - 2 Re sum_i conj(y_i) h_i x_i.  The second sum is
    one matrix-vector product with ``points``.  On a fading channel the first
    is another, with the codebook's cached ``|points|^2``; an unfaded channel
    has unit fading, so the first sum is the cached row norm ||x||^2 and the
    call does one product.  A call allocates codebook-length temporaries
    only.

    Both sums are at most M = ||y||^2 + max|h|^2 max||x||^2 in magnitude,
    and the exact metric at most 2M, so a score and the exact metric less
    ||y||^2 differ by a few n ulps of M.  If they differ by at most e on
    every row, the first exact minimizer scores within 2e of the lowest
    score.  Every row scoring within ``_ML_WINDOW`` * M of the lowest, far
    above 2e, is rescored with a full scan's per-row arithmetic, and the
    first index among the exact minima wins: the decision and ``metric`` are
    those of a full scan, bit for bit.  Usually only the winner is rescored;
    an exactly zero fading coefficient makes rows that differ only there tie
    exactly, and all of them are rescored.  The rows are taken by their
    indices (``nonzero``), in codebook order: a boolean mask over the rows
    of a 2-D array costs about as much as a product on a large code.
    """
    fading, y, points = realization.fading, np.asarray(y), codebook.points
    norm2, max_norm2 = codebook._norms
    scores = (points @ (-2.0 * y.conj() * fading)).real
    if realization.is_fading:
        w = (fading.conj() * fading).real
        scores += codebook._squares @ w
        max_w = np.maximum.reduce(w)
    else:
        scores += norm2
        max_w = 1.0
    window = _ML_WINDOW * (np.vdot(y, y).real + max_w * max_norm2)
    rows = points[(scores <= scores[scores.argmin()] + window).nonzero()[0]]
    metrics = _exact_metrics(y, fading, rows)
    best = metrics.argmin()  # first index wins ties
    decoded = rows[best]
    return DecodeOutcome(decoded=decoded, is_codeword=True,
                         correct=_matches(decoded, transmitted),
                         metric=float(metrics[best]))
