"""Naive lattice decoding and ML decoding with receiver-side channel knowledge.

Fading is folded into the lattice basis (never divided out), so tiny
coefficients cannot blow up numerically.  The faded basis carries the code
lattice as a hint: the closest-point search first walks the code lattice's
cached LLL rows, faded, within a small node budget, and LLL-reduces the
faded basis itself only when a deep fade trips that budget.  An exactly zero
coefficient makes the faded basis singular, and NLD raises ``ValueError`` on
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice
from .channel import ChannelRealization
from .codebook import Codebook

_MATCH_TOL = 1e-8
_ML_BLOCK_BYTES = 1 << 16


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


def ml_decode(y, realization: ChannelRealization, codebook: Codebook,
              transmitted) -> DecodeOutcome:
    """Exhaustive minimum-distance search over the finite codebook.

    Rows are scored in blocks of at most ``_ML_BLOCK_BYTES``: temporaries the
    size of a large codebook are mapped and faulted in afresh on each call,
    or not, depending on what the process freed before.
    """
    fading, y, points = realization.fading, np.asarray(y), codebook.points
    metrics = np.empty(len(points))
    step = max(1, _ML_BLOCK_BYTES // points[0].nbytes)
    for lo in range(0, len(points), step):
        diffs = y - fading * points[lo:lo + step]
        metrics[lo:lo + step] = np.sum(np.abs(diffs) ** 2, axis=1)
    idx = int(np.argmin(metrics))  # first index wins ties
    decoded = codebook.points[idx]
    return DecodeOutcome(decoded=decoded, is_codeword=True,
                         correct=_matches(decoded, transmitted),
                         metric=float(metrics[idx]))
