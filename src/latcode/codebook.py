"""Carving finite power-constrained codes from shifted, scaled field lattices.

A code is the intersection of a ball of radius sqrt(n*P) with a shifted copy
of alpha * psi(O_K); the shift is found by seeded random search over the
fundamental parallelotope, certified by counting its ball, which is the code.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import channel, lattice
from .lattice import LatticeBasis
from .numberfield import FieldSpec, embedding_matrix

_SHIFT_TRY_CAP = 10_000
#: Entries of the code-lattice LRU (``code_lattice``): one pass of a
#: benchmark workload carves at most 6 (field, alpha) pairs.
_CODE_LATTICE_CACHE = 64
#: ``Codebook._prefixes`` groups the rows by their leading LLL coordinates
#: u_0..u_{L-1}: the longest prefix of at most ``_PREFIX_LEVELS`` whose
#: groups hold ``_PREFIX_GROUP_ROWS`` rows on average.  Per AWGN ML decode
#: (in-process, 2 CPUs), on the 16k- and 65k-row F8-17, F4-725 and Qzeta5
#: codes the fastest L held 39-157 rows a group, and this rule picked it on
#: all six; one level more (7-23 rows a group) cost 1.1-1.2x as much, and
#: one level fewer 1.1-2.3x.
_PREFIX_LEVELS = 4
_PREFIX_GROUP_ROWS = 32


class ShiftSearchError(RuntimeError):
    def __init__(self, best_count: int, required: float, tries: int):
        self.best_count = best_count
        self.required = required
        self.tries = tries
        super().__init__(
            f"shift search gave up after {tries} tries: best count "
            f"{best_count} < required {required:.3f}")


@dataclass(frozen=True)
class CodeConfig:
    rate: float
    power: float
    field: FieldSpec
    seed: int

    def __post_init__(self):
        for name in ("rate", "power"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # False for NaN
                raise ValueError(
                    f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class PrefixIndex:
    """The rows of a code grouped by their first L LLL coordinates, with
    what bounds ||y - x||^2 over a group (``Codebook._prefixes``).

    With x = shift + u @ rows, the QR of the reduced rows in reverse order,
    Q' R' = rows[::-1].T, gives ||y - x||^2 = ||Q'^T (y - shift) - R' u'||^2
    for u' = u[::-1].  The last L rows of R' read only u'_{k-L..k-1}, the
    prefix u_0..u_{L-1}, so their part of that sum, the walk's top L levels,
    is a lower bound shared by the whole group:
    sum_i (levels[i, g] - (q @ y)_i)^2, which ``decoder._pruned_near``
    takes for every group from one product, as
    norms[g] - 2 (q @ y) @ levels[:, g] + ||q @ y||^2.  levels[:, g] is
    q @ x for every row x of group g, and q has orthonormal rows, so
    ||levels[:, g]|| <= max ||x||, the root of ``Codebook._norms``'s maximum.
    """
    starts: np.ndarray  # (G + 1,): each group's first row, then the size
    sizes: np.ndarray   # (G,): rows per group
    levels: np.ndarray  # (L, G): R'-block @ prefix + q @ shift, per group
    q: np.ndarray       # (L, dim): Q'^T of the top L levels

    @functools.cached_property
    def norms(self) -> np.ndarray:  # (G,): ||levels[:, g]||^2
        return np.add.reduce(self.levels ** 2)


@dataclass(frozen=True)
class Codebook:
    """A carved code: the accepted shift try's ball.  ``coords`` holds the
    rows' integer coordinates in ``basis._reduced.rows``, lexicographically
    sorted: the array the ball search returned, in its dtype (int8 on every
    catalog code).  A code built by hand may leave it None, and then has no
    NLD decode and no prefix index.  Neither array may be mutated: four
    caches are built on first use, never refreshed.

    - ``_norms``: the squared row norms ||x||^2 and their maximum.  ``carve``
      builds it for its power check; ML decoding scores an unfaded channel
      on it and bounds its rescoring window with the maximum.
    - ``_squares``: the elementwise ``|points|^2``, built only by the first
      ML decode on a fading channel.
    - ``_basis_coords``: ``coords @ basis._reduced.U``, the rows' integer
      coordinates in ``basis`` itself, which NLD decisions are judged on;
      built only by the first NLD decode.
    - ``_prefixes``: the ``PrefixIndex`` that prunes an unfaded ML decode of
      a large code, built only by the first such decode; a code without
      ``coords`` has none (None).
    """
    points: np.ndarray
    alpha: float
    shift: np.ndarray
    achieved_rate: float
    n: int                    # complex channel uses, or real dimension
    basis: LatticeBasis       # the scaled lattice alpha * psi(O_K)
    power: float
    coords: np.ndarray | None = None  # (N, rank), x = shift + coords @ rows

    @property
    def size(self) -> int:
        return len(self.points)

    @functools.cached_property
    def _norms(self):
        """(squared row norms, their maximum), summed over the real view of
        ``points`` (``LatticeBasis.to_real``) so that no (N, n) temporary is
        built."""
        flat = self.basis.to_real(self.points)
        norm2 = np.einsum("ij,ij->i", flat, flat)
        return norm2, float(norm2.max())

    @functools.cached_property
    def _squares(self) -> np.ndarray:
        """|points|^2 elementwise, for ``decoder.ml_decode`` on fading."""
        return np.abs(self.points) ** 2

    @functools.cached_property
    def _basis_coords(self) -> np.ndarray:
        """``coords`` in ``basis`` itself, for ``decoder.nld_decode``."""
        return self.coords @ self.basis._reduced.U

    @functools.cached_property
    def _prefixes(self) -> PrefixIndex | None:
        """Group the rows by their first L coordinates in ``coords``: the
        longest prefix, of at most ``_PREFIX_LEVELS``, whose groups hold
        ``_PREFIX_GROUP_ROWS`` rows on average (at least one coordinate).
        A group is a maximal run of rows with equal prefixes, so its bound
        holds in any row order; ``carve``'s sorted rows make each prefix
        one run.  None without ``coords``.  No (N, n) temporary is built."""
        if self.coords is None:
            return None
        red = self.basis._reduced
        k = len(red.rows)
        N = len(self.coords)
        keys = self.coords[:, :min(_PREFIX_LEVELS, k)].T
        new = keys[0, 1:] != keys[0, :-1]  # where a group starts
        L = 1
        while L < len(keys):
            longer = new | (keys[L, 1:] != keys[L, :-1])
            if np.count_nonzero(longer) + 1 > N / _PREFIX_GROUP_ROWS:
                break
            new, L = longer, L + 1
        starts = np.concatenate(([0], new.nonzero()[0] + 1, [N]))
        shift = self.basis.to_real(self.shift)
        Q, R = lattice._qr(red.rows[::-1])
        q = Q[:, k - L:].T
        prefixes = keys[:L, starts[:-1]].astype(float)  # one per group
        levels = R[k - L:, k - L:][:, ::-1] @ prefixes
        levels += (q @ shift)[:, None]
        return PrefixIndex(starts=starts, sizes=np.diff(starts),
                           levels=levels, q=q)


def energy_normalization(field: FieldSpec, rate: float, power: float) -> float:
    """alpha^2 making Vol(B(sqrt(nP))) / Vol(alpha psi(O_K)) equal 2^{Rn}:
    some shift of the lattice then puts at least 2^{Rn} points in the ball
    (the averaging lemma), which ``shift_search`` finds, so every rate is
    feasible.

    Evaluated in log-space with the field's true |d_K| so that desk-scale
    codebooks satisfy the rate/power accounting exactly.
    """
    n = field.ambient_n
    d = abs(field.disc_catalog)
    ln_c = lattice._ln_ball_constant(field.degree, n)
    if field.totally_real:
        ln_alpha2 = math.log(power) + (2.0 / n) * ln_c \
            - 2.0 * rate * math.log(2.0) - math.log(d) / n
    else:
        ln_alpha2 = math.log(2.0 * power) + ln_c / n \
            - rate * math.log(2.0) - math.log(d) / (2.0 * n)
    return math.exp(ln_alpha2)


def count_points(basis: LatticeBasis, shift, radius: float):
    """(|(L + shift) intersect B(0, radius)|, its points' integer
    coordinates in ``basis._reduced.rows`` in no set order, int8 on every
    carving ball) by one exact enumeration (``lattice._ball``)."""
    coords = lattice._ball(basis, -np.asarray(shift), radius)
    return len(coords), coords


def shift_search(basis: LatticeBasis, power: float, seed: int):
    """(shift, coords) of the first try whose shift meets the
    averaging-lemma count Vol(B)/Vol(L), coords as ``count_points``'s.

    Shifts are sampled uniformly from the fundamental parallelotope, drawn
    as a fresh Philox keyed (seed mod 2^64, 0) draws (``channel._keyed``);
    the lemma guarantees a qualifying shift exists, so sampling retries
    until the bound is met, at most ``_SHIFT_TRY_CAP`` times (read at call
    time).  The ratio, taken in logs, is met within a relative 1e-9.
    Whether the ratio carries the rate is ``energy_normalization``'s choice
    of the lattice's scale.
    """
    n, dim, Breal = basis.n, basis.rank, basis.real_matrix
    radius = math.sqrt(n * power)
    # Vol(B(sqrt(nP))) = C P^{dim/2}, and Vol(L) = |det Breal|
    required = math.exp(lattice._ln_ball_constant(dim, n)
                        + 0.5 * dim * math.log(power)
                        - basis._slogdet[1])
    rng = channel._keyed("shift_search", seed, 0)
    best_count = -1
    for _ in range(_SHIFT_TRY_CAP):
        shift = basis.to_ambient(rng.random(dim) @ Breal)
        count, coords = count_points(basis, shift, radius)
        if count >= required * (1.0 - 1e-9):
            return shift, coords
        best_count = max(best_count, count)
        del coords  # before the next try's ball is enumerated
    raise ShiftSearchError(best_count, required, _SHIFT_TRY_CAP)


@functools.lru_cache(maxsize=_CODE_LATTICE_CACHE)
def code_lattice(field: FieldSpec, alpha: float) -> LatticeBasis:
    """alpha * psi(O_K), with its ``_reduced`` built; cached per (field,
    alpha) and shared, so its arrays are read-only."""
    basis = embedding_matrix(field).scaled(alpha)
    basis.vectors.flags.writeable = False
    basis._reduced  # built once, into the cache entry
    return basis


def carve(config: CodeConfig) -> Codebook:
    """Build the finite code B(sqrt(nP)) intersect (shift + alpha*psi(O_K)).

    The lattice comes from ``code_lattice``, built once per (field, alpha)
    in a process and shared with ``Codebook.basis``.  The accepted shift
    try's ball is the code, sorted and multiplied into vectors as
    ``lattice.points_in_ball`` does: no ball is enumerated after the
    search.  Its integer coordinates, in the ball's own array and dtype,
    are ``coords``.  The points, shift and rate are never cached.
    """
    field = config.field
    n = field.ambient_n
    alpha = math.sqrt(energy_normalization(field, config.rate, config.power))
    basis = code_lattice(field, alpha)
    shift, ured = shift_search(basis, config.power, config.seed)
    coords, points = lattice._ball_points(basis, ured)
    points += shift  # a fresh array: no second one of its size
    code = Codebook(points=points, alpha=alpha, shift=shift,
                    achieved_rate=math.log2(len(points)) / n, n=n,
                    basis=basis, power=config.power, coords=coords)
    # power constraint must hold by the ball cut; tolerate roundoff only
    if code._norms[1] / n > config.power * (1.0 + 1e-9):
        raise RuntimeError("carved point violates the power constraint")
    return code
