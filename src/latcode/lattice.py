"""Generic lattice engine: volumes, SVP/CVP enumeration, product distances.

Complex ambient spaces are handled internally as R^{2n}: ``to_real``
reads a complex vector's memory as its re, im pairs, for every module, and
only the product norm reads coordinate pairs back as complex moduli.
Every search walks a ``Reduction``: spanning rows, their unimodular ``U``
from the caller's basis, and the QR the walk reads.
``LatticeBasis._reduced`` is the basis's LLL reduction, built once.
Closest point, shortest vector and ball enumeration are one Schnorr-Euchner
walk (``_enumerate``), a single loop over the levels in which each level
keeps its projected centres until its zig-zag runs past the bound.  It is
exact within the rank cap ``MAX_ENUM_RANK`` and the node budget
``MAX_ENUM_NODES``; past either it raises ``EnumerationCapError``, the rank
cap before any reduction is built and the budget at the node past it.
A walk that enters a level whose projected coordinate has reached 2^52
raises the subclass ``EnumerationPrecisionError`` as it enters, not at
the budget: floats no longer hold integers there, so the lattice is too
fine for the target.  A NaN centre or target raises ``ValueError`` there
instead, on both ball paths and before any node.
Closest point and shortest vector stay on the walk;
``closest_vector_coords`` returns the closest point as its integer
coordinates in the caller's basis alone.  A ball (``count_in_ball``,
``points_in_ball``) is enumerated once: level by level in numpy if the
walk is expected to visit more than ``_BALL_DFS_NODES`` nodes
(``_walk_first``), else walked.  Both paths have the walk's arithmetic, so
the points, the node count and the cap are the walk's, and both raise
``EnumerationPrecisionError`` rather than run where floats hold no
integers.  ``points_in_ball`` returns the points' coordinates in
``_reduced.rows``, as the integer-valued floats the enumeration holds.  A
ball's slack for roundoff (``ball_bound``) is relative to its squared
radius; a negative or NaN radius is rejected.  A faded basis
(``LatticeBasis.faded``) carries a hint, its parent's reduction with the
rows faded, and its closest point is searched on the hint within the small
budget ``_FADED_NODES``; it reduces its own rows only when that walk trips.
``faded`` takes a stack of fadings and builds all their bases with one
singularity test and one QR over the stack (``_qr`` takes one matrix or a
stack), bit-identical to building each alone.  A product over a code's
many rows goes through ``rows_product``, a block of rows at a time.
``min_product_distance`` returns the float minimum alone; whether it
reaches the algebraic floor of a ring of integers is
``numberfield.reaches_norm_floor``'s to say.
"""

from __future__ import annotations

import array
import functools
import math
from dataclasses import dataclass

import numpy as np

from .specfun import ln_gamma

REAL = "real"
COMPLEX = "complex"

#: Cap on enumeration rank; desk-scale guarantee.  Read at call time.
MAX_ENUM_RANK = 24
#: Cap on the tree nodes (integers fixed at some level) that one enumeration
#: visits, and so on the points it holds.  Read at call time.
MAX_ENUM_NODES = 1 << 20
#: Node budget of the closest-point walk on a faded basis's hint,
#: capped by ``MAX_ENUM_NODES``.  On the 29,400 seeded Rayleigh decodes of
#: the fading_nld benchmark (seeds 0-20) that walk visited at most 221 nodes
#: (p99 44); a budget of 64 would have tripped 120 times.
_FADED_NODES = 256
#: The walk's expected node count (``_walk_first``) past which a ball is
#: enumerated level by level instead of walked.  Timed side by side on the
#: rate-1 code lattices (in-process, 2 shared CPUs, best of 7 per ball),
#: the walk costs 1.0-1.8 us per node and the level-wise search a fixed
#: 0.16 ms at rank 4 and 0.17-0.31 ms at rank 8 (plus 0.1 us per node), so
#: the two cross near 120 nodes at rank 4 and 150-230 at rank 8.
_BALL_DFS_NODES = 128
#: Rows past which ``_lex_order`` sorts by a mixed-radix key (best of 7,
#: 2 CPUs: 7.0-7.6 us on 32-60 rows against lexsort's 1.6-3.9 us at ranks
#: 2-4; 8.0-8.7 us on 128 rows against 4.1, 7.5 and 13.7 us at 2, 4, 8).
_LEX_KEY_ROWS = 128
#: Cap on the candidates that one level-wise step evaluates (one node may
#: exceed it alone), which bounds the memory of the frontier.
_LEVEL_BLOCK = 1 << 14
#: Tries per node that a level-wise step makes past floor(2 * half-width), at
#: least 1.  At most floor(2 * half-width) + 1 tries lie within the bound, so
#: with 2 the last try is past it in exact arithmetic; a block in which some
#: node's last try is still within the bound (rounding) is tried again with
#: twice as many.
_ZIGZAG_SPARE = 2
#: Rows of the left factor that ``rows_product`` multiplies at once.  The
#: threaded OpenBLAS stalls on thin products on a shared 2-CPU machine: a
#: 65,707 x 8 by 8 x 8 product took 31.7 ms whole and 1.9-2.9 ms in blocks
#: of 8,192 or 4,096 rows, and ``_lex_order``'s 65,707 x 8 key product a
#: median of 0.3-6.3 ms whole against 0.4-0.5 ms in blocks (in-process,
#: 2 CPUs, with Python work between calls).  Its callers: one trial's ML
#: scores (``decoder._over_rows``), ``points_in_ball``'s vectors and
#: ``_lex_order``'s key.
_PRODUCT_ROWS = 4096

_TIE_EPS = 1e-12  # relative tie window of ``_nearest``
_BALL_SLACK = 1e-12  # relative widening of the closed ball, ``ball_bound``
_LLL_DELTA = 0.99  # the Lovasz condition's constant in ``_lll``


class EnumerationCapError(RuntimeError):
    """An enumeration past the rank cap or a node budget; ``budget`` is the
    node budget the walk ran under."""

    def __init__(self, rank: int, bound: float, nodes: int, budget: int):
        self.rank = rank
        self.bound = bound
        self.nodes = nodes
        self.budget = budget
        super().__init__(
            f"enumeration of rank {rank} within squared distance {bound:.6g} "
            f"stopped after {nodes} nodes (caps: rank {MAX_ENUM_RANK}, "
            f"{budget} nodes)")


class EnumerationPrecisionError(EnumerationCapError):
    """A search that met a projected coordinate ``coordinate`` of magnitude
    at least 2^52, where floats hold no fractional part, so a zig-zag would
    try the same integer again and again: the walk as it enters that level,
    the level-wise search (naming the centre's largest coordinate in the
    reduced rows) before any node."""

    def __init__(self, rank: int, bound: float, nodes: int, budget: int,
                 coordinate: float):
        super().__init__(rank, bound, nodes, budget)
        self.coordinate = coordinate
        self.args = (f"{self.args[0]}: at projected coordinate "
                     f"{coordinate:.6g} floats no longer hold integers, so "
                     f"the lattice is too fine for this target",)


class ZeroProductNormError(ValueError):
    """A nonzero lattice vector with a (numerically) zero coordinate product."""

    def __init__(self, vector):
        self.vector = np.asarray(vector)
        super().__init__(
            f"zero product norm encountered at lattice vector {self.vector}")


class SingularBasisError(ValueError):
    """A basis that does not have full rank; ``index`` is the place in the
    stack of the fading that made it so (``LatticeBasis.faded``), or None."""

    def __init__(self, index: int | None = None):
        self.index = index
        super().__init__("basis is singular" if index is None
                         else f"basis is singular under fading {index}")


@dataclass(frozen=True)
class Reduction:
    """Rows that span a lattice, ``rows = U @ real_matrix``, and the QR of
    ``rows.T`` that the walk reads, with R as nested lists.  ``_reduction``
    makes its arrays read-only: a cached basis shares its reduction."""

    rows: np.ndarray
    U: np.ndarray
    Q: np.ndarray
    R: list

    @functools.cached_property
    def _node_coefficients(self) -> tuple:
        """c_rank, ..., c_1: a walk of the ball of radius r on these rows
        is expected to visit sum_k c_k r^k nodes, k levels from the top the
        Gaussian heuristic's Vol(B_k(r)) / (product of R's last k diagonal
        entries) (Gama, Nguyen and Regev, "Lattice enumeration using extreme
        pruning", EUROCRYPT 2010).  An overflow reads as inf."""
        rank = len(self.R)
        coefficients, inverse = [], 1.0
        for k in range(1, rank + 1):
            inverse /= self.R[rank - k][rank - k]
            coefficients.append(math.exp(_ln_ball_constant(k, 1)) * inverse)
        return tuple(reversed(coefficients))

    @functools.cached_property
    def _R_inverse(self) -> np.ndarray:
        """R^-1: Q^T c to c's coordinates in ``rows``."""
        return np.linalg.inv(np.array(self.R))


def _reduction(rows: np.ndarray, U: np.ndarray) -> Reduction:
    Q, R = _qr(rows)
    for a in (rows, U, Q):
        a.flags.writeable = False
    return Reduction(rows, U, Q, R.tolist())


@dataclass(frozen=True)
class LatticeBasis:
    """Full-rank lattice given by basis row vectors over a real or complex ambient."""

    ambient: str
    vectors: np.ndarray
    #: the closest-point hint of a basis built by ``faded``; not a field
    _hint = None

    def __post_init__(self):
        if self.ambient not in (REAL, COMPLEX):
            raise ValueError(f"unknown ambient {self.ambient!r}")
        vecs = np.asarray(
            self.vectors,
            dtype=complex if self.ambient == COMPLEX else float,
        )
        object.__setattr__(self, "vectors", vecs)
        if vecs.ndim != 2:
            raise ValueError("basis must be a 2-d array of row vectors")
        rank, n = vecs.shape
        expected = n if self.ambient == REAL else 2 * n
        if rank != expected:
            raise ValueError(
                f"rank {rank} does not match ambient dimension "
                f"({self.ambient}({n}) needs {expected})")
        # rank is tested on the square basis itself: a Gram-matrix test
        # squares the condition number and rejects valid deep fades
        if np.linalg.slogdet(self.real_matrix)[0] == 0:
            raise SingularBasisError()

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    @property
    def rank(self) -> int:
        return self.vectors.shape[0]

    @property
    def real_matrix(self) -> np.ndarray:
        """Basis rows in the real representation (interleaved re/im if complex)."""
        return self.to_real(self.vectors)

    def to_ambient(self, real_vecs: np.ndarray) -> np.ndarray:
        """Map real-representation vectors back to the ambient space."""
        if self.ambient == REAL:
            return np.asarray(real_vecs, dtype=float)
        return _real_to_complex(real_vecs)

    def to_real(self, ambient_vecs: np.ndarray) -> np.ndarray:
        if self.ambient == REAL:
            return np.asarray(ambient_vecs, dtype=float)
        return _complex_to_real(ambient_vecs)

    def scaled(self, c: float) -> "LatticeBasis":
        return LatticeBasis(self.ambient, self.vectors * c)

    def faded(self, h):
        """This lattice with ambient coordinate i scaled by h[i]; for a
        (T, n) stack of fadings, the list of the T faded bases.

        Each result's ``_hint`` is this basis's reduction with its rows
        faded (not LLL-reduced on a deep fade), which only
        ``closest_vector_coords`` reads.  The whole stack is built with one
        singularity test and one QR (``_qr``), each on the (T, dim, dim)
        real stack; numpy factors a stack matrix by matrix with the 2-D
        call's arithmetic, so every result is bit-identical to a fading
        given alone.  A singular faded basis raises
        ``SingularBasisError`` naming its fading's place in the stack.
        """
        h = np.asarray(h)
        stack = h[None] if h.ndim == 1 else h
        vectors = np.asarray(
            self.vectors * stack[:, None, :],
            dtype=complex if self.ambient == COMPLEX else float)
        singular = np.linalg.slogdet(self.to_real(vectors))[0] == 0
        if singular.any():
            raise SingularBasisError(
                int(singular.argmax()) if h.ndim > 1 else None)
        red = self._reduced
        rows = self.to_real(self.to_ambient(red.rows) * stack[:, None, :])
        Q, R = _qr(rows)
        out = []
        for vecs, r, q, rl in zip(vectors, rows, Q, R.tolist()):
            basis = object.__new__(LatticeBasis)  # checked above
            object.__setattr__(basis, "ambient", self.ambient)
            object.__setattr__(basis, "vectors", vecs)
            object.__setattr__(basis, "_hint", Reduction(r, red.U, q, rl))
            out.append(basis)
        return out if h.ndim > 1 else out[0]

    @functools.cached_property
    def _reduced(self) -> Reduction:
        """The LLL reduction.  Cached: ``vectors`` must not be mutated."""
        return _reduction(*_lll(self.real_matrix))


@dataclass(frozen=True)
class LatticeInvariants:
    volume: float
    sv: float
    dp_min: float
    nsv: float
    ndp: float
    ambient: str
    n: int


def _complex_to_real(vecs: np.ndarray) -> np.ndarray:
    """Re/im interleaved along the last axis, of a vector or a stack of
    them: a float view of the contiguous complex array, read-only where
    that array is."""
    return np.ascontiguousarray(vecs, dtype=complex).view(float)


def _real_to_complex(vecs: np.ndarray) -> np.ndarray:
    arr = np.asarray(vecs, dtype=float)
    return arr[..., 0::2] + 1j * arr[..., 1::2]


def volume(basis: LatticeBasis) -> float:
    """Volume of the fundamental parallelotope, sqrt(det Gram)."""
    mat = basis.real_matrix
    sign, logdet = np.linalg.slogdet(mat @ mat.T)
    if sign <= 0:
        raise ValueError("Gram matrix is not positive definite")
    return float(math.exp(0.5 * logdet))


def _lll(B: np.ndarray):
    """LLL-reduce the rows of B; returns (B_reduced, U) with B_reduced = U @ B.

    Gram-Schmidt row r (``ortho[r]``, ``mu[r]``, ``bb[r] = ortho[r] @ ortho[r]``)
    depends only on rows 0..r of B, so a row is recomputed only when one of
    those changed, and always by the same arithmetic: at the top of the loop
    rows 0..i-1 are current, and row i is recomputed on arrival and after
    each size-reduction step on it.  The result is bit-identical to
    recomputing every row after every step.  The textbook in-place mu update
    (Cohen, Alg. 2.6.3) is not used: integral trace forms give exact 1/2
    ties in mu, ``round`` settles those by float noise, and a different
    rounding history would reorder carved codebooks.
    """
    rows = list(np.array(B, dtype=float))
    k = len(rows)
    urows = list(np.eye(k, dtype=np.int64))
    ortho = list(np.zeros((k, rows[0].size)))
    mu = [[0.0] * k for _ in range(k)]
    bb = [0.0] * k

    def gso_row(i):
        b, o, m = rows[i], ortho[i], mu[i]
        o[:] = b
        for j in range(i):
            m[j] = (b @ ortho[j]) / bb[j]
            o -= m[j] * ortho[j]
        bb[i] = o @ o

    gso_row(0)
    i = 1
    while i < k:
        gso_row(i)
        for j in range(i - 1, -1, -1):
            q = round(mu[i][j])
            if q != 0:
                rows[i] -= q * rows[j]
                urows[i] -= q * urows[j]
                gso_row(i)
        if bb[i] >= (_LLL_DELTA - mu[i][i - 1] ** 2) * bb[i - 1]:
            i += 1
        else:
            rows[i - 1], rows[i] = rows[i], rows[i - 1]
            urows[i - 1], urows[i] = urows[i], urows[i - 1]
            if i > 1:
                i -= 1
            else:
                gso_row(0)
    return np.array(rows), np.array(urows)


def _qr(B: np.ndarray):
    """QR of the column-vector matrix B.T with positive diagonal in R; of
    each matrix, for a stack B of shape (T, k, k)."""
    Q, R = np.linalg.qr(np.swapaxes(B, -1, -2))
    signs = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return Q * signs[..., None, :], R * signs[..., :, None]


def rows_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a 2-D ``a`` and a 1-D or 2-D ``b``, multiplied
    ``_PRODUCT_ROWS`` rows of ``a`` at a time into one output.  Each output
    row is the product of its own row of ``a``; on the codes that the tests
    pin, the blocks change no bit of the result."""
    if len(a) <= _PRODUCT_ROWS:
        return a @ b
    out = np.empty((len(a),) + b.shape[1:], np.result_type(a, b))
    for lo in range(0, len(a), _PRODUCT_ROWS):
        np.matmul(a[lo:lo + _PRODUCT_ROWS], b,
                  out=out[lo:lo + _PRODUCT_ROWS])
    return out


def ball_bound(radius: float) -> float:
    """Squared radius, widened for roundoff, within which a point is in the
    closed ball: the one test for carving, counting and codebook membership.
    The slack is relative, so scaling a lattice and its ball together keeps
    the same points.  A negative or NaN radius raises ``ValueError``."""
    if not radius >= 0.0:  # False for NaN
        raise ValueError(f"ball radius must be non-negative, got {radius}")
    return radius * radius * (1.0 + _BALL_SLACK)


def _ln_ball_constant(dim: int, n: int) -> float:
    """ln C in Vol(B(r)) = C (r^2/n)^{dim/2}, the Euclidean ball in R^dim:
    C_n for a complex field (dim = 2n), C_n^R for a real one (dim = n).
    The one ball-volume formula: ``codebook``'s rate and shift counts and
    ``_ball``'s choice of path read it."""
    return 0.5 * dim * math.log(math.pi * n) - ln_gamma(dim / 2.0 + 1.0)


def _walk_first(red: Reduction, r2: float) -> bool:
    """Whether a ball of squared radius ``r2`` on ``red``'s lattice is
    walked, not enumerated level by level: whether the walk's expected node
    count (``Reduction._node_coefficients``, in Horner form in r, so an
    overflow reads as inf) is at most ``_BALL_DFS_NODES``."""
    r = math.sqrt(r2)
    nodes = 0.0
    for c in red._node_coefficients:
        nodes = (nodes + c) * r
    return nodes <= _BALL_DFS_NODES


def _check_rank(rank: int, bound: float) -> None:
    """The rank cap, checked once per search before any reduction is built."""
    if rank > MAX_ENUM_RANK:
        raise EnumerationCapError(rank, bound, 0, MAX_ENUM_NODES)


def _far_error(coordinate: float, rank: int, bound: float, nodes: int,
               budget: int) -> Exception:
    """The error for a projected ``coordinate`` not below 2^52 in magnitude:
    ``ValueError`` for a NaN, else ``EnumerationPrecisionError``."""
    if math.isnan(coordinate):
        return ValueError("the search centre has a NaN coordinate")
    return EnumerationPrecisionError(rank, bound, nodes, budget, coordinate)


def _enumerate(red: Reduction, center: np.ndarray, bound: float, leaf,
               budget: int | None = None) -> int:
    """Schnorr-Euchner walk over the lattice points v with ||v - center||^2 <= bound.

    The walk runs in the coordinates u of ``red.rows``, as ||R u - t||^2 with
    t = Q^T center (``center`` in the real representation).  It is one loop
    over the levels, not a recursion: each level it enters keeps its
    projected centres y, its partial squared distance and its next zig-zag
    step, so that it resumes where it left off when its child level runs
    out.  Each level tries integers in zig-zag order around its projected
    centre, nearest first, and stops at the first one past the bound; each
    child's centres are computed from the parent's, top down, as
    y[j] - u[level] * R[j][level].  Every lattice point within the bound
    goes to ``leaf(u, d2)``; ``u`` is the live coordinate list (copy it to
    keep it), and the leaf returns the bound for the rest of the walk, so a
    closest-point leaf can shrink it.  Returns the node count (integers
    fixed at some level).

    More tree nodes than ``budget`` (capped by ``MAX_ENUM_NODES``) raise
    ``EnumerationCapError`` at the node past it, even within one level's
    zig-zag.  A level whose projected centre reaches 2^52 in magnitude
    raises ``EnumerationPrecisionError`` as it is entered, before any of
    its nodes: floats hold no integers apart there (a NaN one raises
    ``ValueError``, ``_far_error``).  The caller checks the rank cap.
    """
    R = red.R
    rank = len(R)
    budget = MAX_ENUM_NODES if budget is None else min(budget, MAX_ENUM_NODES)
    floor = math.floor
    u = [0] * rank
    # what each level above the current one resumes with
    ys, accs, jumps = [None] * rank, [0.0] * rank, [0] * rank
    nodes = 0
    level = rank - 1
    y = (red.Q.T @ center).tolist()
    acc = 0.0
    while True:  # enter ``level`` with its centres y and distance acc
        rii = R[level][level]
        yl = y[level]
        ci = yl / rii
        if not abs(ci) < 2.0 ** 52:  # no fractional part left, or NaN
            raise _far_error(ci, rank, bound, nodes, budget)
        cand = floor(ci + 0.5)
        jump = 1 if ci >= cand else -1
        while True:
            diff = yl - cand * rii
            d2 = acc + diff * diff
            if d2 > bound:
                # zig-zag order: every later candidate is at least this far,
                # so the level above takes its next step
                level += 1
                if level == rank:
                    return nodes
                y, acc, jump = ys[level], accs[level], jumps[level]
                rii = R[level][level]
                yl = y[level]
                cand = u[level]
            else:
                nodes += 1
                if nodes > budget:
                    raise EnumerationCapError(rank, bound, nodes, budget)
                u[level] = cand
                if level:
                    break  # down to the child level
                bound = leaf(u, d2)
            # jumps of 1, -2, 3, -4, ... (signs flipped if ci < cand)
            cand += jump
            jump = -jump - 1 if jump > 0 else 1 - jump
        ys[level], accs[level], jumps[level] = y, acc, jump
        y = [y[j] - cand * R[j][level] for j in range(level)]
        acc = d2
        level -= 1


def _nearest(red: Reduction, target: np.ndarray, exclude_zero: bool = False,
             budget: int | None = None):
    """Coordinates u in ``red.rows`` and squared distance of the lattice
    point nearest the real ``target`` (nonzero if ``exclude_zero``).

    Ties within a relative ``_TIE_EPS`` of the best squared distance break
    to the lexicographically smaller u in the walked rows, not the caller's
    basis: on a faded basis's hint the parent's LLL rows, faded; otherwise
    the basis's own LLL rows, so a faded basis whose hint tripped breaks
    ties in its own reduction.  Under continuous noise exact ties have
    probability zero.
    """
    best_u, best_d2 = None, math.inf

    def leaf(u, d2):
        nonlocal best_u, best_d2
        if exclude_zero and not any(u):
            pass  # the origin is no shortest vector
        elif d2 < best_d2 * (1.0 - _TIE_EPS):
            best_u, best_d2 = u.copy(), d2
        elif u < best_u:
            best_u, best_d2 = u.copy(), min(best_d2, d2)
        return best_d2 * (1.0 + _TIE_EPS)

    _enumerate(red, target, math.inf, leaf, budget)
    return best_u, best_d2


def shortest_vector(basis: LatticeBasis) -> float:
    """The exact Euclidean norm of the shortest nonzero lattice vector."""
    _check_rank(basis.rank, math.inf)
    _, d2 = _nearest(basis._reduced, np.zeros(basis.rank), exclude_zero=True)
    return math.sqrt(d2)


def closest_vector_coords(basis: LatticeBasis, target) -> np.ndarray:
    """Integer coordinates, in the given basis, of the lattice vector
    closest to ``target``; ``coords @ basis.vectors`` is that vector.

    A basis built by ``faded`` is first searched on its hint within
    ``_FADED_NODES`` nodes.  A deep fade can make the hint's rows far from
    reduced; if that walk trips, the basis is LLL-reduced itself and
    searched exactly as any other basis is.
    """
    _check_rank(basis.rank, math.inf)
    if basis._hint is not None:
        try:
            return _closest(basis, basis._hint, target, _FADED_NODES)
        except EnumerationCapError:
            pass  # past the fast budget
    return _closest(basis, basis._reduced, target)


def _closest(basis: LatticeBasis, red: Reduction, target,
             budget: int | None = None):
    """``closest_vector_coords`` walked on ``red``, within ``budget``: the
    winner's coordinates in ``red.rows`` carried by ``red.U`` into the
    given basis."""
    u, _ = _nearest(red, basis.to_real(np.asarray(target)), budget=budget)
    return np.asarray(u, dtype=np.int64) @ red.U


@functools.lru_cache(maxsize=64)
def _zigzag(tries: int) -> np.ndarray:
    """Offsets 0, 1, -1, 2, -2, ... of a level-wise step's first ``tries``
    tries from the nearest integer, toward the projected center first (for
    a sign of +1), as a read-only (tries, 1) column: built once per count."""
    j = np.arange(tries)[:, None]
    offsets = (j + 1) // 2 * np.where(j & 1, 1.0, -1.0)
    offsets.flags.writeable = False
    return offsets


def _enumerate_levels(red: Reduction, center: np.ndarray, bound: float,
                      keep: bool):
    """``_enumerate``'s walk over the points within the constant ``bound``,
    run level by level in numpy: (point count, their coordinates in
    ``red.rows`` as a float (count, rank) array in no set order if ``keep``,
    else None).

    A frontier block holds, for nodes at one level, their projected centers
    y, partial squared distances and (if ``keep``) coordinates, set above
    that level.  Each node tries integers in the walk's zig-zag order with
    the walk's arithmetic and keeps them up to its first one past the bound,
    so the tree, its points and its node count are exactly the walk's.
    Blocks go on a stack, each step evaluating about ``_LEVEL_BLOCK``
    candidates at most, and more than ``MAX_ENUM_NODES`` nodes raise
    ``EnumerationCapError``, before a step whose widest node alone would pass
    the budget builds its tries, so a step's memory stays within a few
    times the budget however large the bound.  A centre with a coordinate
    in ``red.rows`` of 2^52 or more raises ``EnumerationPrecisionError``
    first: no node within the budget strays far from it, so below that each
    stays under 2^53, where floats hold integers (a NaN: ``ValueError``).
    """
    R = np.array(red.R)
    rank, budget = len(R), MAX_ENUM_NODES
    t = red.Q.T @ center
    x = red._R_inverse @ t
    far = np.abs(x).argmax()
    if not abs(x[far]) < 2.0 ** 52:  # argmax takes a NaN first
        raise _far_error(float(x[far]), rank, bound, 0, budget)
    nodes, points, leaves = 0, 0, []
    stack = [(rank - 1, t[None, :], np.zeros(1),
              np.zeros((1, rank if keep else 0)))]
    while stack:
        level, y, acc, u = stack.pop()
        rll = R[level, level]
        # the node with the most room sets the tries of the block; within
        # its interval of ``width`` it holds more than width - 3 integers
        # that pass the bound even with rounding at both ends, so past
        # left + 3 it is over the budget before any try
        left = budget - nodes
        width = 2.0 * math.sqrt(bound - acc.min()) / abs(rll)
        if width > left + 3.0:
            raise EnumerationCapError(rank, bound, budget + 1, budget)
        tries = int(width) + _ZIGZAG_SPARE
        take = max(1, _LEVEL_BLOCK // tries)
        if take < len(acc):  # the rest of the block waits on the stack
            stack.append((level, y[take:], acc[take:], u[take:]))
            y, acc, u = y[:take], acc[:take], u[:take]
        yl = y[:, level]
        ci = yl / rll
        nearest = np.floor(ci + 0.5)
        sign = np.where(ci >= nearest, 1.0, -1.0)
        while True:
            # try j of every node (row j): cand = nearest + sign * offset j
            # and d2 = acc + (yl - cand * rll)^2, each step in place
            cand = sign * _zigzag(tries)
            cand += nearest
            d2 = cand * rll
            np.subtract(yl, d2, out=d2)
            d2 *= d2
            d2 += acc
            # each node keeps its tries before the first past the bound
            inside = ~np.logical_or.accumulate(d2 > bound)
            if not inside[-1].any():
                break
            if tries > left:  # that node alone is past the budget
                raise EnumerationCapError(
                    rank, bound, nodes + int(np.count_nonzero(inside)), budget)
            tries *= 2  # rounding: try again
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


def _lex_order(ured: np.ndarray) -> np.ndarray:
    """``np.lexsort(ured.T[::-1])`` of distinct integer-valued float rows.
    Past ``_LEX_KEY_ROWS`` rows it is one argsort of a mixed-radix key,
    where that key is exact in floats.  The key goes through
    ``rows_product``: each is an integer below 2^53, exact in any order of
    summation, so the blocks change no bit of it."""
    if len(ured) > _LEX_KEY_ROWS:
        lo = ured.min()
        base = ured.max() - lo + 1.0
        if base ** ured.shape[1] < 2.0 ** 53:
            return np.argsort(rows_product(ured - lo, base ** np.arange(
                ured.shape[1] - 1.0, -1.0, -1.0)))
    return np.lexsort(ured.T[::-1])


def _ball(basis: LatticeBasis, center, radius: float, keep: bool):
    """``_enumerate_levels``'s (count, coordinates) for the closed ball
    B(center, radius) on ``basis._reduced``, by one enumeration: level by
    level if the walk is expected to visit more than ``_BALL_DFS_NODES``
    nodes (``_walk_first``), else walked.  Both paths have the walk's
    arithmetic and the same points."""
    r2 = ball_bound(radius)
    _check_rank(basis.rank, r2)
    red = basis._reduced
    center = basis.to_real(np.asarray(center))
    if not _walk_first(red, r2):
        return _enumerate_levels(red, center, r2, keep)
    flat = array.array("d")  # 8 bytes per coordinate while the walk runs
    _enumerate(red, center, r2, lambda u, d2: flat.extend(u) or r2)
    ured = np.frombuffer(flat).reshape(-1, basis.rank)
    return len(ured), ured if keep else None


def count_in_ball(basis: LatticeBasis, center, radius: float) -> int:
    """Number of lattice vectors v with ||v - center|| <= radius."""
    return _ball(basis, center, radius, keep=False)[0]


def points_in_ball(basis: LatticeBasis, center, radius: float):
    """All lattice vectors v with ||v - center|| <= radius.

    Returns (coords, vectors), sorted by coords: the points' coordinates in
    ``basis._reduced.rows`` as an integer-valued float (count, rank) array
    (``coords @ basis._reduced.U`` are those in the given basis), and the
    ambient vectors.  A ball expected past ``_BALL_DFS_NODES`` walk nodes
    goes level by level, and its memory peaks below three times the
    coordinate array returned.
    """
    ured = _ball(basis, center, radius, keep=True)[1]
    ured = np.take(ured, _lex_order(ured), axis=0)
    vec_real = rows_product(ured, basis._reduced.rows)
    return ured, np.atleast_2d(basis.to_ambient(vec_real))


def _min_product_norm(basis: LatticeBasis, radius: float) -> float:
    """Least product of coordinate moduli over the nonzero lattice vectors
    within ``radius``, inf if there is none; ``ZeroProductNormError`` on the
    first with a coordinate modulus <= 1e-9 max(1, its norm)."""
    coords, vecs = points_in_ball(basis, np.zeros(basis.n), radius)
    vecs = vecs[np.any(coords, axis=1)]
    mods = np.abs(vecs)
    norms = np.linalg.norm(vecs, axis=1)
    zero = np.min(mods, axis=1) <= 1e-9 * np.maximum(1.0, norms)
    if np.any(zero):
        raise ZeroProductNormError(vecs[np.argmax(zero)])
    return float(np.min(np.prod(mods, axis=1), initial=math.inf))


def min_product_distance(basis: LatticeBasis, radius: float) -> float:
    """Minimum product norm over nonzero lattice vectors of Euclidean norm
    <= radius.  A ball with no nonzero vector raises ``ValueError`` naming
    the radius."""
    dp = _min_product_norm(basis, radius)
    if math.isinf(dp):
        raise ValueError(f"no nonzero lattice vector within radius {radius}")
    return dp


def invariants(basis: LatticeBasis) -> LatticeInvariants:
    """Volume, shortest vector, product distance, and their normalized
    forms; the product distance is searched within 1.5 sv."""
    vol = volume(basis)
    sv = shortest_vector(basis)
    dp = min_product_distance(basis, 1.5 * sv)
    if basis.ambient == COMPLEX:
        nsv = sv / vol ** (1.0 / (2 * basis.n))
        ndp = dp / math.sqrt(vol)
    else:
        nsv = sv / vol ** (1.0 / basis.n)
        ndp = dp / vol
    return LatticeInvariants(volume=vol, sv=sv, dp_min=dp, nsv=nsv, ndp=ndp,
                             ambient=basis.ambient, n=basis.n)
