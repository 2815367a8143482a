"""Generic lattice engine: volumes, SVP/CVP enumeration, product distances.

Complex ambient spaces are handled internally as R^{2n} (coordinates
interleaved re/im); only the product norm reads coordinate pairs back as
complex moduli.  Closest point, shortest vector and ball enumeration are one
Schnorr-Euchner walk, exact within the rank cap ``MAX_ENUM_RANK`` and the
node budget ``MAX_ENUM_NODES``; past either it raises
``EnumerationCapError``.
"""

from __future__ import annotations

import array
import functools
import math
from dataclasses import dataclass

import numpy as np

REAL = "real"
COMPLEX = "complex"

#: Cap on enumeration rank; desk-scale guarantee.  Read at call time.
MAX_ENUM_RANK = 24
#: Cap on the tree nodes (integers fixed at some level) that one enumeration
#: visits, and so on the points it holds.  Read at call time.
MAX_ENUM_NODES = 1 << 20

_TIE_EPS = 1e-12


class EnumerationCapError(RuntimeError):
    """An enumeration past the rank cap or the node budget."""

    def __init__(self, rank: int, bound: float, nodes: int):
        self.rank = rank
        self.bound = bound
        self.nodes = nodes
        super().__init__(
            f"enumeration of rank {rank} within squared distance {bound:.6g} "
            f"stopped after {nodes} nodes (caps: rank {MAX_ENUM_RANK}, "
            f"{MAX_ENUM_NODES} nodes)")


class ZeroProductNormError(ValueError):
    """A nonzero lattice vector with a (numerically) zero coordinate product."""

    def __init__(self, vector):
        self.vector = np.asarray(vector)
        super().__init__(
            f"zero product norm encountered at lattice vector {self.vector}")


@dataclass(frozen=True)
class LatticeBasis:
    """Full-rank lattice given by basis row vectors over a real or complex ambient."""

    ambient: str
    vectors: np.ndarray

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
            raise ValueError("basis is singular")

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

    @functools.cached_property
    def _reduced(self):
        """(Bred, U, Q, R): LLL rows Bred = U @ real_matrix, the QR of Bred.T
        with R as nested lists.  Cached: ``vectors`` must not be mutated."""
        Bred, U = _lll(self.real_matrix)
        Q, R = _qr(Bred)
        return Bred, U, Q, R.tolist()


@dataclass(frozen=True)
class LatticeInvariants:
    volume: float
    sv: float
    dp_min: float | None
    nsv: float
    ndp: float | None
    dp_exact: bool
    ambient: str
    n: int


def _complex_to_real(vecs: np.ndarray) -> np.ndarray:
    arr = np.asarray(vecs, dtype=complex)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    out = np.empty((arr.shape[0], 2 * arr.shape[1]))
    out[:, 0::2] = arr.real
    out[:, 1::2] = arr.imag
    return out[0] if single else out


def _real_to_complex(vecs: np.ndarray) -> np.ndarray:
    arr = np.asarray(vecs, dtype=float)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    out = arr[:, 0::2] + 1j * arr[:, 1::2]
    return out[0] if single else out


def volume(basis: LatticeBasis) -> float:
    """Volume of the fundamental parallelotope, sqrt(det Gram)."""
    mat = basis.real_matrix
    sign, logdet = np.linalg.slogdet(mat @ mat.T)
    if sign <= 0:
        raise ValueError("Gram matrix is not positive definite")
    return float(math.exp(0.5 * logdet))


def _lll(B: np.ndarray, delta: float = 0.99):
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
        if bb[i] >= (delta - mu[i][i - 1] ** 2) * bb[i - 1]:
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
    """QR of the column-vector matrix B.T with positive diagonal in R."""
    Q, R = np.linalg.qr(B.T)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs, R * signs[:, None]


def ball_bound(radius: float) -> float:
    """Squared radius, widened for roundoff, within which a point is in the
    closed ball: the one test for carving, counting and codebook membership."""
    return radius * radius * (1.0 + 1e-12) + 1e-12


def _enumerate(basis: LatticeBasis, center, bound: float, leaf) -> None:
    """Schnorr-Euchner walk over the lattice points v with ||v - center||^2 <= bound.

    The walk runs in the basis's LLL coordinates u, as ||R u - t||^2 with
    t = Q^T center.  Each level tries integers in zig-zag order around its
    projected center, nearest first, and stops at the first one past the
    bound.  Every lattice point within the bound goes to ``leaf(u, d2)``;
    ``u`` is the live coordinate list (copy it to keep it), and the leaf
    returns the bound for the rest of the walk, so a closest-point leaf can
    shrink it.  A rank above ``MAX_ENUM_RANK``, or more than
    ``MAX_ENUM_NODES`` tree nodes, raises ``EnumerationCapError``.
    """
    rank = basis.rank
    if rank > MAX_ENUM_RANK:
        raise EnumerationCapError(rank, bound, 0)
    _, _, Q, R = basis._reduced
    t = Q.T @ basis.to_real(np.asarray(center))
    budget = MAX_ENUM_NODES
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
            u[level] = cand
            if level == 0:
                bound = leaf(u, d2)
            else:
                rec(level - 1, [y[j] - cand * R[j][level] for j in range(level)],
                    d2)
            # jumps of 1, -2, 3, -4, ... (signs flipped if ci < cand)
            cand += jump
            jump = -jump - 1 if jump > 0 else 1 - jump
        # the candidates within the bound: |jump| - 1
        nodes += abs(jump) - 1
        if nodes > budget:
            raise EnumerationCapError(rank, bound, nodes)

    rec(rank - 1, [float(v) for v in t], 0.0)


def _nearest(basis: LatticeBasis, target, exclude_zero: bool = False):
    """Reduced coordinates u and squared distance of the lattice point
    nearest ``target`` (nonzero if ``exclude_zero``).

    Ties within an absolute 1e-12 in squared distance break to the
    lexicographically smaller u in the LLL basis, not the caller's.  The
    window does not scale with the lattice: once squared distances are large
    enough that 1e-12 is below their float resolution, near-ties that differ
    only by rounding are settled by that rounding, not by the coordinate
    order.
    """
    best_u, best_d2 = None, math.inf

    def leaf(u, d2):
        nonlocal best_u, best_d2
        if exclude_zero and not any(u):
            pass  # the origin is no shortest vector
        elif d2 < best_d2 - _TIE_EPS:
            best_u, best_d2 = u.copy(), d2
        elif u < best_u:
            best_u, best_d2 = u.copy(), min(best_d2, d2)
        return best_d2 + _TIE_EPS

    _enumerate(basis, target, math.inf, leaf)
    return best_u, best_d2


def shortest_vector(basis: LatticeBasis):
    """Exact shortest nonzero lattice vector and its Euclidean norm."""
    u, d2 = _nearest(basis, np.zeros(basis.n), exclude_zero=True)
    vec_real = np.asarray(u, dtype=float) @ basis._reduced[0]
    return basis.to_ambient(vec_real), math.sqrt(d2)


def closest_vector_coords(basis: LatticeBasis, target):
    """Closest lattice vector and its integer coordinates in the given basis."""
    u, _ = _nearest(basis, target)
    Bred, U, _, _ = basis._reduced
    u = np.asarray(u, dtype=np.int64)
    return basis.to_ambient(u.astype(float) @ Bred), u @ U


def count_in_ball(basis: LatticeBasis, center, radius: float) -> int:
    """Number of lattice vectors v with ||v - center|| <= radius."""
    r2 = ball_bound(radius)
    hits = 0

    def leaf(u, d2):
        nonlocal hits
        hits += 1
        return r2

    _enumerate(basis, center, r2, leaf)
    return hits


def points_in_ball(basis: LatticeBasis, center, radius: float):
    """All lattice vectors v with ||v - center|| <= radius.

    Returns (coords, vectors): integer coordinates in the given basis and the
    corresponding ambient vectors, in a deterministic order.
    """
    r2 = ball_bound(radius)
    flat = array.array("q")  # 8 bytes per coordinate while the walk runs
    _enumerate(basis, center, r2, lambda u, d2: flat.extend(u) or r2)
    if not flat:
        coords = np.zeros((0, basis.rank), dtype=np.int64)
        vecs = np.zeros((0, basis.n), dtype=basis.vectors.dtype)
        return coords, vecs
    Bred, U, _, _ = basis._reduced
    ured = np.frombuffer(flat, dtype=np.int64).reshape(-1, basis.rank)
    ured = ured[np.lexsort(ured.T[::-1])]
    vec_real = ured.astype(float) @ Bred
    return ured @ U, np.atleast_2d(basis.to_ambient(vec_real))


def product_norm(vec) -> float:
    """Product of coordinate moduli in the ambient space."""
    v = np.asarray(vec)
    return float(np.prod(np.abs(v)))


def min_product_distance(basis: LatticeBasis, radius: float,
                         exact_hint: float | None = None):
    """Minimum product norm over nonzero lattice vectors of Euclidean norm <= radius.

    Returns (dp_min, dp_exact); exactness is only certified when a supplied
    theory floor is attained, since unit-norm-product vectors can have
    unbounded Euclidean norm.
    """
    coords, vecs = points_in_ball(basis, np.zeros(basis.n), radius)
    dp = math.inf
    for u, v in zip(coords, vecs):
        if not np.any(u):
            continue
        norm = float(np.linalg.norm(v))
        if np.min(np.abs(v)) <= 1e-9 * max(1.0, norm):
            raise ZeroProductNormError(v)
        dp = min(dp, product_norm(v))
    if math.isinf(dp):
        raise ValueError(f"no nonzero lattice vector within radius {radius}")
    exact = exact_hint is not None and dp <= exact_hint * (1.0 + 1e-9)
    return dp, exact


def invariants(basis: LatticeBasis, radius: float | None = None,
               exact_hint: float | None = None) -> LatticeInvariants:
    """Volume, shortest vector, product distance, and their normalized forms."""
    vol = volume(basis)
    _, sv = shortest_vector(basis)
    search_radius = max(radius if radius is not None else 0.0, 1.5 * sv)
    dp, dp_exact = min_product_distance(basis, search_radius,
                                        exact_hint=exact_hint)
    if basis.ambient == COMPLEX:
        nsv = sv / vol ** (1.0 / (2 * basis.n))
        ndp = dp / math.sqrt(vol)
    else:
        nsv = sv / vol ** (1.0 / basis.n)
        ndp = dp / vol
    return LatticeInvariants(volume=vol, sv=sv, dp_min=dp, nsv=nsv, ndp=ndp,
                             dp_exact=dp_exact, ambient=basis.ambient,
                             n=basis.n)
