"""Generic lattice engine: volumes, SVP/CVP enumeration, product distances.

Complex ambient spaces are handled internally as R^{2n} (coordinates
interleaved re/im); only the product norm reads coordinate pairs back as
complex moduli.  All enumeration is exact within the dimension cap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

REAL = "real"
COMPLEX = "complex"

#: Default cap on enumeration rank; desk-scale guarantee.
MAX_ENUM_RANK = 24

_TIE_EPS = 1e-12


class EnumerationCapError(RuntimeError):
    pass


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


def _check_rank(rank: int, max_rank: int):
    if rank > max_rank:
        raise EnumerationCapError(
            f"enumeration rank {rank} exceeds cap {max_rank}")


def _se_closest(Rl, t, exclude_zero=False):
    """Schnorr-Euchner search for argmin_u ||Rl u - t|| over integer u.

    Ties within an absolute 1e-12 in squared distance break to the
    lexicographically smaller coordinate vector u in the basis of ``Rl``,
    which for the callers here is the LLL-reduced basis, not the caller's.
    The window does not scale with the lattice: once squared distances are
    large enough that 1e-12 is below their float resolution, near-ties that
    differ only by rounding are settled by that rounding, not by the
    coordinate order.
    """
    k = len(t)
    tl = [float(v) for v in t]
    best = {"u": None, "d2": math.inf}
    u = [0] * k

    def rec(level, y, acc):
        rii = Rl[level][level]
        ci = y[level] / rii
        u0 = math.floor(ci + 0.5)
        delta = 1 if ci >= u0 else -1
        step = 0
        while True:
            if step == 0:
                cand = u0
            elif step % 2 == 1:
                cand = u0 + delta * ((step + 1) // 2)
            else:
                cand = u0 - delta * (step // 2)
            step += 1
            diff = y[level] - cand * rii
            new_acc = acc + diff * diff
            if new_acc > best["d2"] + _TIE_EPS:
                # zig-zag ordering: every later candidate is at least this far
                break
            u[level] = cand
            if level == 0:
                if exclude_zero and all(v == 0 for v in u):
                    continue
                if new_acc < best["d2"] - _TIE_EPS:
                    best["u"] = list(u)
                    best["d2"] = new_acc
                elif best["u"] is not None and new_acc <= best["d2"] + _TIE_EPS:
                    if list(u) < best["u"]:
                        best["u"] = list(u)
                        best["d2"] = min(best["d2"], new_acc)
                elif best["u"] is None:
                    best["u"] = list(u)
                    best["d2"] = new_acc
            else:
                ynext = [y[j] - cand * Rl[j][level] for j in range(level)]
                rec(level - 1, ynext, new_acc)

    rec(k - 1, tl, 0.0)
    return best["u"], best["d2"]


def _enum_ball(Rl, t, radius):
    """All integer u with ||Rl u - t|| <= radius, in deterministic DFS order."""
    k = len(t)
    tl = [float(v) for v in t]
    r2 = radius * radius * (1.0 + 1e-12) + 1e-12
    out = []
    u = [0] * k

    def rec(level, y, acc):
        rii = Rl[level][level]
        rem = r2 - acc
        if rem < 0.0:
            return
        ci = y[level] / rii
        half = math.sqrt(rem) / abs(rii)
        lo = math.ceil(ci - half)
        hi = math.floor(ci + half)
        for cand in range(lo, hi + 1):
            diff = y[level] - cand * rii
            new_acc = acc + diff * diff
            if new_acc > r2:
                continue
            u[level] = cand
            if level == 0:
                out.append(list(u))
            else:
                ynext = [y[j] - cand * Rl[j][level] for j in range(level)]
                rec(level - 1, ynext, new_acc)

    rec(k - 1, tl, 0.0)
    return out


def shortest_vector(basis: LatticeBasis, max_rank: int = MAX_ENUM_RANK):
    """Exact shortest nonzero lattice vector and its Euclidean norm."""
    _check_rank(basis.rank, max_rank)
    Bred, _, _, R = basis._reduced
    u, d2 = _se_closest(R, [0.0] * basis.rank, exclude_zero=True)
    vec_real = np.asarray(u, dtype=float) @ Bred
    return basis.to_ambient(vec_real), math.sqrt(d2)


def closest_vector(basis: LatticeBasis, target, max_rank: int = MAX_ENUM_RANK):
    """Exact closest lattice vector to ``target`` (in the ambient space)."""
    vec, _ = closest_vector_coords(basis, target, max_rank=max_rank)
    return vec


def closest_vector_coords(basis: LatticeBasis, target, max_rank: int = MAX_ENUM_RANK):
    """Closest lattice vector and its integer coordinates in the given basis."""
    _check_rank(basis.rank, max_rank)
    treal = basis.to_real(np.asarray(target))
    Bred, U, Q, R = basis._reduced
    t = Q.T @ treal
    u, _ = _se_closest(R, t)
    u = np.asarray(u, dtype=np.int64)
    vec_real = u.astype(float) @ Bred
    return basis.to_ambient(vec_real), u @ U


def points_in_ball(basis: LatticeBasis, center, radius: float,
                   max_rank: int = MAX_ENUM_RANK):
    """All lattice vectors v with ||v - center|| <= radius.

    Returns (coords, vectors): integer coordinates in the given basis and the
    corresponding ambient vectors, in a deterministic order.
    """
    _check_rank(basis.rank, max_rank)
    creal = basis.to_real(np.asarray(center))
    Bred, U, Q, R = basis._reduced
    t = Q.T @ creal
    us = _enum_ball(R, t, radius)
    if not us:
        coords = np.zeros((0, basis.rank), dtype=np.int64)
        vecs = np.zeros((0, basis.n), dtype=basis.vectors.dtype)
        return coords, vecs
    ured = np.asarray(us, dtype=np.int64)
    order = np.lexsort(ured.T[::-1])
    ured = ured[order]
    vec_real = ured.astype(float) @ Bred
    return ured @ U, np.atleast_2d(basis.to_ambient(vec_real))


def product_norm(vec) -> float:
    """Product of coordinate moduli in the ambient space."""
    v = np.asarray(vec)
    return float(np.prod(np.abs(v)))


def min_product_distance(basis: LatticeBasis, radius: float,
                         exact_hint: float | None = None,
                         max_rank: int = MAX_ENUM_RANK):
    """Minimum product norm over nonzero lattice vectors of Euclidean norm <= radius.

    Returns (dp_min, dp_exact); exactness is only certified when a supplied
    theory floor is attained, since unit-norm-product vectors can have
    unbounded Euclidean norm.
    """
    coords, vecs = points_in_ball(basis, np.zeros(basis.n), radius,
                                  max_rank=max_rank)
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
               exact_hint: float | None = None,
               max_rank: int = MAX_ENUM_RANK) -> LatticeInvariants:
    """Volume, shortest vector, product distance, and their normalized forms."""
    vol = volume(basis)
    _, sv = shortest_vector(basis, max_rank=max_rank)
    search_radius = max(radius if radius is not None else 0.0, 1.5 * sv)
    dp, dp_exact = min_product_distance(basis, search_radius,
                                        exact_hint=exact_hint,
                                        max_rank=max_rank)
    if basis.ambient == COMPLEX:
        nsv = sv / vol ** (1.0 / (2 * basis.n))
        ndp = dp / math.sqrt(vol)
    else:
        nsv = sv / vol ** (1.0 / basis.n)
        ndp = dp / vol
    return LatticeInvariants(volume=vol, sv=sv, dp_min=dp, nsv=nsv, ndp=ndp,
                             dp_exact=dp_exact, ambient=basis.ambient,
                             n=basis.n)
