"""Explicit number field catalog: embeddings, discriminants, ideal lattices.

Fields are either totally real or totally complex, with integral bases
supplied as catalog data; the packaged ones are desk-scale (degrees 2-8).
Validation is exact: the discriminant of the integral basis and each
ideal's index are computed in integers and Fractions.  Embeddings are
numeric, computed from the defining polynomial's roots (companion matrix
plus Newton polishing).

A field's lattices depend only on the field, so each is built once per
process: ``field_roots``, ``embedding_matrix`` and ``ideal_lattice`` keep
their results in LRUs of ``_FIELD_CACHE`` entries, keyed by the frozen
specs, which compare by value and hash once per object.  Every array a
cached result exposes is read-only: the roots, a basis's ``vectors`` and
the arrays of its ``_reduced`` (built on first use and kept with the
basis), so a caller that writes to one gets ``ValueError``.  Nothing is
built at import; ``load_catalog``'s validation fills the roots of the
catalog's fields, and each embedding is built on first use.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

import numpy as np

from . import lattice
from .lattice import COMPLEX, REAL, LatticeBasis


#: Entries of each per-field LRU: every field and ideal of the packaged
#: catalog (7 fields, 3 ideals) with room to spare.
_FIELD_CACHE = 32


class CatalogError(ValueError):
    """Catalog parse or validation failure."""


def _spec_hash(spec) -> int:
    """The hash of a frozen spec's fields, computed once per object: a spec
    holds tuples of Fractions, and hashing F8-17's 64 walks them all."""
    h = spec.__dict__.get("_hash")
    if h is None:
        h = hash(tuple(getattr(spec, f.name)
                       for f in dataclasses.fields(spec)))
        spec.__dict__["_hash"] = h
    return h


def _spec_state(spec) -> dict:
    """Pickled state of a spec: its fields alone.  A string's hash differs
    between processes, so a memoized hash must not travel."""
    return {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}


@dataclass(frozen=True)
class IdealSpec:
    label: str
    z_basis: tuple[tuple[Fraction, ...], ...]
    norm: int
    class_label: str
    principal: bool

    __hash__ = _spec_hash
    __getstate__ = _spec_state


@dataclass(frozen=True)
class FieldSpec:
    name: str
    degree: int
    signature: tuple[int, int]
    min_poly: tuple[int, ...]          # ascending, constant term first, monic
    integral_basis: tuple[tuple[Fraction, ...], ...]
    disc_catalog: int
    ideals: tuple[IdealSpec, ...] = field(default=())

    __hash__ = _spec_hash
    __getstate__ = _spec_state

    @property
    def totally_real(self) -> bool:
        return self.signature[1] == 0

    @property
    def ambient_n(self) -> int:
        """Ambient dimension: degree if totally real, degree/2 if totally complex."""
        return self.degree if self.totally_real else self.degree // 2

    def unit_ideal(self) -> IdealSpec:
        """The ring of integers as an ideal; the same object on every call."""
        unit = self.__dict__.get("_unit_ideal")
        if unit is None:
            unit = IdealSpec(label="unit", z_basis=self.integral_basis,
                             norm=1, class_label="principal", principal=True)
            self.__dict__["_unit_ideal"] = unit
        return unit


def _frac(tok: str) -> Fraction:
    return Fraction(tok.strip())


def _parse_vectors(text: str) -> tuple[tuple[Fraction, ...], ...]:
    vecs = []
    for chunk in text.split(";"):
        vecs.append(tuple(_frac(t) for t in chunk.split(",")))
    return tuple(vecs)


def _frac_solve(mat, rows=()):
    """Exact Gauss-Jordan elimination: ``(det(mat), xs)``, where ``xs[i]``
    is the Fraction vector x with ``x @ mat == rows[i]``; xs is None when
    mat is singular.  Entries are ints or Fractions.

    Fraction-free (Bareiss 1968): each equation is scaled to integers, and
    every update divides exactly by the previous pivot, so the entries stay
    integer minors and the last pivot is the scaled determinant.
    """
    k = len(mat)
    # x @ mat == row is mat.T @ x == row: reduce [mat.T | rows.T] to
    # pivot * [I | xs.T], with the last pivot
    aug = [[v[c] for v in mat] + [row[c] for row in rows] for c in range(k)]
    scale = 1
    for i, eq in enumerate(aug):
        d = math.lcm(*(v.denominator for v in eq))
        aug[i] = [int(v * d) for v in eq]
        scale *= d
    sign, prev = 1, 1
    for col in range(k):
        found = next((r for r in range(col, k) if aug[r][col]), None)
        if found is None:
            return Fraction(0), None
        if found != col:
            aug[col], aug[found] = aug[found], aug[col]
            sign = -sign
        prow = aug[col]
        pivot = prow[col]
        for r in range(k):
            if r != col:
                f = aug[r][col]
                aug[r] = [(pivot * a - f * b) // prev
                          for a, b in zip(aug[r], prow)]
        prev = pivot
    return (Fraction(sign * prev, scale),
            [[Fraction(aug[r][k + i], prev) for r in range(k)]
             for i in range(len(rows))])


def field_discriminant(f: FieldSpec) -> Fraction:
    """Exact discriminant of the integral basis, det(basis)^2 det[p_(i+j)]:
    the trace Tr(theta^k) is the power sum p_k of the min_poly roots, an
    integer by Newton's identities (Cohen 1993, 4.3).  Zero when the basis
    is singular or min_poly has a repeated root."""
    n = f.degree
    c = f.min_poly[::-1]  # c[i]: the coefficient of x^(n - i), c[0] = 1
    p = [n]
    for k in range(1, 2 * n - 1):
        p.append(-(k * c[k] if k <= n else 0)
                 - sum(c[i] * p[k - i] for i in range(1, min(k, n + 1))))
    return (_frac_solve(f.integral_basis)[0] ** 2
            * _frac_solve([p[i:i + n] for i in range(n)])[0])


def _validate_field(f: FieldSpec):
    r1, r2 = f.signature
    if r1 + 2 * r2 != f.degree:
        raise CatalogError(
            f"{f.name}: signature ({r1},{r2}) inconsistent with degree {f.degree}")
    if r1 > 0 and r2 > 0:
        raise CatalogError(
            f"{f.name}: mixed signature; only totally real or totally complex "
            f"fields are supported")
    if len(f.min_poly) != f.degree + 1 or f.min_poly[-1] != 1:
        raise CatalogError(f"{f.name}: min_poly must be monic of degree {f.degree}")
    if len(f.integral_basis) != f.degree or any(
            len(v) != f.degree for v in f.integral_basis):
        raise CatalogError(f"{f.name}: integral basis must be {f.degree} "
                           f"vectors of length {f.degree}")
    disc = field_discriminant(f)
    if disc == 0:
        raise CatalogError(f"{f.name}: discriminant is 0: the integral basis "
                           f"is singular or min_poly has a repeated root")
    if disc != f.disc_catalog:
        raise CatalogError(f"{f.name}: catalog discriminant mismatch: "
                           f"{f.disc_catalog} != exact {disc}")
    field_roots(f)  # the signature's real/complex root split
    for ideal in f.ideals:
        _validate_ideal(f, ideal)


def _validate_ideal(f: FieldSpec, ideal: IdealSpec):
    if len(ideal.z_basis) != f.degree or any(
            len(v) != f.degree for v in ideal.z_basis):
        raise CatalogError(f"{f.name}/{ideal.label}: z_basis must be "
                           f"{f.degree} vectors of length {f.degree}")
    # index [O_K : I] = |det| of z_basis expressed in the integral basis
    coords = _frac_solve(f.integral_basis, ideal.z_basis)[1]
    if any(c.denominator != 1 for row in coords for c in row):
        raise CatalogError(f"{f.name}/{ideal.label}: z_basis element outside "
                           f"the ring of integers")
    index = abs(_frac_solve(coords)[0])
    if index != ideal.norm:
        raise CatalogError(
            f"{f.name}/{ideal.label}: index {index} does not equal norm "
            f"{ideal.norm}")


@contextlib.contextmanager
def _section(kind: str, sect: dict):
    """Turn a parse failure in the ``kind`` section ``sect`` into a
    ``CatalogError`` naming the section's line."""
    try:
        yield
    except KeyError as exc:
        raise CatalogError(
            f"line {sect['_line']}: {kind} missing key {exc}") from None
    except ZeroDivisionError:
        raise CatalogError(
            f"line {sect['_line']}: {kind} has a zero denominator") from None
    except ValueError as exc:
        raise CatalogError(
            f"line {sect['_line']}: {kind} has a bad value: {exc}") from None


def parse_catalog(text: str) -> list[FieldSpec]:
    fields: list[FieldSpec] = []
    cur: dict | None = None
    cur_ideal: dict | None = None
    pending_ideals: list[IdealSpec] = []

    def finish_ideal():
        nonlocal cur_ideal
        if cur_ideal is None:
            return
        with _section("ideal", cur_ideal):
            pending_ideals.append(IdealSpec(
                label=cur_ideal["name"],
                z_basis=_parse_vectors(cur_ideal["basis"]),
                norm=int(cur_ideal["norm"]),
                class_label=cur_ideal["class"],
                principal=cur_ideal["principal"].lower() in ("1", "true", "yes"),
            ))
        cur_ideal = None

    def finish_field():
        nonlocal cur
        finish_ideal()
        if cur is None:
            return
        with _section("field", cur):
            spec = FieldSpec(
                name=cur["name"],
                degree=int(cur["degree"]),
                signature=(int(cur["r1"]), int(cur["r2"])),
                min_poly=tuple(int(t) for t in cur["minpoly"].split(",")),
                integral_basis=_parse_vectors(cur["basis"]),
                disc_catalog=int(cur["disc"]),
                ideals=tuple(pending_ideals),
            )
        _validate_field(spec)
        fields.append(spec)
        pending_ideals.clear()
        cur = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[field]":
            finish_field()
            cur = {"_line": lineno}
        elif line == "[ideal]":
            if cur is None:
                raise CatalogError(f"line {lineno}: [ideal] before any [field]")
            finish_ideal()
            cur_ideal = {"_line": lineno}
        elif "=" in line:
            key, _, value = line.partition("=")
            target = cur_ideal if cur_ideal is not None else cur
            if target is None:
                raise CatalogError(f"line {lineno}: key outside a section")
            target[key.strip()] = value.strip()
        else:
            raise CatalogError(f"line {lineno}: cannot parse {raw!r}")
    finish_field()
    return fields


@functools.cache
def _packaged_catalog() -> tuple[FieldSpec, ...]:
    text = resources.files("latcode").joinpath("data/fields.cat").read_text()
    return tuple(parse_catalog(text))


def load_catalog(path=None) -> list[FieldSpec]:
    """Load and validate a field catalog; defaults to the packaged one.

    The packaged catalog is parsed and validated once per process; a catalog
    at ``path`` is read and validated on every call.  Each call returns a
    new list.
    """
    if path is None:
        return list(_packaged_catalog())
    with open(path, encoding="utf-8") as fh:
        return parse_catalog(fh.read())


def catalog_field(name: str, path=None) -> FieldSpec:
    for f in load_catalog(path):
        if f.name == name:
            return f
    raise ValueError(f"field {name!r} not in catalog")


@functools.lru_cache(maxsize=_FIELD_CACHE)
def field_roots(f: FieldSpec) -> np.ndarray:
    """Roots of the defining polynomial chosen and ordered for the embedding.

    Totally real fields: all roots, ascending.  Totally complex fields: one
    root per conjugate pair (positive imaginary part), ordered by ascending
    real part then imaginary part.  Cached per field, read-only.
    """
    coeffs_desc = list(f.min_poly[::-1])
    roots = np.roots(coeffs_desc)
    # Newton polishing for a couple of digits beyond np.roots
    poly = np.polynomial.Polynomial(list(map(float, f.min_poly)))
    dpoly = poly.deriv()
    for _ in range(3):
        roots = roots - poly(roots) / dpoly(roots)
    if f.totally_real:
        if np.max(np.abs(roots.imag)) > 1e-8:
            raise CatalogError(f"{f.name}: expected all-real roots")
        chosen = np.sort(roots.real)
    else:
        if np.min(np.abs(roots.imag)) < 1e-8:
            raise CatalogError(f"{f.name}: expected no real roots")
        chosen = roots[roots.imag > 0]
        if len(chosen) != f.degree // 2:
            raise CatalogError(f"{f.name}: could not split conjugate pairs")
        chosen = chosen[np.lexsort((chosen.imag, chosen.real))]
    chosen.flags.writeable = False
    return chosen


def _embedded_lattice(f: FieldSpec, elements) -> LatticeBasis:
    """Basis psi(e_1), ..., psi(e_m) of elements in power-basis coordinates,
    with read-only ``vectors``."""
    roots = field_roots(f)
    rows = []
    for coeffs in elements:
        vals = np.zeros_like(roots, dtype=complex)
        for c in reversed([float(c) for c in coeffs]):
            vals = vals * roots + c
        rows.append(vals.real if f.totally_real else vals)
    vectors = np.array(rows)
    vectors.flags.writeable = False
    return LatticeBasis(REAL if f.totally_real else COMPLEX, vectors)


@functools.lru_cache(maxsize=_FIELD_CACHE)
def embedding_matrix(f: FieldSpec) -> LatticeBasis:
    """Lattice basis psi(w_1), ..., psi(w_m) of the embedded ring of
    integers; cached per field, so one basis and its one ``_reduced`` serve
    every caller."""
    return _embedded_lattice(f, f.integral_basis)


def predicted_invariants(f: FieldSpec) -> tuple[float, float]:
    """Closed-form (nsv, ndp) of the embedded ring of integers, from the
    degree and the discriminant alone.

    Keep the expressions in this form: deriving them from the covolume
    instead moves the last bits of the exported tables.
    """
    d = abs(f.disc_catalog)
    n = f.ambient_n
    if f.totally_real:
        return math.sqrt(n) / d ** (1.0 / (2 * n)), 1.0 / math.sqrt(d)
    return (math.sqrt(2 * n) / d ** (1.0 / (4 * n)),
            2.0 ** (n / 2.0) / d ** 0.25)


@functools.lru_cache(maxsize=_FIELD_CACHE)
def ideal_lattice(f: FieldSpec, ideal: IdealSpec) -> LatticeBasis:
    """Embedded ideal lattice; its log covolume verified against
    ln(N(I) 2^(-r2) sqrt|d|), which the catalog's exact validation proves,
    so the check guards the numerics of the embedding.  The tolerance is
    degree * eps * cond of the embedded basis.

    Cached per (field, ideal) and shared, as ``embedding_matrix`` is.  An
    ideal whose Z-basis is the integral basis is the ring itself, and gets
    ``embedding_matrix(f)`` with its one reduction."""
    basis = (embedding_matrix(f) if ideal.z_basis == f.integral_basis
             else _embedded_lattice(f, ideal.z_basis))
    real = basis.real_matrix
    log_vol = np.linalg.slogdet(real)[1]
    expected = (math.log(ideal.norm) + 0.5 * math.log(abs(f.disc_catalog))
                - f.signature[1] * math.log(2.0))
    # the float log determinant errs by about degree * eps * cond; a wrong
    # Z-basis changes the covolume by an integer factor, at least ln 2
    if abs(log_vol - expected) > (f.degree * np.finfo(float).eps
                                  * np.linalg.cond(real)):
        raise CatalogError(f"{f.name}/{ideal.label}: ideal log covolume "
                           f"{log_vol} != expected {expected}")
    return basis


def embedded_norm(f: FieldSpec, norm: int) -> float:
    """An ideal norm ``norm`` as a product of coordinate moduli reads it:
    ``norm`` on a real field, whose embedding takes every conjugate, and
    sqrt(norm) on a complex one, whose embedding takes one of each pair."""
    return norm if f.totally_real else math.sqrt(norm)


def reaches_norm_floor(value: float) -> bool:
    """Whether a normalized product norm (``min_ideal``'s) has reached 1
    within roundoff: N(I) divides Nr(x) for every nonzero x in I, so no
    element lies below 1, and one that reaches it attains the minimum."""
    return value <= 1.0 + 1e-9


def ideal_search_radius(f: FieldSpec, ideal: IdealSpec) -> float:
    """Pragmatic search radius for min_ideal; generally an upper-bound search."""
    m = f.degree
    return 3.0 * math.sqrt(m) * (ideal.norm * math.sqrt(abs(f.disc_catalog))) ** (1.0 / m)


def min_ideal(f: FieldSpec, ideal: IdealSpec) -> float:
    """min over nonzero x in I with ||psi(x)|| <= radius of the normalized norm.

    Complex fields: sqrt(|Nr(x)| / N(I)); real fields: |Nr(x)| / N(I), each
    shell's minimum product norm divided once by ``embedded_norm``.  The
    shells have radius ``ideal_search_radius`` and its half and quarter,
    smallest first; the first that ``reaches_norm_floor`` ends the search.
    This is an upper bound on min(I), exact whenever the attaining element
    lies inside the search radius.  A shell past the enumeration node
    budget raises ``lattice.EnumerationCapError``.
    """
    search_radius = ideal_search_radius(f, ideal)
    basis = ideal_lattice(f, ideal)
    scale = embedded_norm(f, ideal.norm)
    best = math.inf
    for r in (search_radius / 4.0, search_radius / 2.0, search_radius):
        best = min(best, lattice._min_product_norm(basis, r) / scale)
        if reaches_norm_floor(best):
            break
    if math.isinf(best):
        raise ValueError(
            f"no nonzero ideal element within radius {search_radius}")
    return best
