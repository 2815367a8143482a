import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcode import lattice
from latcode import numberfield as nf

CAT = nf.load_catalog()


def get(name):
    return nf.catalog_field(name)


@pytest.fixture
def parses(monkeypatch):
    """One entry per parse_catalog call."""
    calls = []
    real_parse = nf.parse_catalog
    monkeypatch.setattr(nf, "parse_catalog",
                        lambda text: calls.append(1) or real_parse(text))
    return calls


def field_text(name, signature, min_poly, disc, basis=None) -> str:
    """A catalog entry; the power basis unless ``basis`` is given."""
    m = len(min_poly) - 1
    basis = basis or ";".join(
        ",".join("1" if i == j else "0" for j in range(m)) for i in range(m))
    return (f"[field]\nname = {name}\ndegree = {m}\nr1 = {signature[0]}\n"
            f"r2 = {signature[1]}\nminpoly = {','.join(map(str, min_poly))}\n"
            f"basis = {basis}\ndisc = {disc}\n")


QI = field_text("Qi", (0, 1), [1, 0, 1], -4)  # 8 lines


class TestCatalogLoading:
    def test_all_fields_load(self):
        names = {f.name for f in CAT}
        assert {"Qi", "Qsqrt2", "Qsqrt5", "Qsqrt-5", "Qzeta5",
                "F4-725", "F8-17"} <= names

    def test_gaussian_integers_entry(self):
        f = get("Qi")
        assert f.degree == 2 and f.signature == (0, 1)
        assert f.min_poly == (1, 0, 1)
        assert f.disc_catalog == -4

    def test_real_quadratic_entry(self):
        f = get("Qsqrt2")
        assert f.signature == (2, 0)
        assert f.disc_catalog == 8

    def test_packaged_catalog_parsed_once(self, parses):
        nf._packaged_catalog.cache_clear()
        loads = [nf.load_catalog() for _ in range(5)]
        assert len(parses) == 1
        assert all(fields == CAT for fields in loads)
        assert len({id(fields) for fields in loads}) == 5

    def test_catalog_path_read_every_call(self, parses, tmp_path):
        path = tmp_path / "fields.cat"
        path.write_text("[field]\nname = Qi\ndegree = 2\nr1 = 0\nr2 = 1\n"
                        "minpoly = 1,0,1\nbasis = 1,0;0,1\ndisc = -4\n")
        for _ in range(3):
            assert [f.name for f in nf.load_catalog(path)] == ["Qi"]
        assert len(parses) == 3

    def test_bad_signature_rejected(self):
        text = """
[field]
name = broken
degree = 2
r1 = 1
r2 = 1
minpoly = 1,0,1
basis = 1,0;0,1
disc = -4
"""
        with pytest.raises(nf.CatalogError, match="signature"):
            nf.parse_catalog(text)

    def test_mixed_signature_rejected(self):
        text = """
[field]
name = cubic
degree = 3
r1 = 1
r2 = 1
minpoly = -2,0,0,1
basis = 1,0,0;0,1,0;0,0,1
disc = -108
"""
        with pytest.raises(nf.CatalogError, match="mixed signature"):
            nf.parse_catalog(text)

    def test_bad_discriminant_rejected(self):
        text = """
[field]
name = off
degree = 2
r1 = 2
r2 = 0
minpoly = -2,0,1
basis = 1,0;0,1
disc = 12
"""
        with pytest.raises(nf.CatalogError, match="discriminant mismatch"):
            nf.parse_catalog(text)

    @pytest.mark.parametrize("text, error", [
        (QI.replace("0;0,1", "0;0,1/0"), "line 1: field has a zero denominator"),
        (QI.replace("degree = 2", "degree = two"),
         "line 1: field has a bad value: invalid literal for int"),
        (QI + "[ideal]\nname = two\nbasis = 2,0;0,2\nnorm = 4/1\n"
         "class = principal\nprincipal = true\n",
         "line 9: ideal has a bad value: invalid literal for int"),
    ], ids=["zero-denominator", "non-integer", "ideal-non-integer"])
    def test_unparsable_value_names_its_section(self, text, error):
        with pytest.raises(nf.CatalogError, match=error):
            nf.parse_catalog(text)

    def test_bad_ideal_index_rejected(self):
        text = """
[field]
name = Qi
degree = 2
r1 = 0
r2 = 1
minpoly = 1,0,1
basis = 1,0;0,1
disc = -4

[ideal]
name = wrong
basis = 2,0;0,2
norm = 3
class = principal
principal = true
"""
        with pytest.raises(nf.CatalogError, match="index"):
            nf.parse_catalog(text)


class TestEmbeddings:
    def test_gaussian_integers(self):
        B = nf.embedding_matrix(get("Qi"))
        assert B.ambient == lattice.COMPLEX
        assert np.allclose(B.vectors, [[1.0], [1.0j]])

    def test_real_quadratic(self):
        B = nf.embedding_matrix(get("Qsqrt2"))
        assert np.allclose(B.vectors[0], [1.0, 1.0])
        # the two real roots, ascending
        assert np.allclose(B.vectors[1], [-math.sqrt(2), math.sqrt(2)])

    def test_full_rank_everywhere(self):
        for f in CAT:
            B = nf.embedding_matrix(f)
            gram = B.real_matrix @ B.real_matrix.T
            assert np.linalg.det(gram) > 1e-12


class TestDiscriminantCheck:
    @pytest.mark.parametrize("name", [f.name for f in CAT])
    def test_catalog_consistency(self, name):
        f = get(name)
        assert nf.field_discriminant(f) == f.disc_catalog

    def test_volumes(self):
        assert lattice.volume(nf.embedding_matrix(get("Qi"))) == pytest.approx(1.0)
        assert lattice.volume(nf.embedding_matrix(get("Qsqrt2"))) == \
            pytest.approx(math.sqrt(8), rel=1e-12)
        assert lattice.volume(nf.embedding_matrix(get("Qsqrt-5"))) == \
            pytest.approx(0.5 * math.sqrt(20), rel=1e-12)


def cyclotomic(p: int) -> str:
    """Q(zeta_p), power basis: d = (-1)^((p-1)/2) p^(p-2) (Washington 1997,
    Prop. 2.7)."""
    r2 = (p - 1) // 2
    return field_text(f"Qzeta{p}", (0, r2), [1] * p, (-1) ** r2 * p ** (p - 2))


def real_cyclotomic(p: int) -> str:
    """Q(zeta_p)^+ = Q(theta), theta = zeta + 1/zeta, power basis of the
    ring Z[theta]: d = p^((p-3)/2).  With D_k(theta) = zeta^k + zeta^-k,
    D_(k+1) = theta D_k - D_(k-1), the min_poly is 1 + D_1 + ... + D_m."""
    m = (p - 1) // 2
    D = [[2], [0, 1]]
    for k in range(1, m):
        D.append([a - b for a, b in itertools.zip_longest(
            [0] + D[k], D[k - 1], fillvalue=0)])
    min_poly = [1] + [0] * m
    for k in range(1, m + 1):
        for i, c in enumerate(D[k]):
            min_poly[i] += c
    return field_text(f"Qzeta{p}+", (m, 0), min_poly, p ** ((p - 3) // 2))


class TestExactValidation:
    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
    def test_cyclotomic_fields(self, p):
        f, = nf.parse_catalog(cyclotomic(p))
        assert nf.field_discriminant(f) == (-1) ** ((p - 1) // 2) * p ** (p - 2)

    @pytest.mark.parametrize("p", [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
    def test_real_cyclotomic_fields(self, p):
        f, = nf.parse_catalog(real_cyclotomic(p))
        assert f.degree == (p - 1) // 2
        assert nf.field_discriminant(f) == p ** ((p - 3) // 2)

    @pytest.mark.parametrize("p", [29, 31, 37, 41, 43, 47])
    def test_real_cyclotomic_unit_ideal(self, p):
        f, = nf.parse_catalog(real_cyclotomic(p))
        assert nf.ideal_lattice(f, f.unit_ideal()) is nf.embedding_matrix(f)

    @pytest.mark.parametrize("name", ["Qi", "F8-17", "Qzeta47+"])
    def test_covolume_off_by_two_raises(self, name):
        """The log-covolume tolerance scales with the conditioning of the
        basis, yet stays far below ln 2, the least miss of a wrong
        Z-basis."""
        f = (nf.parse_catalog(real_cyclotomic(47))[0] if name == "Qzeta47+"
             else nf.catalog_field(name))
        twice = dataclasses.replace(f.unit_ideal(), label="twice", norm=2)
        with pytest.raises(nf.CatalogError, match="ideal log covolume"):
            nf.ideal_lattice(f, twice)

    @pytest.mark.parametrize("text, error", [
        (field_text("Qsqrt-5", (0, 1), [5, 0, 1], 20),
         "discriminant mismatch: 20 != exact -20"),
        (field_text("square", (2, 0), [1, -2, 1], 4), "discriminant is 0"),
        (field_text("flat", (0, 1), [1, 0, 1], -4, basis="1,1;2,2"),
         "discriminant is 0"),
        (field_text("short", (0, 1), [1, 0, 1], -4, basis="1,0;0"),
         "2 vectors of length 2"),
        (QI + "[ideal]\nname = short\nbasis = 2,0;1\nnorm = 2\n"
         "class = x\nprincipal = false\n", "z_basis must be 2 vectors"),
    ], ids=["wrong-sign", "repeated-root", "singular-basis", "short-basis",
            "short-ideal-basis"])
    def test_rejected_by_name(self, text, error):
        with pytest.raises(nf.CatalogError, match=error):
            nf.parse_catalog(text)


def leibniz_det(mat):
    k = len(mat)
    total = Fraction(0)
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(k) for j in range(i + 1, k))
        total += (-1) ** inversions * math.prod(mat[i][perm[i]] for i in range(k))
    return total


@st.composite
def square_systems(draw):
    k = draw(st.integers(1, 5))
    entries = st.one_of(st.integers(-4, 4),
                        st.fractions(-4, 4, max_denominator=3))
    mat = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                        min_size=k, max_size=k))
    rows = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                         max_size=3))
    return mat, rows


class TestFracSolve:
    @settings(max_examples=200, deadline=None)
    @given(square_systems())
    def test_det_and_solutions(self, system):
        mat, rows = system
        det, xs = nf._frac_solve(mat, rows)
        assert det == leibniz_det(mat)
        if det == 0:
            assert xs is None
            return
        assert len(xs) == len(rows)
        for x, row in zip(xs, rows):
            assert [sum(x[i] * mat[i][j] for i in range(len(x)))
                    for j in range(len(row))] == row


class TestPredictedInvariants:
    @pytest.mark.parametrize("f", CAT, ids=lambda f: f.name)
    def test_equals_closed_forms(self, f):
        # the closed forms of the acceptance suite's criterion 1, bit for bit
        d = abs(f.disc_catalog)
        if f.totally_real:
            n = f.degree
            want = (math.sqrt(n) / d ** (1.0 / (2 * n)), 1.0 / math.sqrt(d))
        else:
            n = f.degree // 2
            want = (math.sqrt(2 * n) / d ** (1.0 / (4 * n)),
                    2.0 ** (n / 2.0) / d ** 0.25)
        assert nf.predicted_invariants(f) == want


class TestIdealLattices:
    def test_nonprincipal_ideal_volume(self):
        f = get("Qsqrt-5")
        p2 = next(i for i in f.ideals if i.label == "p2")
        vol = lattice.volume(nf.ideal_lattice(f, p2))
        assert vol == pytest.approx(math.sqrt(20), rel=1e-12)

    def test_principal_ideal_volume(self):
        f = get("Qi")
        two = next(i for i in f.ideals if i.label == "two")
        assert lattice.volume(nf.ideal_lattice(f, two)) == pytest.approx(4.0)

    def test_unit_ideal_equals_ring_lattice(self):
        for f in CAT:
            ring = nf.embedding_matrix(f)
            unit = nf.ideal_lattice(f, f.unit_ideal())
            # mutual membership of basis vectors
            for v in unit.vectors:
                w = lattice.closest_vector_coords(ring, v) @ ring.vectors
                assert np.max(np.abs(w - v)) < 1e-8
            for v in ring.vectors:
                w = lattice.closest_vector_coords(unit, v) @ unit.vectors
                assert np.max(np.abs(w - v)) < 1e-8


class TestMinIdeal:
    def test_nonprincipal_ideal_of_qsqrt_minus5(self):
        f = get("Qsqrt-5")
        p2 = next(i for i in f.ideals if i.label == "p2")
        # brute-force oracle: elements (2a+b) + b sqrt(-5), |a|,|b| <= 10
        best = math.inf
        for a in range(-10, 11):
            for b in range(-10, 11):
                if a == 0 and b == 0:
                    continue
                nr = (2 * a + b) ** 2 + 5 * b * b
                best = min(best, math.sqrt(nr / 2.0))
        assert best == pytest.approx(math.sqrt(2), rel=1e-12)
        assert nf.min_ideal(f, p2) == pytest.approx(best, rel=1e-9)
        # non-principal ideals cannot do better than sqrt(2)
        assert nf.min_ideal(f, p2) >= math.sqrt(2) - 1e-9

    def test_unit_ideal_gives_one(self):
        for f in CAT:
            assert nf.min_ideal(f, f.unit_ideal()) == pytest.approx(1.0, rel=1e-9)

    def test_empty_inner_shell_is_skipped(self, monkeypatch):
        # radius 3: the 0.75 ball holds only the origin, the 1.5 ball the
        # units +-1, +-i and the four +-1 +-i of product norm sqrt(2)
        balls = []
        real_points = lattice.points_in_ball

        def spy(basis, center, radius):
            out = real_points(basis, center, radius)
            balls.append((radius, len(out[0])))
            return out

        monkeypatch.setattr(lattice, "points_in_ball", spy)
        monkeypatch.setattr(nf, "ideal_search_radius", lambda f, i: 3.0)
        f = get("Qi")
        assert nf.min_ideal(f, f.unit_ideal()) == 1.0
        assert balls == [(0.75, 1), (1.5, 9)]

    def test_radius_too_small(self, monkeypatch):
        monkeypatch.setattr(nf, "ideal_search_radius", lambda f, i: 0.1)
        f = get("Qi")
        with pytest.raises(ValueError, match="within radius 0.1$"):
            nf.min_ideal(f, f.unit_ideal())


class TestNormFloor:
    def test_boundary(self):
        edge = 1.0 + 1e-9
        assert nf.reaches_norm_floor(edge)
        assert nf.reaches_norm_floor(np.nextafter(edge, 0.0))
        assert not nf.reaches_norm_floor(np.nextafter(edge, 2.0))

    def test_embedded_norm(self):
        assert nf.embedded_norm(get("Qsqrt5"), 4) == 4
        assert nf.embedded_norm(get("Qsqrt-5"), 4) == 2.0


def _polymulmod(a, b, minpoly):
    """Multiply two power-basis elements modulo the monic defining polynomial."""
    m = len(minpoly) - 1
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for deg in range(len(prod) - 1, m - 1, -1):
        c = prod[deg]
        if c == 0:
            continue
        prod[deg] = 0
        for k in range(m + 1):
            prod[deg - m + k] -= c * minpoly[k]
    return prod[:m]


def element_norm(f, coeffs) -> float:
    """|Nr(x)| in floats: the product of x's images under all ``degree``
    embeddings, both members of each conjugate pair on a complex field."""
    r = nf.field_roots(f)
    roots = r.astype(complex) if f.totally_real else np.concatenate(
        [r, np.conj(r)])
    vals = np.zeros_like(roots)
    for c in reversed([float(c) for c in coeffs]):
        vals = vals * roots + c
    return float(np.prod(np.abs(vals)))


class TestElementNorms:
    def test_multiplicativity(self):
        rng = np.random.default_rng(11)
        for f in CAT:
            m = f.degree
            for _ in range(10):
                x = [int(v) for v in rng.integers(-3, 4, m)]
                y = [int(v) for v in rng.integers(-3, 4, m)]
                if not any(x) or not any(y):
                    continue
                xy = _polymulmod(x, y, list(f.min_poly))
                lhs = element_norm(f, xy)
                rhs = element_norm(f, x) * element_norm(f, y)
                assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_integer_norms_at_least_one(self):
        for f in CAT:
            B = nf.embedding_matrix(f)
            coords, vecs = lattice.points_in_ball(
                B, np.zeros(B.n), 1.2 * math.sqrt(f.ambient_n))
            for u, v in zip(coords, vecs):
                if not np.any(u):
                    continue
                p = float(np.prod(np.abs(v)))  # sqrt|Nr| complex, |Nr| real
                assert p >= 1.0 - 1e-9

    def test_idealform_instance(self):
        # best ideal class of Qsqrt-5 attains 2^{n/2} sqrt(N_min) / |d|^{1/4}
        f = get("Qsqrt-5")
        p2 = next(i for i in f.ideals if i.label == "p2")
        ndp = (2.0 ** 0.5 / 20.0 ** 0.25) * nf.min_ideal(f, p2)
        predicted = 2.0 ** 0.5 * math.sqrt(2.0) / 20.0 ** 0.25
        assert ndp == pytest.approx(predicted, rel=1e-9)
