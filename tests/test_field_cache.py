"""Per-process caches of field lattices and code lattices: each is built once,
shared read-only, bounded, and bit-identical to an uncached build."""

import dataclasses
import math
import pickle
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from latcode import cli, codebook, lattice
from latcode import numberfield as nf
from latcode.codebook import CodeConfig, carve, energy_normalization

CACHES = (nf.field_roots, nf.embedding_matrix, nf.ideal_lattice,
          codebook.code_lattice)


def catalog_text():
    return resources.files("latcode").joinpath("data/fields.cat").read_text()


@pytest.fixture
def cold(monkeypatch):
    """Empty caches and a counter of ``_lll`` calls."""
    for cache in CACHES:
        cache.cache_clear()
    calls = []
    real_lll = lattice._lll
    monkeypatch.setattr(lattice, "_lll",
                        lambda B: calls.append(1) or real_lll(B))
    return calls


class TestSpecKeys:
    def test_equal_specs_from_two_parses_share_an_entry(self):
        first = {f.name: f for f in nf.parse_catalog(catalog_text())}
        second = {f.name: f for f in nf.parse_catalog(catalog_text())}
        for name, f in first.items():
            g = second[name]
            assert f is not g and f == g and hash(f) == hash(g)
            assert nf.field_roots(f) is nf.field_roots(g)
            assert nf.embedding_matrix(f) is nf.embedding_matrix(g)
            assert codebook.code_lattice(f, 0.75) is \
                codebook.code_lattice(g, 0.75)

    def test_one_coefficient_apart_is_another_entry(self):
        f = nf.catalog_field("F8-17")
        basis = list(f.integral_basis)
        basis[-1] = basis[-1][:-1] + (basis[-1][-1] + Fraction(1, 2),)
        g = dataclasses.replace(f, integral_basis=tuple(basis))
        assert g != f
        assert nf.embedding_matrix(g) is not nf.embedding_matrix(f)
        assert not np.array_equal(nf.embedding_matrix(g).vectors,
                                  nf.embedding_matrix(f).vectors)
        h = dataclasses.replace(f, min_poly=(f.min_poly[0] + 1,)
                                + f.min_poly[1:])
        assert nf.field_roots(h) is not nf.field_roots(f)

    def test_unit_ideal_is_one_object(self):
        f = nf.catalog_field("Qzeta5")
        assert nf.ideal_lattice(f, f.unit_ideal()) is \
            nf.ideal_lattice(f, f.unit_ideal())

    def test_pickled_spec_hashes_afresh(self):
        f = nf.catalog_field("Qsqrt-5")
        g = pickle.loads(pickle.dumps(f))
        assert g == f and hash(g) == hash(f)
        unit = pickle.loads(pickle.dumps(f.unit_ideal()))
        assert unit == f.unit_ideal() and hash(unit) == hash(f.unit_ideal())

    def test_hash_reads_no_fraction(self, monkeypatch):
        """Hashing a spec, as every LRU lookup does, skips its Fraction
        bases: F8-17's integral basis alone holds 64."""
        def refuse(self):
            raise AssertionError("a spec hashed a Fraction")
        monkeypatch.setattr(Fraction, "__hash__", refuse)
        for f in nf.parse_catalog(catalog_text()):
            hash(f)
            for ideal in f.ideals + (f.unit_ideal(),):
                hash(ideal)
                hash((f, ideal))


class TestBuiltOnce:
    def test_embedding_reduced_once(self, cold):
        f = nf.catalog_field("F8-17")
        for _ in range(3):
            lattice.invariants(nf.embedding_matrix(f))
        assert len(cold) == 1
        assert nf.field_roots.cache_info().misses == 1

    def test_ideal_lattice_reduced_once(self, cold):
        f = nf.catalog_field("Qsqrt-5")
        for _ in range(3):
            for ideal in f.ideals:
                nf.min_ideal(f, ideal)
        assert len(cold) == len(f.ideals)
        assert nf.ideal_lattice.cache_info().misses == len(f.ideals)
        assert nf.field_roots.cache_info().misses == 1

    def test_unit_ideal_is_the_embedding(self, cold):
        for f in nf.load_catalog():
            assert nf.ideal_lattice(f, f.unit_ideal()) is \
                nf.embedding_matrix(f)
        f = nf.catalog_field("F8-17")  # it has no listed norm-1 ideal
        lattice.invariants(nf.embedding_matrix(f))
        nf.min_ideal(f, f.unit_ideal())
        assert len(cold) == 1  # one reduction serves both tables

    def test_carve_reduces_once_per_code_lattice(self, cold):
        f = nf.catalog_field("F4-725")
        for seed in range(4):
            carve(CodeConfig(rate=1.0, power=10.0, field=f, seed=seed))
        assert len(cold) == 1
        assert nf.field_roots.cache_info().misses == 1
        assert nf.embedding_matrix.cache_info().misses == 1
        carve(CodeConfig(rate=1.5, power=10.0, field=f, seed=0))
        assert len(cold) == 2
        assert nf.embedding_matrix.cache_info().misses == 1


class TestReadOnly:
    @pytest.mark.parametrize("name", ["F8-17", "Qzeta5"])
    def test_cached_arrays_refuse_writes(self, name):
        f = nf.catalog_field(name)
        ideal = f.ideals[0] if f.ideals else f.unit_ideal()
        code = carve(CodeConfig(rate=1.0, power=10.0, field=f, seed=0))
        arrays = [nf.field_roots(f)]
        for basis in (nf.embedding_matrix(f), nf.ideal_lattice(f, ideal),
                      code.basis):
            red = basis._reduced
            arrays += [basis.vectors, red.rows, red.U, red.Q]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_shared_code_lattice_survives_a_carve(self):
        f = nf.catalog_field("F4-725")
        code = carve(CodeConfig(rate=1.0, power=10.0, field=f, seed=0))
        before = code.basis.vectors.copy()
        with pytest.raises(ValueError, match="read-only"):
            code.basis.vectors *= 2.0
        assert np.array_equal(code.basis.vectors, before)
        again = carve(CodeConfig(rate=1.0, power=10.0, field=f, seed=1))
        assert again.basis is code.basis


class TestBounded:
    def test_alpha_sweep_keeps_the_fixed_size(self):
        f = nf.catalog_field("Qsqrt5")
        for k in range(200):
            codebook.code_lattice(f, 0.5 + k / 64.0)
        info = codebook.code_lattice.cache_info()
        assert info.maxsize == codebook._CODE_LATTICE_CACHE < 200
        assert info.currsize <= info.maxsize

    def test_field_sweep_keeps_the_fixed_size(self):
        f = nf.catalog_field("Qsqrt5")
        for k in range(3 * nf._FIELD_CACHE):
            nf.embedding_matrix(dataclasses.replace(f, name=f"Qsqrt5-{k}"))
        for cache in (nf.field_roots, nf.embedding_matrix):
            info = cache.cache_info()
            assert info.maxsize == nf._FIELD_CACHE
            assert info.currsize <= info.maxsize


def uncached_carve(config, monkeypatch):
    """``carve`` with every cache bypassed through ``__wrapped__``."""
    with monkeypatch.context() as m:
        for module, cache in ((nf, nf.field_roots),
                              (codebook, nf.embedding_matrix),
                              (codebook, codebook.code_lattice)):
            m.setattr(module, cache.__name__, cache.__wrapped__)
        return carve(config)


class TestBitIdentical:
    def test_carve_matches_an_uncached_build(self, monkeypatch):
        for f in nf.load_catalog():
            for rate, snr_db in ((1.0, 10.0), (1.5, 14.0)):
                config = CodeConfig(rate=rate, power=10.0 ** (snr_db / 10.0),
                                    field=f, seed=2)
                want = uncached_carve(config, monkeypatch)
                codebook.code_lattice.cache_clear()
                for _ in range(2):  # cold, then warm
                    got = carve(config)
                    assert got.points.tobytes() == want.points.tobytes()
                    assert got.shift.tobytes() == want.shift.tobytes()
                    assert got.basis.vectors.tobytes() == \
                        want.basis.vectors.tobytes()
                    assert got.basis._reduced.U.tobytes() == \
                        want.basis._reduced.U.tobytes()
                    assert got.basis._reduced.rows.tobytes() == \
                        want.basis._reduced.rows.tobytes()
                    assert got.alpha == want.alpha == math.sqrt(
                        energy_normalization(f, rate, config.power))
                assert want.basis is not got.basis

    def test_ideal_table_matches_a_separate_unit_lattice(self, tmp_path,
                                                          monkeypatch):
        """The ``ideal`` CSV, byte for byte, as when each unit ideal built
        and reduced a lattice of its own."""
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["ideal", "--out", str(a)]) == 0
        monkeypatch.setattr(nf, "ideal_lattice", lambda f, ideal:
                            nf._embedded_lattice(f, ideal.z_basis))
        assert cli.main(["ideal", "--out", str(b)]) == 0
        assert a.read_bytes().replace(b"a.csv", b"") == \
            b.read_bytes().replace(b"b.csv", b"")
