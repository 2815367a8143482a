"""LLL reduction: bit-identity against the full-recompute algorithm, and the
LLL conditions checked independently from a fresh QR of the output."""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latcode import channel as ch
from latcode import numberfield as nf
from latcode.codebook import energy_normalization
from latcode.lattice import _lll

DELTA = 0.99


def reference_lll(B, delta=DELTA):
    """The full Gram-Schmidt recompute after every step, kept verbatim as the
    reference that ``_lll`` must match bit for bit."""
    B = np.array(B, dtype=float)
    k = B.shape[0]
    U = np.eye(k, dtype=np.int64)
    ortho = np.zeros_like(B)
    mu = np.zeros((k, k))

    def update_gso():
        for i in range(k):
            ortho[i] = B[i]
            for j in range(i):
                denom = ortho[j] @ ortho[j]
                mu[i, j] = (B[i] @ ortho[j]) / denom
                ortho[i] -= mu[i, j] * ortho[j]

    update_gso()
    i = 1
    while i < k:
        for j in range(i - 1, -1, -1):
            q = round(mu[i, j])
            if q != 0:
                B[i] -= q * B[j]
                U[i] -= q * U[j]
                update_gso()
        if ortho[i] @ ortho[i] >= (delta - mu[i, i - 1] ** 2) * (ortho[i - 1] @ ortho[i - 1]):
            i += 1
        else:
            B[[i, i - 1]] = B[[i - 1, i]]
            U[[i, i - 1]] = U[[i - 1, i]]
            update_gso()
            i = max(i - 1, 1)
    return B, U


def assert_same_reduction(B):
    Bred, U = _lll(B)
    Bref, Uref = reference_lll(B)
    assert np.array_equal(Bred, Bref)
    assert np.array_equal(U, Uref)


def code_bases():
    """Every catalog embedding and ideal lattice, and the scaled code
    lattices that ``carve`` builds at several rates and powers."""
    for f in nf.load_catalog():
        emb = nf.embedding_matrix(f)
        yield f, emb
        for ideal in f.ideals:
            yield f, nf.ideal_lattice(f, ideal)
        for rate in (0.5, 1.0, 1.5, 2.0):
            for power in (1.0, 10.0, 63.1, 1000.0):
                alpha = np.sqrt(energy_normalization(f, rate, power))
                yield f, emb.scaled(alpha)


class TestMatchesFullRecompute:
    def test_catalog_and_code_lattices(self):
        count = 0
        for _, basis in code_bases():
            assert_same_reduction(basis.real_matrix)
            count += 1
        assert count > 100

    def test_rayleigh_faded_code_lattices(self):
        for f, basis in code_bases():
            model = ch.RAYLEIGH_REAL if f.totally_real else ch.RAYLEIGH_COMPLEX
            for trial in range(4):
                fading = ch.sample_realization(model, basis.n, 7, trial).fading
                faded = basis.vectors * fading
                assert_same_reduction(basis.to_real(faded))

    def test_deep_fades(self):
        for name in ("F4-725", "F8-17"):
            basis = nf.embedding_matrix(nf.catalog_field(name))
            for depth in (1e-4, 1e-8):
                for col in range(basis.n):
                    fading = np.ones(basis.n)
                    fading[col] = depth
                    assert_same_reduction(basis.vectors * fading)

    def test_random_bases(self):
        rng = np.random.default_rng(3)
        for rank in range(2, 9):
            for _ in range(10):
                B = rng.standard_normal((rank, rank))
                B *= np.exp(2.0 * rng.standard_normal(rank))  # uneven columns
                assert_same_reduction(B)
                M = rng.integers(-6, 7, (rank, rank))
                if exact_det(M) != 0:
                    assert_same_reduction(M)


def exact_det(M) -> Fraction:
    return nf._frac_solve([[int(v) for v in row] for row in M])[0]


@st.composite
def bases(draw):
    """Integer rows (exact 1/2 ties in mu) times positive column scales."""
    rank = draw(st.integers(2, 8))
    M = draw(arrays(np.int64, (rank, rank), elements=st.integers(-9, 9)))
    assume(exact_det(M) != 0)
    scale = draw(arrays(np.float64, rank,
                        elements=st.floats(0.01, 100.0)))
    return M * scale


class TestLLLConditions:
    @settings(max_examples=150, deadline=None)
    @given(bases())
    def test_output_is_lll_reduced(self, B):
        Bred, U = _lll(B)
        rank = len(B)
        # float error of a fresh QR grows with the condition number
        eps = 1e-9 * np.linalg.cond(B)
        R = np.linalg.qr(Bred.T)[1]
        diag = np.diag(R)
        mu = R / diag[:, None]  # mu[j, i] = <b_i, b*_j> / |b*_j|^2
        for i in range(rank):
            for j in range(i):
                assert abs(mu[j, i]) <= 0.5 + eps
        for i in range(1, rank):
            lhs = diag[i] ** 2
            rhs = (DELTA - mu[i - 1, i] ** 2) * diag[i - 1] ** 2
            assert lhs >= rhs * (1.0 - eps)
        assert abs(exact_det(U)) == 1
        scale = np.max(np.abs(B))
        assert np.allclose(Bred, U @ B, rtol=1e-9, atol=1e-9 * scale)
