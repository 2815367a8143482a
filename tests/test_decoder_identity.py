"""The trimmed NLD and ML epilogues, ML scored a block of trials at once,
and outcomes whose float fields are computed when read: bit-identical
outcomes to the decoders they replaced, on seeded AWGN and Rayleigh decodes
and on deep fades.  The decoders now decide ``correct`` in
integers from the sent row's index; the references keep the float match
within 1e-8, and the two decisions agree on every decode here.
(``test_decoder.TestMlProperty`` checks ML against a full scan on random
codes of 1 to 300 rows.)"""

import math
import types

import numpy as np
import pytest

from latcode import channel as ch
from latcode import decoder
from latcode import lattice
from latcode import numberfield as nf
from latcode.codebook import CodeConfig, carve
from latcode.decoder import ml_decode, nld_decode

# The decoders before the epilogues were trimmed, kept verbatim as references
# that the trimmed ones must match exactly.  They take the sent vector, their
# tolerance is the decoders' old one, and each returns an outcome's four
# fields.
_MATCH_TOL = 1e-8


def reference_matches(a, b) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= _MATCH_TOL)


def reference_nld_decode(y, realization, codebook, transmitted):
    fading = realization.fading
    basis = codebook.basis
    if realization.model.fading:
        basis = basis.faded(fading)
    target = np.asarray(y) - fading * codebook.shift
    coords = lattice.closest_vector_coords(basis, target)
    decoded = codebook.shift + coords.astype(float) @ codebook.basis.vectors
    metric = float(np.sum(np.abs(np.asarray(y) - fading * decoded) ** 2))
    radius = math.sqrt(codebook.n * codebook.power)
    is_codeword = float(np.sum(np.abs(decoded) ** 2)) <= lattice.ball_bound(radius)
    return types.SimpleNamespace(
        decoded=decoded, is_codeword=is_codeword,
        correct=reference_matches(decoded, transmitted), metric=metric)


def reference_exact_metrics(y, fading, rows) -> np.ndarray:
    return np.add.reduce(np.abs(y - fading[None] * rows) ** 2, axis=1)


def reference_ml_decode(y, realization, codebook, transmitted):
    fading, y, points = realization.fading, np.asarray(y), codebook.points
    norm2, max_norm2 = codebook._norms
    scores = (points @ (-2.0 * y.conj() * fading)).real
    if realization.model.fading:
        w = (fading.conj() * fading).real
        scores += codebook._squares @ w
        max_w = np.maximum.reduce(w)
    else:
        scores += norm2
        max_w = 1.0
    window = decoder._ML_WINDOW * (np.vdot(y, y).real + max_w * max_norm2)
    rows = points[(scores <= scores[scores.argmin()] + window).nonzero()[0]]
    metrics = reference_exact_metrics(y, fading, rows)
    best = metrics.argmin()
    decoded = rows[best]
    return types.SimpleNamespace(
        decoded=decoded, is_codeword=True,
        correct=reference_matches(decoded, transmitted),
        metric=float(metrics[best]))


def assert_same(got, ref):
    assert np.array_equal(got.decoded, ref.decoded)
    assert got.is_codeword == ref.is_codeword
    assert got.correct == ref.correct
    assert got.metric == ref.metric


def make_code(name, rate=1.0, snr_db=10.0):
    return carve(CodeConfig(rate=rate, power=10.0 ** (snr_db / 10.0),
                            field=nf.catalog_field(name), seed=5))


CODES = [("F8-17", 1.0, (ch.AWGN_REAL, ch.RAYLEIGH_REAL)),
         ("F8-17", 1.5, (ch.AWGN_REAL, ch.RAYLEIGH_REAL)),
         ("F4-725", 1.0, (ch.AWGN_REAL, ch.RAYLEIGH_REAL)),
         ("Qzeta5", 1.0, (ch.AWGN_COMPLEX, ch.RAYLEIGH_COMPLEX))]


@pytest.mark.parametrize("name,rate,models", CODES)
@pytest.mark.parametrize("snr_db", [3.0, 12.0])
def test_seeded_decodes_match(name, rate, models, snr_db):
    code = make_code(name, rate, snr_db)
    wrong = 0
    for model in models:
        for t in range(150):
            seed = (1, -1, 7)[t % 3]
            m = int(ch.stream_rng(seed, t, ch.STREAM_MESSAGE)
                    .integers(code.size))
            s = code.points[m]
            y, r = ch.transmit(s, model, seed, t)
            for got, ref in ((nld_decode, reference_nld_decode),
                             (ml_decode, reference_ml_decode)):
                out = got(y, r, code, m)
                assert_same(out, ref(y, r, code, s))
                wrong += not out.correct
    if snr_db == 3.0:
        assert wrong > 0  # the errors and off-codebook decisions are covered


@pytest.mark.parametrize("name,model,depth", [
    ("F4-725", ch.RAYLEIGH_REAL, 1e-6),
    ("F4-725", ch.RAYLEIGH_REAL, 1e-8),
    ("F8-17", ch.RAYLEIGH_REAL, 1e-8),
    ("Qzeta5", ch.RAYLEIGH_COMPLEX, 1e-8 * np.exp(0.7j))])
@pytest.mark.parametrize("noisy", [False, True])
def test_deep_fades_match(name, model, depth, noisy):
    code = make_code(name)
    cplx = model.complex
    fading = np.ones(code.n, dtype=complex if cplx else float)
    fading[0] = depth
    r = ch.ChannelRealization(fading=fading, noise=np.zeros(code.n),
                              model=model)
    for i in range(min(code.size, 12)):
        s = code.points[i]
        y = fading * s
        if noisy:
            y = y + 0.3 * ch.sample_realization(model, code.n, 9, i).noise
        for got, ref in ((nld_decode, reference_nld_decode),
                         (ml_decode, reference_ml_decode)):
            assert_same(got(y, r, code, i), ref(y, r, code, s))


def test_zero_fading_matches():
    """A zero coefficient: ML decodes it as before, NLD raises as before."""
    code = make_code("F4-725")
    fading = np.array([0.0, 1.0, 0.5, 1.0])
    r = ch.ChannelRealization(fading=fading, noise=np.zeros(4),
                              model=ch.RAYLEIGH_REAL)
    for i in range(code.size):
        s = code.points[i]
        y = fading * s + np.array([0.2, -0.1, 0.3, 0.05])
        assert_same(ml_decode(y, r, code, i), reference_ml_decode(y, r, code, s))
        with pytest.raises(ValueError, match="singular"):
            nld_decode(y, r, code, i)



BLOCK_CODES = [("Qzeta5", 1.0, (ch.AWGN_COMPLEX, ch.RAYLEIGH_COMPLEX)),
               ("F4-725", 1.0, (ch.AWGN_REAL, ch.RAYLEIGH_REAL)),
               ("F8-17", 1.0, (ch.AWGN_REAL, ch.RAYLEIGH_REAL)),
               ("F8-17", 1.5, (ch.AWGN_REAL, ch.RAYLEIGH_REAL))]


@pytest.mark.parametrize("name,rate,models", BLOCK_CODES)
@pytest.mark.parametrize("snr_db", [3.0, 12.0])
def test_block_decisions_match(name, rate, models, snr_db):
    """A block scored at once (``ml_near_rows``), then decoded trial by
    trial: each decision, and ``decoded`` and ``metric`` read afterwards,
    equal the reference's.  The 4,132-row code is scored a few trials per
    product (``_ML_SCORE_BYTES``)."""
    code = make_code(name, rate, snr_db)
    wrong = 0
    for model in models:
        block = []
        for t in range(100):
            m = int(ch.stream_rng(7, t, ch.STREAM_MESSAGE).integers(code.size))
            block.append((m, *ch.transmit(code.points[m], model, 7, t)))
        fadings = (np.array([r.fading for _, _, r in block]) if model.fading
                   else None)
        near = decoder.ml_near_rows(np.array([y for _, y, _ in block]),
                                    fadings, code)
        for (m, y, r), rows in zip(block, near):
            out = ml_decode(y, r, code, m, near=rows)
            ref = reference_ml_decode(y, r, code, code.points[m])
            assert out.correct == ref.correct  # decided before any read
            assert_same(out, ref)
            wrong += not out.correct
    if snr_db == 3.0:
        assert wrong > 0  # wrong decisions are covered


@pytest.mark.parametrize("name,rate,models", CODES)
def test_lazy_fields_read_in_any_order(name, rate, models):
    """An outcome's float fields, read in reverse order, are those of the
    reference decoders, which compute them at once."""
    code = make_code(name, rate, 6.0)
    for model in models:
        for t in range(40):
            m = int(ch.stream_rng(3, t, ch.STREAM_MESSAGE).integers(code.size))
            y, r = ch.transmit(code.points[m], model, 3, t)
            for got, ref in ((nld_decode, reference_nld_decode),
                             (ml_decode, reference_ml_decode)):
                out, want = got(y, r, code, m), ref(y, r, code, code.points[m])
                assert out.metric == want.metric
                assert out.is_codeword == want.is_codeword
                assert np.array_equal(out.decoded, want.decoded)
                assert out.correct == want.correct
