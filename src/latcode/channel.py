"""Seeded channel simulators: real/complex AWGN and fast Rayleigh fading.

Reproducibility contract: a (master_seed, trial_index) pair fully determines
one channel realization via a counter-based Philox generator keyed by
(master_seed, 4*trial_index + stream), with stream 0 for fading, stream 1
for noise, and stream 2 reserved for message selection in simulation
drivers.  Realizations are independent of execution order or thread count.

``stream_rng`` does not build a generator per call: each thread keeps one
Philox generator per stream and re-keys it, counter 0 and empty buffer, so
a returned generator stays valid only until the next call for the same
stream in the same thread.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass

import numpy as np


class Model(enum.StrEnum):
    """A channel model, equal to and printed as its command-line name, with
    its two facts: ``complex`` baseband (``dims`` = 2 real dimensions per
    use, noise variance 1/2 in each; else 1) and Rayleigh ``fading`` (else
    AWGN).  ``Model(name)`` raises ``ValueError`` on an unknown name."""
    AWGN_REAL = "awgn_real", False, False
    AWGN_COMPLEX = "awgn_complex", True, False
    RAYLEIGH_REAL = "rayleigh_real", False, True
    RAYLEIGH_COMPLEX = "rayleigh_complex", True, True

    def __new__(cls, name: str, cplx: bool, fades: bool):
        member = str.__new__(cls, name)
        member._value_ = name
        member.complex = cplx
        member.dims = 2 if cplx else 1
        member.fading = fades
        return member


AWGN_REAL, AWGN_COMPLEX, RAYLEIGH_REAL, RAYLEIGH_COMPLEX = MODELS = tuple(Model)

_STREAM_FADING = 0
_STREAM_NOISE = 1
STREAM_MESSAGE = 2  # reserved for codeword selection in simulation drivers


@dataclass(frozen=True)
class ChannelRealization:
    """One block's fading and noise.  A non-fading model's ``fading`` is all
    ones: both decoders then skip the fading (NLD searches the code lattice
    itself, ML scores on the cached row norms)."""
    fading: np.ndarray
    noise: np.ndarray
    model: Model


_generators = threading.local()  # .by_stream: {stream: Generator}, per thread
_EMPTY = (0, 0, 0, 0)


def stream_rng(master_seed: int, trial_index: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one (seed, trial, stream) triple.

    Its draws are those of a fresh
    ``Generator(Philox(key=(master_seed, 4 * trial_index + stream)))``, but
    the generator is this thread's one for ``stream``, re-keyed: it stays
    valid only until the next call for the same stream.  The key goes
    through Philox's own conversion of an array key, so seed -1 wraps to
    2**64 - 1 as it does for a fresh generator.
    """
    try:
        by_stream = _generators.by_stream
    except AttributeError:
        by_stream = _generators.by_stream = {}
    gen = by_stream.get(stream)
    if gen is None:
        gen = by_stream[stream] = np.random.Generator(np.random.Philox(key=0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _EMPTY, "key": np.asarray(
            (master_seed, 4 * trial_index + stream)).astype(np.uint64)},
        "buffer": _EMPTY, "buffer_pos": 4,  # position 4 of 4: buffer empty
        "has_uint32": 0, "uinteger": 0}
    return gen


# The channel's own draws go through this alias, so a tracer that wraps
# ``stream_rng`` sees one call per trial: the driver's message draw.
_rng = stream_rng


def _complex_std_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    # variance 1/2 per real dimension, so E|z|^2 = 1
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)


def sample_realization(model: str, n: int, master_seed: int,
                       trial_index: int) -> ChannelRealization:
    """Draw the fading and noise vectors for one block of length n."""
    model = Model(model)
    cplx = model.complex
    nrng = _rng(master_seed, trial_index, _STREAM_NOISE)
    noise = _complex_std_normal(nrng, n) if cplx else nrng.standard_normal(n)
    if model.fading:
        frng = _rng(master_seed, trial_index, _STREAM_FADING)
        fading = _complex_std_normal(frng, n)
        if not cplx:  # real models see the Rayleigh modulus
            fading = np.abs(fading)
    else:
        fading = np.ones(n, dtype=complex if cplx else float)
    return ChannelRealization(fading=fading, noise=noise, model=model)


def transmit(s, model: str, master_seed: int, trial_index: int):
    """Send codeword s through the channel: y_i = fading_i * s_i + w_i."""
    model = Model(model)
    s = np.asarray(s)
    if model.complex:
        s = s.astype(complex, copy=False)
    elif np.iscomplexobj(s):
        if np.max(np.abs(s.imag)) > 0:
            raise ValueError(f"real model {model} needs a real codeword")
        s = s.real  # a real model sends and returns real vectors
    realization = sample_realization(model, len(s), master_seed, trial_index)
    if model.fading:
        y = realization.fading * s + realization.noise
    else:  # unit fading: a product by 1 is exact, so it is left out
        y = s + realization.noise
    return y, realization


def geometric_mean_statistic(realization: ChannelRealization) -> float:
    """V_n = (prod X_i)^(1/n) with X_i = |fading_i|^2."""
    x = np.abs(realization.fading) ** 2
    return float(np.exp(np.mean(np.log(x))))


def geometric_mean_samples(model: str, n: int, trials: int,
                           master_seed: int) -> np.ndarray:
    """V_n over ``trials`` seeded realizations (fading stream only)."""
    out = np.empty(trials)
    for t in range(trials):
        r = sample_realization(model, n, master_seed, t)
        out[t] = geometric_mean_statistic(r)
    return out
