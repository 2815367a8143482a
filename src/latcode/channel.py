"""Seeded channel simulators: real/complex AWGN and fast Rayleigh fading.

Reproducibility contract: a (master_seed, trial_index) pair fully determines
one channel realization via a counter-based Philox generator keyed by
(master_seed mod 2^64, 4*trial_index + stream), with stream 0 for fading,
stream 1 for noise, and stream 2 reserved for message selection in
simulation drivers.  Realizations are independent of execution order or
thread count.

``stream_rng`` does not build a generator per call: each thread keeps one
Philox generator per slot (each stream, and the shift search's) and re-keys
it (``_keyed``), so a returned generator stays valid only until the next
call for the same slot in the same thread.
"""

from __future__ import annotations

import enum
import functools
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
    ones, one read-only array shared by every realization of its shape:
    both decoders then skip the fading (NLD searches the code lattice
    itself, ML scores on the cached row norms)."""
    fading: np.ndarray
    noise: np.ndarray
    model: Model


_generators = threading.local()  # .by_slot: {slot: Generator}, per thread
_EMPTY = (0, 0, 0, 0)
_KEY_MODULUS = 1 << 64  # a Philox key word is an unsigned 64-bit integer


def _keyed(slot, key0: int, key1: int) -> np.random.Generator:
    """This thread's generator for ``slot`` (a stream, or "shift_search"),
    re-keyed, counter 0 and buffer empty: it draws what a fresh
    ``Generator(Philox(key=key))`` draws for the key (key0, key1) mod 2^64,
    both words unsigned 64-bit, until the next call for the same slot."""
    try:
        by_slot = _generators.by_slot
    except AttributeError:
        by_slot = _generators.by_slot = {}
    gen = by_slot.get(slot)
    if gen is None:
        gen = by_slot[slot] = np.random.Generator(np.random.Philox(key=0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _EMPTY, "key": (key0 % _KEY_MODULUS,
                                             key1 % _KEY_MODULUS)},
        "buffer": _EMPTY, "buffer_pos": 4,  # position 4 of 4: buffer empty
        "has_uint32": 0, "uinteger": 0}
    return gen


def stream_rng(master_seed: int, trial_index: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one (seed, trial, stream) triple: this
    thread's one for ``stream``, re-keyed (``_keyed``) to the key
    (master_seed, 4 * trial_index + stream), valid only until the next call
    for the same stream.  Valid seeds are [-2^63, 2^64), the signed and
    unsigned 64-bit integers: seed -1 draws as 2^64 - 1 does, and a seed
    outside that range would alias one inside it."""
    return _keyed(stream, master_seed, 4 * trial_index + stream)


# The channel's own draws go through this alias, so a tracer that wraps
# ``stream_rng`` sees one call per trial: the driver's message draw.
_rng = stream_rng


def _complex_std_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    """n complex normals of variance 1/2 per real dimension, so E|z|^2 = 1:
    the bits of ``(a + 1j * b) / sqrt(2)`` for a then b, n draws each, as
    one draw of 2n times 1/sqrt(2), the factor by which numpy's division of
    a complex by a real multiplies each part."""
    parts = rng.standard_normal(2 * n)
    parts *= 1.0 / math.sqrt(2.0)
    z = np.empty(n, dtype=complex)
    z.real = parts[:n]
    z.imag = parts[n:]
    return z


def sample_realization(model: str, n: int, master_seed: int,
                       trial_index: int) -> ChannelRealization:
    """Draw the fading and noise vectors for one block of length n."""
    if not isinstance(model, Model):
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
        fading = _unit_fading(n, cplx)
    return ChannelRealization(fading=fading, noise=noise, model=model)


@functools.lru_cache(maxsize=64)
def _unit_fading(n: int, cplx: bool) -> np.ndarray:
    """All ones, read-only: every unfaded realization of this shape shares
    it."""
    ones = np.ones(n, dtype=complex if cplx else float)
    ones.flags.writeable = False
    return ones


def transmit(s, model: str, master_seed: int, trial_index: int):
    """Send codeword s through the channel: y_i = fading_i * s_i + w_i."""
    s = np.asarray(s)
    realization = sample_realization(model, len(s), master_seed, trial_index)
    model = realization.model  # converted once, there
    if model.complex:
        s = s.astype(complex, copy=False)
    elif np.iscomplexobj(s):
        if np.max(np.abs(s.imag)) > 0:
            raise ValueError(f"real model {model} needs a real codeword")
        s = s.real  # a real model sends and returns real vectors
    if model.fading:
        y = realization.fading * s + realization.noise
    else:  # unit fading: a product by 1 is exact, so it is left out
        y = s + realization.noise
    return y, realization
