"""Closed-form error bounds, achievable rates, and capacity-gap machinery.

Ball constants are always evaluated through log-gamma rather than Stirling;
the asymptotic (n -> infinity) gap constants are exposed separately in
``bound_table``.  Negative achievable rates are reported, not clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import AWGN_COMPLEX, AWGN_REAL, RAYLEIGH_REAL, Model
from .lattice import COMPLEX, LatticeInvariants
from .specfun import EULER_GAMMA, chernoff_solve, chi_square_tail

LOG2E = math.log2(math.e)

#: Root-discriminant constants of the bounded-root-discriminant field towers.
MARTINET_G_COMPLEX = 92.368
MARTINET_G1_REAL = 1058.0
HAJIR_MAIRE_G_COMPLEX = 82.2
HAJIR_MAIRE_G1_REAL = 954.3
ODLYZKO_ROOT_DISC_LIMIT = 60.8
ZIMMERT_REAL_CONSTANT = 50.7
ZIMMERT_COMPLEX_CONSTANT = 19.9
IDEAL_NDP_DECAY_BASE_COMPLEX = 3.1
IDEAL_NDP_DECAY_BASE_REAL = 7.12


@dataclass(frozen=True)
class RateBound:
    label: str
    rate: float
    parameters: dict = field(default_factory=dict)
    channel: str | None = None


def sphere_bound(min_distance: float, n: int, model: str) -> float:
    """P{||w||^2 >= (d/2)^2} under the model's noise convention.

    Complex: 2||w||^2 ~ chi2(2n); real: ||w||^2 ~ chi2(n).
    """
    d = Model(model).dims
    if min_distance <= 0:
        raise ValueError("min_distance must be positive")
    return chi_square_tail(d * n, min_distance ** 2 / (4.0 / d))


def gap_constant(constant: float, model: str) -> float:
    """The gap term log2(2c/(pi e)) (complex) or half of it (real)."""
    d = Model(model).dims
    return 0.5 * d * math.log2(2.0 * constant / (math.pi * math.e))


def achievable_rate(model: str, power: float, constant: float) -> RateBound:
    """Achievable rate of the carved-code construction with a given
    root-discriminant constant (G for complex fields, G1 for real)."""
    model = Model(model)
    if power <= 0 or constant <= 0:
        raise ValueError("power and constant must be positive")
    gap = gap_constant(constant, model)
    penalty = EULER_GAMMA * LOG2E if model.fading else 0.0
    rate = 0.5 * model.dims * (math.log2(power) - penalty) - gap
    return RateBound(
        label=f"achievable_{model}", rate=rate, channel=model,
        parameters={"P": power, "constant": constant, "gap_bits": gap,
                    "gamma": EULER_GAMMA if model.fading else 0.0})


def gap_from_lattice(inv: LatticeInvariants, model: str) -> RateBound:
    """Gap-to-capacity term evaluated from a concrete lattice's invariants.

    Fading models read the normalized product distance, Gaussian models the
    normalized shortest vector; both reduce to the root-discriminant gap for
    embedded rings of integers.
    """
    model = Model(model)
    n = inv.n
    if model.fading:
        ratio = 2.0 / (math.pi * math.e * inv.ndp ** (2.0 / n))
        params = {"ndp": inv.ndp, "n": n}
    else:
        ratio = 2.0 * n / (inv.nsv ** 2 * math.pi * math.e)
        params = {"nsv": inv.nsv, "n": n}
    gap = math.log2(2.0 * ratio) if inv.ambient == COMPLEX \
        else 0.5 * math.log2(ratio)
    return RateBound(label=f"lattice_gap_{model}", rate=gap, channel=model,
                     parameters=params)


def awgn_capacity(power: float, model: str) -> float:
    return 0.5 * Model(model).dims * math.log2(1.0 + power)


def rayleigh_capacity_lower(power: float, model: str) -> float:
    """Reference lower bound log2(1 + P e^{-gamma}); tight at high SNR."""
    return 0.5 * Model(model).dims * math.log2(
        1.0 + power * math.exp(-EULER_GAMMA))


def bound_table() -> list[RateBound]:
    """Asymptotic gap constants and ideal-lattice ceiling constants."""
    rows = [
        RateBound("martinet_gap_complex_gaussian",
                  gap_constant(MARTINET_G_COMPLEX, AWGN_COMPLEX),
                  {"G": MARTINET_G_COMPLEX}, AWGN_COMPLEX),
        RateBound("martinet_gap_real_gaussian",
                  gap_constant(MARTINET_G1_REAL, AWGN_REAL),
                  {"G1": MARTINET_G1_REAL}, AWGN_REAL),
        RateBound("hajir_maire_gap_complex_gaussian",
                  gap_constant(HAJIR_MAIRE_G_COMPLEX, AWGN_COMPLEX),
                  {"G": HAJIR_MAIRE_G_COMPLEX}, AWGN_COMPLEX),
        RateBound("hajir_maire_gap_real_gaussian",
                  gap_constant(HAJIR_MAIRE_G1_REAL, AWGN_REAL),
                  {"G1": HAJIR_MAIRE_G1_REAL}, AWGN_REAL),
        RateBound("odlyzko_limit_gap_real_fading",
                  gap_constant(ODLYZKO_ROOT_DISC_LIMIT, RAYLEIGH_REAL),
                  {"root_disc": ODLYZKO_ROOT_DISC_LIMIT}, RAYLEIGH_REAL),
        # Minkowski Ndp <= n!/n^n; the Stirling limit of the gap term
        RateBound("minkowski_limit_gap_real_fading",
                  0.5 * math.log2(2 * math.e / math.pi),
                  {"ndp_bound": "n!/n^n"}, RAYLEIGH_REAL),
        RateBound("zimmert_nmin_constant_real", ZIMMERT_REAL_CONSTANT,
                  {"kind": "N_min(K) <= (c^{r1/2})^{-1} sqrt|d_K| factor"},
                  None),
        RateBound("zimmert_nmin_constant_complex", ZIMMERT_COMPLEX_CONSTANT,
                  {"kind": "N_min(K) <= (c^{r2})^{-1} sqrt|d_K| factor"},
                  None),
        RateBound("ideal_ndp_decay_base_complex", IDEAL_NDP_DECAY_BASE_COMPLEX,
                  {"kind": "Ndp(I) <= base^{-n} for large n"}, None),
        RateBound("ideal_ndp_decay_base_real", IDEAL_NDP_DECAY_BASE_REAL,
                  {"kind": "Ndp(I) <= base^{-n} for large n"}, None),
    ]
    return rows


def fading_error_bound(n: int, alpha: float, model: str) -> float:
    """Union bound: atypical-noise term plus Chernoff tail of the fading
    geometric mean, at the largest slack delta_max(eps) =
    ln(alpha^2 / (4 (1 + eps))) - gamma; at an eps whose delta_max <= 0 it
    saturates at 1.

    The bound is minimized over a 100-point log-grid of epsilon values; a
    grid point whose atypical-noise term alone reaches the least bound so
    far skips its Chernoff solve, which leaves the minimum unchanged.
    """
    model = Model(model)
    if not model.fading:
        raise ValueError(f"fading_error_bound needs a fading model, got {model}")
    dof = model.dims * n

    def bound_for(eps: float, best: float) -> float:
        """The bound at ``eps``, or inf where it cannot be below ``best``."""
        arg = alpha ** 2 / (4.0 * (1.0 + eps))
        if arg <= 0:
            return 1.0
        dmax = math.log(arg) - EULER_GAMMA
        if dmax <= 0:
            return 1.0
        term1 = 2.0 * math.exp(-dof * eps ** 2 / 16.0)
        # fl(term1 + term2) >= term1 for term2 >= 0, so the Chernoff solve
        # cannot bring this point below best: skipping it leaves the minimum
        # bit for bit
        if min(1.0, term1) >= best:
            return math.inf
        term2 = math.exp(n * chernoff_solve(dmax).exponent)
        return min(1.0, term1 + term2)

    best = math.inf
    for e in np.logspace(-3, math.log10(50.0), 100):
        best = min(best, bound_for(float(e), best))
    return best
