"""NV-cavity input-output reflection and the photon-spin scattering rule.

A single photon reflecting off a single-sided cavity containing an NV center
picks up a spin-dependent reflection coefficient: the transitions
|+> <-> |A2> and |-> <-> |A2> are driven by R- and L-polarized light
respectively, so (R,+) and (L,-) see the coupled ("hot") cavity while (R,-)
and (L,+) see the empty ("cold") one.  In the steady state and weak
excitation the hot coefficient is

    r = [(i*dc - k/2)(i*d0 + y/2) + g^2] / [(i*dc + k/2)(i*d0 + y/2) + g^2]

with dc = omega_c - omega_p, d0 = omega_0 - omega_p; the cold coefficient is
the same expression at g = 0.  On resonance these reduce to
r = (g^2 - k*y/4)/(g^2 + k*y/4) and r0 = -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state import NORM_ATOL, HybridState, spin_flip, working_copy

SPEED_OF_LIGHT = 299_792_458.0  # m/s
_RESCALE_Q = "rescale Q and the wavelength to values nearer 1"


class ParameterError(ValueError):
    """Unphysical cavity parameters."""


@dataclass(frozen=True)
class CavityParams:
    """Physical rates of one NV-cavity block.

    All quantities share one arbitrary frequency unit; only ratios and
    detunings enter the reflection coefficient.  ``omega_*`` default to a
    common value, i.e. the fully resonant condition.
    """

    g: float
    kappa: float
    gamma: float
    omega_c: float = 0.0
    omega_0: float = 0.0
    omega_p: float = 0.0

    def __post_init__(self):
        for name in ("g", "kappa", "gamma", "omega_c", "omega_0", "omega_p"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kappa <= 0:
            raise ParameterError(f"cavity damping rate must be positive, got {self.kappa}")
        if self.gamma <= 0:
            raise ParameterError(f"NV decay rate must be positive, got {self.gamma}")
        if self.g < 0:
            raise ParameterError(f"coupling rate must be nonnegative, got {self.g}")

    @property
    def coupling_ratio(self) -> float:
        # one root each: kappa * gamma can underflow to 0 and give inf or NaN
        return self.g / math.sqrt(self.kappa) / math.sqrt(self.gamma)


@dataclass(frozen=True)
class ReflectionPair:
    """Hot (coupled) and cold (empty) cavity reflection coefficients.

    A passive cavity cannot amplify, so construction raises ParameterError
    unless each |r| <= 1, within ``state.NORM_ATOL`` for the rounding of
    :func:`reflection_coefficient`; NaN and inf are refused too.
    """

    r_hot: complex
    r_cold: complex

    def __post_init__(self):
        if not abs(self.r_hot) <= 1 + NORM_ATOL >= abs(self.r_cold):  # one chained test; NaN fails it
            name = "r_cold" if abs(self.r_hot) <= 1 + NORM_ATOL else "r_hot"
            raise ParameterError(f"reflection amplitude must satisfy |{name}| <= 1, got {getattr(self, name)}")

    def times_hot(self, x: np.ndarray) -> np.ndarray:
        """``x * r_hot``, a new array: the hot factor :func:`scatter` applies."""
        return x * self.r_hot


#: Idealization r -> 1, r0 = -1; used for exact ideal-circuit checks rather
#: than a large-g limit.
IDEAL_PAIR = ReflectionPair(r_hot=1.0 + 0.0j, r_cold=-1.0 + 0.0j)


def _steady_state_r(name: str, delta_c: float, delta_0: float, kappa: float, gamma: float, g: float) -> complex:
    num = (1j * delta_c - kappa / 2.0) * (1j * delta_0 + gamma / 2.0) + g * g
    den = (1j * delta_c + kappa / 2.0) * (1j * delta_0 + gamma / 2.0) + g * g
    if den == 0:  # for kappa, gamma > 0 its real or imaginary part is nonzero, so this is an underflow
        raise ParameterError(
            f"{name} steady-state denominator underflows to 0 (kappa = {kappa:g}, gamma = {gamma:g}, g = {g:g}); "
            "rescale the rates and detunings to a common unit nearer 1"
        )
    return num / den


def reflection_coefficient(params: CavityParams) -> ReflectionPair:
    """Hot and cold reflection coefficients for one NV-cavity block.

    Only detunings relative to the photon frequency enter.  At exact
    resonance both coefficients are real and r_cold = -1 exactly.
    """
    dc = params.omega_c - params.omega_p
    d0 = params.omega_0 - params.omega_p
    r_hot = _steady_state_r("r_hot", dc, d0, params.kappa, params.gamma, params.g)
    r_cold = _steady_state_r("r_cold", dc, d0, params.kappa, params.gamma, 0.0)
    if not all(map(math.isfinite, (r_hot.real, r_hot.imag, r_cold.real, r_cold.imag))):
        raise ParameterError(
            f"reflection coefficients overflow (r_hot = {r_hot}, r_cold = {r_cold}); "
            "rescale the rates and detunings to a common unit nearer 1"
        )
    return ReflectionPair(r_hot=r_hot, r_cold=r_cold)


def coupling_ratio_to_r(ratio: float) -> float:
    """Resonant hot reflection amplitude for a given g/sqrt(kappa*gamma)."""
    if not 0 <= ratio < math.inf:  # also rejects NaN
        raise ParameterError(f"coupling ratio must be finite and nonnegative, got {ratio}")
    ratio = float(ratio)  # squared as a Python float, which overflows to inf without numpy's warning
    x = ratio * ratio
    return (x - 0.25) / (x + 0.25) if x < math.inf else 1.0  # inf/inf would be NaN


def reflection_at_ratio(ratio: float) -> ReflectionPair:
    """Resonant reflection pair controlled by the coupling ratio alone."""
    return resonant_pair(coupling_ratio_to_r(ratio))


def resonant_pair(r_hot: float | complex) -> ReflectionPair:
    """Reflection pair with a freely chosen hot amplitude and resonant cold = -1."""
    return ReflectionPair(r_hot=complex(r_hot), r_cold=-1.0 + 0.0j)


def kappa_from_quality_factor(q: float, wavelength: float) -> float:
    """Cavity damping from quality factor and transition wavelength: c/(lambda*Q).

    The result carries the same frequency convention as c/lambda (an ordinary
    frequency in Hz for wavelength in meters).  See
    :func:`quality_factor_conversions` for the angular/ordinary variants; the
    literature is not consistent about which is meant.
    """
    if not 0 < q < math.inf:
        raise ParameterError(f"quality factor must be finite and positive, got {q}")
    if not 0 < wavelength < math.inf:
        raise ParameterError(f"wavelength must be finite and positive, got {wavelength}")
    product = wavelength * q
    if not 0 < product < math.inf:  # c over 0 would divide by zero, over inf give a kappa of 0
        fault = "underflows to 0" if product == 0 else "overflows"
        raise ParameterError(f"wavelength*Q {fault} (Q = {q:g}, wavelength = {wavelength:g}); {_RESCALE_Q}")
    return _finite_kappa("c/(lambda*Q)", SPEED_OF_LIGHT / product, q, wavelength)


def _finite_kappa(formula: str, kappa: float, q: float, wavelength: float) -> float:
    if kappa == math.inf:  # a ratio or product of finite positive values, so this is an overflow
        raise ParameterError(f"kappa = {formula} overflows (Q = {q:g}, wavelength = {wavelength:g}); {_RESCALE_Q}")
    return kappa


def quality_factor_conversions(q: float, wavelength: float) -> dict[str, float]:
    """All Q -> kappa readings for the Q = c/(lambda*kappa) relation.

    Returns ordinary and angular variants:

    - ``ordinary``: kappa = c/(lambda*Q), kappa an ordinary frequency (Hz).
    - ``angular``:  kappa = 2*pi*c/(lambda*Q), kappa in rad/s (Q = omega/kappa
      with both angular).
    - ``mixed``:    kappa = c/(lambda*Q)/(2*pi), i.e. Q compares the ordinary
      optical frequency against an angular kappa, reported back in Hz.

    For Q = 1e5 at 637 nm these give ~4.71 GHz, ~29.6e9 rad/s, and ~0.75 GHz.
    """
    base = kappa_from_quality_factor(q, wavelength)
    return {
        "ordinary": base,
        "angular": _finite_kappa("2*pi*c/(lambda*Q)", 2.0 * np.pi * base, q, wavelength),
        "mixed": base / (2.0 * np.pi),
    }


def scatter(state: HybridState, nv_index: int, mode, r: ReflectionPair) -> HybridState:
    """Reflect the photon amplitude in ``mode`` off the NV at ``nv_index``.

    (R,+) and (L,-) amplitudes pick up r_hot, (R,-) and (L,+) pick up r_cold;
    amplitudes in other modes are untouched.  The mode's (pol, config) block is
    multiplied whole by r_hot into a new array (``r.times_hot``) and by r_cold in
    place, and the hot products are kept where spin ``nv_index`` equals the pol
    (R = PLUS, L = MINUS; :func:`state.spin_flip`).  A circuit run's writable state is
    rewritten in place; a read-only one, as callers hold, is copied and returned read-only.
    """
    if not state.amps.flags.writeable:
        state = scatter(working_copy(state), nv_index, mode, r)
        state.amps.setflags(write=False)
        return state
    mi = state.mode_index(mode)
    hot_at = spin_flip(state.n_spins, nv_index)[1]
    block = state.amps[:, mi]
    hot = r.times_hot(block)
    np.multiply(block, r.r_cold, out=block)
    np.copyto(block, hot, where=hot_at)
    return state
