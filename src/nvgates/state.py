"""Hybrid photon-spin state vectors.

A single photon carries a circular polarization (R or L) and sits in one of a
set of labeled spatial modes; each NV electron spin is a qubit over
{|+> = |m_s=+1>, |-> = |m_s=-1>}.  The joint state is a dense complex vector
of shape (2, n_modes, 2**n_spins) and may be subnormalized: 1 - |psi|^2 is
the accumulated photon-loss probability.  Lossy reflections only attenuate
amplitudes, and the lost fraction never re-interferes, so no explicit "lost
photon" basis state is kept.

States are immutable values; every operation returns a new state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Polarization indices.
R = 0
L = 1

# Spin basis indices: PLUS = |m_s=+1>, MINUS = |m_s=-1>.
PLUS = 0
MINUS = 1

#: Tolerance used for normalization preconditions.
NORM_ATOL = 1e-12


class StateError(ValueError):
    """Base class for state construction/manipulation errors."""


class NormalizationError(StateError):
    """An input amplitude pair was not normalized to 1."""


class DimensionMismatchError(StateError):
    """Two states (or a state and a circuit) disagree in shape."""


class ModeError(StateError):
    """A spatial-mode label is not part of the state's declared mode set."""


def spin_config_index(bits) -> int:
    """Index of a spin configuration, spin 0 being the most significant bit.

    ``bits`` is a sequence over {PLUS, MINUS}; e.g. for two spins,
    (PLUS, MINUS) -> 1 and (MINUS, PLUS) -> 2.
    """
    idx = 0
    for b in bits:
        if b not in (PLUS, MINUS):
            raise StateError(f"spin basis value must be PLUS or MINUS, got {b!r}")
        idx = (idx << 1) | b
    return idx


def spin_config_bits(index: int, n_spins: int) -> tuple[int, ...]:
    """Inverse of :func:`spin_config_index`."""
    return tuple((index >> (n_spins - 1 - k)) & 1 for k in range(n_spins))


@dataclass(frozen=True, eq=False)
class SpinState:
    """Spin-only state vector over 2**n_spins configurations; ``is_null``
    flags the empty state of a zero-probability detector outcome."""

    amps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=complex)
        if a.ndim != 1 or a.size == 0 or a.size & (a.size - 1):
            raise DimensionMismatchError(
                f"spin amplitude vector must have length 2**n, got shape {a.shape}"
            )
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @property
    def n_spins(self) -> int:
        return self.amps.size.bit_length() - 1

    @property
    def is_null(self) -> bool:
        return not np.any(self.amps)


@dataclass(frozen=True, eq=False)
class HybridState:
    """Photon (polarization x mode) tensor spin register state.

    ``amps[pol, mode, config]`` with pol in {R, L}, mode indexed by position
    in ``modes``, and config per :func:`spin_config_index`.
    """

    modes: tuple[str, ...]
    n_spins: int
    amps: np.ndarray

    def __post_init__(self):
        modes = tuple(str(m) for m in self.modes)
        if len(set(modes)) != len(modes):
            raise StateError("duplicate mode labels")
        a = np.asarray(self.amps, dtype=complex)
        expected = (2, len(modes), 2**self.n_spins)
        if a.shape != expected:
            raise DimensionMismatchError(
                f"amplitude array has shape {a.shape}, expected {expected}"
            )
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "amps", a)

    def mode_index(self, label) -> int:
        try:
            return self.modes.index(str(label))
        except ValueError:
            raise ModeError(f"unknown mode {label!r}; declared modes: {self.modes}") from None

    def norm2(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def with_amps(self, amps: np.ndarray) -> HybridState:
        """A state on the same (modes, spins) space holding ``amps``.

        For element kernels: ``amps`` must be a fresh complex array that the
        caller no longer writes to.  It is taken over without a copy and
        made read-only; only its shape is checked.
        """
        if amps.shape != self.amps.shape:
            raise DimensionMismatchError(
                f"amplitude array has shape {amps.shape}, expected {self.amps.shape}"
            )
        amps.setflags(write=False)
        new = object.__new__(HybridState)
        vars(new).update(modes=self.modes, n_spins=self.n_spins, amps=amps)
        return new


def _check_pair(pair, what: str) -> np.ndarray:
    v = np.asarray(pair, dtype=complex)
    if v.shape != (2,):
        raise DimensionMismatchError(f"{what} must be a pair of amplitudes, got shape {v.shape}")
    n2 = float(np.vdot(v, v).real)
    if not abs(n2 - 1.0) <= NORM_ATOL:
        raise NormalizationError(f"{what} has squared norm {n2!r}, expected 1 within {NORM_ATOL}")
    return v


def kron_pairs(pairs) -> np.ndarray:
    """Spin-register vector of a product state: the Kronecker product of the
    per-spin amplitude pairs, spin 0 most significant.

    Pairs may carry leading batch axes, shape (..., 2), which broadcast; the
    result then has shape (..., 2**n).
    """
    pairs = iter(pairs)
    vec = np.array(next(pairs, 1.0), dtype=complex, ndmin=1)
    for pair in pairs:
        prod = vec[..., :, None] * np.asarray(pair, dtype=complex)[..., None, :]
        vec = prod.reshape(prod.shape[:-2] + (-1,))
    return vec


def make_product_state(pol_amps, photon_mode, spin_amps, modes) -> HybridState:
    """Tensor product of a photon polarization state at one mode with N spins.

    Every amplitude pair must be normalized to 1 within 1e-12; the result has
    unit norm.
    """
    modes = tuple(str(m) for m in modes)
    pol = _check_pair(pol_amps, "photon polarization pair")
    spins = [_check_pair(s, f"spin {k} pair") for k, s in enumerate(spin_amps)]
    n = len(spins)
    try:
        mi = modes.index(str(photon_mode))
    except ValueError:
        raise ModeError(f"unknown mode {photon_mode!r}; declared modes: {modes}") from None
    amps = np.zeros((2, len(modes), 2**n), dtype=complex)
    amps[:, mi, :] = pol[:, None] * kron_pairs(spins)
    return HybridState(modes, n, amps)


def overlap(a: HybridState, b: HybridState) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    if a.modes != b.modes or a.n_spins != b.n_spins:
        raise DimensionMismatchError("states live on different (modes, spins) spaces")
    return complex(np.vdot(a.amps, b.amps))


def partial_trace_photon_collapse(state: HybridState, modes) -> np.ndarray:
    """Project the photon at each of ``modes`` onto |F> and |S> and drop it.

    F = (|R>+|L>)/sqrt(2), S = (|R>-|L>)/sqrt(2).  Returns the unnormalized
    spin amplitudes, shape (len(modes), 2, 2**n_spins), F before S; a row's
    squared norm is its outcome's probability, and a zero state gives zero rows.
    """
    idx = [state.mode_index(m) for m in modes]
    r, l = state.amps[R, idx], state.amps[L, idx]
    return np.stack([r + l, r - l], axis=1) / math.sqrt(2)


def phase_aligned_deviation(actual: np.ndarray, expected: np.ndarray) -> float:
    """Max amplitude deviation after removing one optimal global phase.

    Gate-equivalence assertions permit a single global phase; everything else
    (relative phases, moduli) must match.  Stacked vectors, shape (..., d),
    are each aligned with their own phase, and the largest deviation over
    all of them is returned.
    """
    actual = np.asarray(actual, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    if actual.shape != expected.shape:
        raise DimensionMismatchError("cannot compare vectors of different shapes")
    ov = np.sum(expected.conj() * actual, axis=-1, keepdims=True)
    mag = np.abs(ov)
    phase = np.divide(ov, mag, out=np.ones_like(ov), where=mag > 0)
    return float(np.max(np.abs(actual - phase * expected)))
