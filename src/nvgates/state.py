"""Hybrid photon-spin state vectors.

A single photon carries a circular polarization (R or L) and sits in one of a
set of labeled spatial modes; each NV electron spin is a qubit over
{|+> = |m_s=+1>, |-> = |m_s=-1>}.  The joint state is a dense complex vector
of shape (2, n_modes, 2**n_spins) and may be subnormalized: 1 - |psi|^2 is
the accumulated photon-loss probability.  Lossy reflections only attenuate
amplitudes, and the lost fraction never re-interferes, so no explicit "lost
photon" basis state is kept.

States are read-only values; a circuit run rewrites one :func:`working_copy` in place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# Polarization indices.
R = 0
L = 1

# Spin basis indices: PLUS = |m_s=+1>, MINUS = |m_s=-1>.
PLUS = 0
MINUS = 1

#: Tolerance used for normalization preconditions.
NORM_ATOL = 1e-12

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_SQRT1_2C = np.array(complex(_SQRT1_2))  # the complex128 numpy makes of the float, made once


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
    """Inverse of :func:`spin_config_index`; raises StateError unless 0 <= index < 2**n_spins."""
    if n_spins < 0 or not 0 <= index < 1 << n_spins:
        raise StateError(f"spin configuration index {index} out of range for {n_spins} spins")
    return tuple((index >> (n_spins - 1 - k)) & 1 for k in range(n_spins))


def spin_axis(amps: np.ndarray, n: int, k: int) -> np.ndarray:
    """Spin-register amplitudes ``amps``, shape (..., 2**n), with spin ``k``
    on an axis of its own: shape (..., higher, 2, lower), where higher and
    lower count the configurations of the spins before and after k.  A view
    when ``amps`` is contiguous."""
    return amps.reshape(amps.shape[:-1] + (-1, 2, 1 << (n - 1 - k)))


@functools.cache
def spin_flip(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables of spin ``k`` of ``n``, built on :func:`spin_axis`: each
    configuration with spin k flipped (a take of it pairs every amplitude with
    its spin-k partner), and ``spin_is``, whose row b marks where spin k is b.
    Raises StateError unless 0 <= k < n; the cache makes that check free for
    the spin kernels, which read these tables."""
    if not 0 <= k < n:
        raise StateError(f"spin index {k} out of range for {n} spins")
    partner = spin_axis(np.arange(1 << n), n, k)[:, ::-1].ravel()
    spin_is = np.zeros((2, 1 << n), dtype=bool)
    for b in (PLUS, MINUS):
        spin_axis(spin_is[b], n, k)[:, b] = True
    partner.setflags(write=False)
    spin_is.setflags(write=False)
    return partner, spin_is


def butterfly(x, y, u, v) -> None:
    """Write (x + y)/sqrt2 into ``u`` and (x - y)/sqrt2 into ``v``, which may overlap
    ``x`` and ``y`` but not each other: the sum is formed first.  Its own inverse:
    the R/L <-> F/S change of basis on a mode's amplitudes, and the Hadamard on a spin's."""
    s = np.add(x, y)
    np.multiply(np.subtract(x, y, v), _SQRT1_2C, v)
    np.multiply(s, _SQRT1_2C, u)


@dataclass(frozen=True, eq=False)
class HybridState:
    """Photon (polarization x mode) tensor spin register state.

    ``amps[pol, mode, config]`` with pol in {R, L}, mode indexed by position
    in ``modes``, and config per :func:`spin_config_index`.  Construction
    raises StateError unless ``modes`` are one or more distinct ``str``,
    ``n_spins`` is an ``int`` >= 0, not a ``bool``, and every amplitude is finite.
    """

    modes: tuple[str, ...]
    n_spins: int
    amps: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False)  # label -> position in modes

    def __post_init__(self):
        modes, index = _mode_labels(self.modes)
        if not modes:
            raise StateError("a state needs at least one mode")
        if not (type(self.n_spins) is int and self.n_spins >= 0):  # not a bool either
            raise StateError(f"spin count must be an int >= 0, got {self.n_spins!r}")
        a = np.asarray(self.amps, dtype=complex)
        expected = (2, len(modes), 2**self.n_spins)
        if a.shape != expected:
            raise DimensionMismatchError(
                f"amplitude array has shape {a.shape}, expected {expected}"
            )
        if not np.isfinite(a).all():
            raise StateError("amplitudes must be finite, got a NaN or an infinity")
        a = a.copy()
        a.setflags(write=False)
        vars(self).update(modes=modes, _index=index, amps=a)

    def mode_index(self, label) -> int:
        """Position of the mode labeled ``label``, a ``str`` matched as given."""
        try:
            return self._index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise ModeError(f"unknown mode {label!r}; declared modes: {self.modes}") from None

    def norm2(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


def _mode_labels(modes) -> tuple[tuple[str, ...], dict[str, int]]:
    """The labels of ``modes``, each a ``str``, and each one's position."""
    labels = tuple(modes)
    if not all(isinstance(label, str) for label in labels):
        raise StateError(f"mode labels must be str, got {labels!r}")
    index = {label: i for i, label in enumerate(labels)}
    if len(index) != len(labels):
        raise StateError("duplicate mode labels")
    return labels, index


def _adopt(labels: tuple[str, ...], index: dict[str, int], n_spins: int, amps: np.ndarray) -> HybridState:
    """A state holding ``amps`` and the label map, unchecked and uncopied."""
    new = object.__new__(HybridState)
    vars(new).update(modes=labels, _index=index, n_spins=n_spins, amps=amps)
    return new


def working_copy(state: HybridState) -> HybridState:
    """``state`` with a writable copy of its array, for element kernels to rewrite."""
    return _adopt(state.modes, state._index, state.n_spins, state.amps.copy())


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

    The pairs are complex arrays, shape (..., 2), whose leading batch axes
    broadcast; the result then has shape (..., 2**n).
    """
    pairs = iter(pairs)
    vec = next(pairs, None)
    if vec is None:
        return np.ones(1, dtype=complex)
    for pair in pairs:
        prod = vec[..., :, None] * pair[..., None, :]
        vec = prod.reshape(prod.shape[:-2] + (-1,))
    return vec


def make_product_state(pol_amps, photon_mode, spin_amps, modes) -> HybridState:
    """Tensor product of a photon polarization state at one mode with N spins.

    Every amplitude pair must be normalized to 1 within 1e-12; the result has
    unit norm.  ``modes`` are distinct ``str`` labels, and ``photon_mode`` is
    one of them, matched as given.
    """
    pol = _check_pair(pol_amps, "photon polarization pair")
    spins = [_check_pair(s, f"spin {k} pair") for k, s in enumerate(spin_amps)]
    amps = np.zeros((2, len(modes), 2 ** len(spins)), dtype=complex)
    state = _adopt(*_mode_labels(modes), len(spins), amps)
    amps[:, state.mode_index(photon_mode), :] = pol[:, None] * kron_pairs(spins)
    amps.setflags(write=False)
    return state


def overlap(a: HybridState, b: HybridState) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    if a.modes != b.modes or a.n_spins != b.n_spins:
        raise DimensionMismatchError("states live on different (modes, spins) spaces")
    return complex(np.vdot(a.amps, b.amps))


def partial_trace_photon_collapse(state: HybridState, modes) -> np.ndarray:
    """Project the photon at each of ``modes`` onto |F> and |S> and drop it.

    F = (|R>+|L>)/sqrt(2), S = (|R>-|L>)/sqrt(2): R and L after :func:`butterfly`,
    as after a half-wave plate.  Returns the unnormalized spin amplitudes,
    shape (len(modes), 2, 2**n_spins), F before S; a row's squared norm is
    its outcome's probability, and a zero state gives zero rows.  The rows
    are read by one gather of ``modes``, in any order, and one butterfly.
    """
    idx = list(map(state.mode_index, modes))
    a = state.amps.take(idx, axis=1)
    out = np.empty((len(idx), 2, a.shape[-1]), dtype=complex)
    butterfly(a[R], a[L], out[:, 0], out[:, 1])
    return out

