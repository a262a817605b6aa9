"""Reflection coefficients, Q conversions, and the scattering rule."""

import warnings

import numpy as np
import pytest

from nvgates.cavity import (
    SPEED_OF_LIGHT,
    CavityParams,
    IDEAL_PAIR,
    ParameterError,
    ReflectionPair,
    coupling_ratio_to_r,
    kappa_from_quality_factor,
    quality_factor_conversions,
    reflection_at_ratio,
    reflection_coefficient,
    resonant_pair,
    scatter,
)
from nvgates.elements import Element, Kind
from nvgates.state import L, MINUS, PLUS, R, StateError, make_product_state, spin_config_index

from conftest import BALANCED, apply_one, random_spin_pairs


def test_cold_cavity_resonant_is_minus_one():
    pair = reflection_coefficient(CavityParams(g=0.0, kappa=2.0, gamma=0.5))
    assert pair.r_cold == -1.0
    assert pair.r_hot == -1.0  # g = 0: hot and cold coincide


def test_resonant_strong_coupling_value():
    pair = reflection_at_ratio(5.0)
    assert pair.r_hot == pytest.approx(99.0 / 101.0, abs=1e-15)
    assert pair.r_cold == pytest.approx(-1.0, abs=0.0)
    assert pair.r_hot.imag == 0.0


def test_reflection_zero_at_quarter_product():
    # g^2 = kappa*gamma/4 makes the numerator vanish on resonance
    params = CavityParams(g=0.5, kappa=1.0, gamma=1.0)
    pair = reflection_coefficient(params)
    assert abs(pair.r_hot) < 1e-15


def test_invalid_parameters_rejected():
    with pytest.raises(ParameterError):
        CavityParams(g=1.0, kappa=0.0, gamma=1.0)
    with pytest.raises(ParameterError):
        CavityParams(g=1.0, kappa=1.0, gamma=-2.0)
    with pytest.raises(ParameterError):
        CavityParams(g=-1.0, kappa=1.0, gamma=1.0)
    for r_hot in (2.0, -1.5, 0.8 + 0.8j, float("nan")):
        with pytest.raises(ParameterError):
            resonant_pair(r_hot)
    assert resonant_pair(-1.0).r_hot == -1.0


def test_reflection_pair_refuses_what_no_passive_cavity_gives():
    # unchecked, (2, -1) gave a CNOT efficiency of 5.125 and (nan, -1) a NaN fidelity
    inf, nan = float("inf"), float("nan")
    for r_hot, r_cold in ((2.0, -1.0), (1.5, -1.0), (nan, -1.0), (inf, -1.0), (0.5, -1.1), (0.5, 0.8 + 0.8j), (0.5, nan)):
        with pytest.raises(ParameterError, match=r"\|r_(hot|cold)\| <= 1"):
            ReflectionPair(r_hot, r_cold)
    assert resonant_pair(1 + 1e-12).r_hot == 1 + 1e-12
    # the steady-state formula rounds |r| to a few ulp above 1 at many detunings, and those pairs build
    rng = np.random.default_rng(7)
    over = 0
    for g, kappa, gamma, *omegas in rng.uniform((0.05,) * 3 + (-5,) * 3, (5,) * 6, size=(300, 6)):
        pair = reflection_coefficient(CavityParams(g, kappa, gamma, *omegas))
        over += max(abs(pair.r_hot), abs(pair.r_cold)) > 1
    assert over > 0


def test_non_finite_parameters_rejected():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ParameterError):
            coupling_ratio_to_r(bad)
        with pytest.raises(ParameterError):
            reflection_at_ratio(bad)
        for field in ("g", "kappa", "gamma", "omega_c", "omega_0", "omega_p"):
            kwargs = {"g": 1.0, "kappa": 1.0, "gamma": 1.0, field: bad}
            with pytest.raises(ParameterError, match=field):
                CavityParams(**kwargs)
        with pytest.raises(ParameterError):
            kappa_from_quality_factor(bad, 637e-9)
        with pytest.raises(ParameterError):
            kappa_from_quality_factor(1e5, bad)


def test_detuned_reflection_physical_and_complex():
    params = CavityParams(g=2.0, kappa=1.0, gamma=0.3, omega_c=0.7, omega_0=0.2, omega_p=0.0)
    pair = reflection_coefficient(params)
    assert abs(pair.r_hot) <= 1 + 1e-12
    assert abs(pair.r_cold) <= 1 + 1e-12
    # only detunings enter: shifting all frequencies together changes nothing
    shifted = CavityParams(g=2.0, kappa=1.0, gamma=0.3, omega_c=5.7, omega_0=5.2, omega_p=5.0)
    pair2 = reflection_coefficient(shifted)
    assert pair2.r_hot == pytest.approx(pair.r_hot, abs=1e-15)


def test_reflection_magnitude_monotone_in_coupling():
    grid = np.linspace(0.5, 10.0, 60)
    values = [abs(reflection_at_ratio(x).r_hot) for x in grid]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] > 0.99


def test_coupling_ratio_to_r_values():
    assert coupling_ratio_to_r(0.5) == pytest.approx(0.0, abs=1e-15)
    assert coupling_ratio_to_r(5.0) == pytest.approx(99.0 / 101.0, abs=1e-15)
    assert coupling_ratio_to_r(0.0) == pytest.approx(-1.0, abs=1e-15)
    # the general steady-state formula at resonance, kappa = gamma = 1, is
    # the closed resonant pair exactly; repr also pins the signs of zeros
    for k in range(2001):
        x = k / 40  # 2,001 ratios in [0, 50]
        general = reflection_coefficient(CavityParams(g=x, kappa=1.0, gamma=1.0))
        assert general == reflection_at_ratio(x)
        assert repr(general) == repr(reflection_at_ratio(x))
        assert general.r_cold == -1 + 0j


def test_huge_coupling_ratio_gives_the_limit_one():
    # x = ratio**2 overflows above about 1.3e154, where (x - 1/4)/(x + 1/4) is inf/inf
    for ratio in (1e155, 1e200, 1.7976931348623157e308):
        assert coupling_ratio_to_r(ratio) == 1.0
        assert reflection_at_ratio(ratio) == resonant_pair(1.0)


def test_huge_numpy_ratio_squares_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert coupling_ratio_to_r(np.float64(1e308)) == 1.0
        assert coupling_ratio_to_r(np.linspace(1e308, 1.7e308, 3)[1]) == 1.0


def test_coupling_ratio_survives_an_underflowing_kappa_gamma_product():
    # kappa * gamma underflows to 0 here; the ratio is finite, and 0 for g = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert CavityParams(g=5e-324, kappa=6e-146, gamma=1.1e-308).coupling_ratio == pytest.approx(1.94e-97, rel=1e-2)
        assert CavityParams(g=0.0, kappa=6e-146, gamma=1.1e-308).coupling_ratio == 0.0
        assert CavityParams(g=3.0, kappa=4.0, gamma=0.25).coupling_ratio == 3.0


def test_overflowing_reflection_coefficient_rejected():
    for params in (
        CavityParams(g=1e200, kappa=1e-200, gamma=1.0),  # g*g overflows
        CavityParams(g=1e-200, kappa=1e200, gamma=1e200),  # kappa*gamma overflows
    ):
        with pytest.raises(ParameterError, match="overflow"):
            reflection_coefficient(params)


def test_underflowing_reflection_denominator_rejected():
    # finite, positive rates whose steady-state denominator underflows to 0
    for params, name in (
        (CavityParams(g=0.0, kappa=1e-200, gamma=1e-200), "r_hot"),  # g = 0: the hot one is the cold one
        (CavityParams(g=1.0, kappa=1e-200, gamma=1e-200), "r_cold"),  # only the cold one loses g*g
    ):
        with pytest.raises(ParameterError, match=f"^{name} steady-state denominator underflows to 0"):
            reflection_coefficient(params)


def test_kappa_from_quality_factor_headline():
    # Q = 1e5 at 637 nm: c/(lambda*Q) ~ 4.71 GHz
    kappa = kappa_from_quality_factor(1e5, 637e-9)
    assert kappa == pytest.approx(4.706e9, rel=1e-3)
    conv = quality_factor_conversions(1e5, 637e-9)
    assert conv["ordinary"] == kappa
    assert conv["angular"] == pytest.approx(2 * np.pi * kappa, rel=1e-12)
    assert conv["mixed"] == pytest.approx(kappa / (2 * np.pi), rel=1e-12)
    assert conv["mixed"] == pytest.approx(0.749e9, rel=1e-3)


def test_kappa_round_trip_and_linearity():
    kappa0 = 3.3e9
    q = SPEED_OF_LIGHT / (637e-9 * kappa0)
    assert kappa_from_quality_factor(q, 637e-9) == pytest.approx(kappa0, rel=1e-12)
    assert kappa_from_quality_factor(1e4, 637e-9) == pytest.approx(
        10 * kappa_from_quality_factor(1e5, 637e-9), rel=1e-12
    )
    with pytest.raises(ParameterError):
        kappa_from_quality_factor(0.0, 637e-9)
    with pytest.raises(ParameterError):
        kappa_from_quality_factor(1e5, -1.0)


def test_quality_factor_underflow_and_overflow_rejected():
    # lambda*Q underflows to 0 or overflows to inf (c over it would be 0), or
    # c over it (1e-310 is subnormal) or 2*pi times that overflows
    for q, wavelength, match in (
        (1e-300, 1e-300, r"^wavelength\*Q underflows to 0"),
        (1e300, 1e10, r"^wavelength\*Q overflows"),
        (1e10, 1e300, r"^wavelength\*Q overflows"),
        (1e-10, 1e-300, r"^kappa = c/\(lambda\*Q\) overflows"),
        (1e-300, 1e-10, r"^kappa = c/\(lambda\*Q\) overflows"),
    ):
        for convert in (kappa_from_quality_factor, quality_factor_conversions):
            with pytest.raises(ParameterError, match=match):
                convert(q, wavelength)
    with pytest.raises(ParameterError, match=r"^kappa = 2\*pi\*c/\(lambda\*Q\) overflows"):
        quality_factor_conversions(1e-300, 2.0)
    # finite results are the plain quotient and its 2*pi multiples, bit for bit
    assert kappa_from_quality_factor(1e-300, 2.0) == SPEED_OF_LIGHT / (2.0 * 1e-300)
    for q, wavelength in ((1e5, 637e-9), (1e-300, 100.0), (1e300, 1e5), (1e300, 1.7e8)):
        base = SPEED_OF_LIGHT / (wavelength * q)
        expected = {"ordinary": base, "angular": 2.0 * np.pi * base, "mixed": base / (2.0 * np.pi)}
        assert quality_factor_conversions(q, wavelength) == expected


MODES = ("m",)


def _single(pol_pair, spin_pair):
    return make_product_state(pol_pair, "m", [spin_pair], MODES)


def test_scatter_ideal_signs():
    # |R>|-> -> -|R>|-> and |L>|-> -> |L>|->
    st = _single((1, 0), (0, 1))
    out = scatter(st, 0, "m", IDEAL_PAIR)
    assert out.amps[R, 0, MINUS] == -1.0
    st = _single((0, 1), (0, 1))
    out = scatter(st, 0, "m", IDEAL_PAIR)
    assert out.amps[L, 0, MINUS] == 1.0
    st = _single((0, 1), (1, 0))
    out = scatter(st, 0, "m", IDEAL_PAIR)
    assert out.amps[L, 0, PLUS] == -1.0


def test_scatter_hot_attenuation():
    pair = reflection_at_ratio(5.0)
    st = _single((0, 1), (0, 1))
    out = scatter(st, 0, "m", pair)
    assert out.amps[L, 0, MINUS] == pytest.approx(0.980198, abs=1e-6)


def test_scatter_ideal_is_unitary(rng):
    for _ in range(10):
        st = make_product_state(BALANCED, "m", random_spin_pairs(rng, 1), MODES)
        out = scatter(st, 0, "m", IDEAL_PAIR)
        assert out.norm2() == pytest.approx(st.norm2(), abs=1e-12)


def test_scatter_commutes_with_disjoint_operations(rng):
    modes = ("x", "y")
    for _ in range(10):
        st = make_product_state(BALANCED, "x", random_spin_pairs(rng, 2), modes)
        st = apply_one(st, Element(Kind.HWP, ("x",), ("x",)))  # spread amplitude around
        a = apply_one(scatter(st, 0, "x", IDEAL_PAIR), Element(Kind.SPIN_H, spin=1))
        b = scatter(apply_one(st, Element(Kind.SPIN_H, spin=1)), 0, "x", IDEAL_PAIR)
        assert np.abs(a.amps - b.amps).max() < 1e-12
        # scatter touches only its own mode
        c = scatter(st, 0, "y", IDEAL_PAIR)
        assert np.abs(c.amps[:, 0, :] - st.amps[:, 0, :]).max() == 0.0


def test_scatter_untouched_modes_and_spins():
    st = make_product_state((1, 0), "m", [(1, 0), (0, 1)], MODES)
    out = scatter(st, 1, "m", IDEAL_PAIR)
    # photon R, spin1 = MINUS: cold reflection -1 regardless of spin 0
    idx = spin_config_index((PLUS, MINUS))
    assert out.amps[R, 0, idx] == -1.0


def test_scatter_spin_index_validated():
    st = _single((1, 0), (1, 0))
    with pytest.raises(StateError, match="spin index 3 out of range for 1 spins"):
        scatter(st, 3, "m", IDEAL_PAIR)


@pytest.mark.parametrize("spin", [3, -1])
def test_both_spin_kernels_refuse_a_spin_out_of_range_alike(spin):
    # spin_flip, the table both kernels read, holds the one check, so the fault reads the same from each
    st = make_product_state((1, 0), "m", [(1, 0)], ("m",))
    for call in (lambda: scatter(st, spin, "m", IDEAL_PAIR), lambda: apply_one(st, Element(Kind.SPIN_H, spin=spin))):
        with pytest.raises(StateError, match=f"^spin index {spin} out of range for 1 spins$"):
            call()


def test_times_hot_is_the_hot_product_as_a_new_array():
    x = np.array([[1.0, 2j], [-0.5, 0.0]])
    pair = ReflectionPair(0.6 * np.exp(0.7j), -1.0)
    hot = pair.times_hot(x)
    assert hot is not x and np.array_equal(hot, x * pair.r_hot)
    assert np.array_equal(x, [[1.0, 2j], [-0.5, 0.0]])
