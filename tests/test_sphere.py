import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legladder.algebra import GENERATORS
from legladder.alp import t_values
from legladder.modes import ModeIndex, Truncation, lattice
from legladder.sphere import (SphereField, SphereGrid, apply_primed,
                              casimir_sphere_residual, eval_Y, field_from_json,
                              field_to_json, fourier_channel, j3_field,
                              primed_element_deviation, sample_Y, sht_analyze,
                              sht_synthesize, standard_grid)

GRID = standard_grid(10, 19)
SQRT_2PI = math.sqrt(2.0 * math.pi)


def test_y00_is_constant():
    for theta, phi in ((0.3, 0.0), (1.2, 2.5), (2.8, 6.0)):
        assert eval_Y(0, 0, theta, phi) == pytest.approx(0.3989422804014327, abs=1e-15)


def test_y10_closed_form():
    for theta in (0.4, 1.5708, 2.0):
        got = eval_Y(1, 0, theta, 1.0)
        assert got == pytest.approx(math.cos(theta) / SQRT_2PI, abs=1e-15)


def test_conjugation_phase():
    for l, m in ((3, 2), (4, 1), (5, 5)):
        a = eval_Y(l, -m, 0.9, 0.7)
        b = (-1.0) ** m * eval_Y(l, m, 0.9, 0.7).conjugate()
        assert a == pytest.approx(b, abs=1e-14)


def test_poles_rejected():
    with pytest.raises(ValueError):
        eval_Y(1, 0, 0.0, 0.0)
    with pytest.raises(ValueError):
        eval_Y(1, 0, math.pi, 0.0)
    with pytest.raises(ValueError):
        eval_Y(1, 2, 1.0, 0.0)


def test_primed_jp_on_y10():
    got = apply_primed("Jp", 1, 0, GRID).values
    want = math.sqrt(2) * sample_Y(1, 1, GRID).values
    assert np.max(np.abs(got - want)) < 1e-10


def test_unprimed_kp_on_y00():
    got = apply_primed("Kp", 0, 0, GRID).values
    want = sample_Y(1, 0, GRID).values
    assert np.max(np.abs(got - want)) < 1e-12


def test_primed_sp_on_y11():
    # coefficient sqrt((l-m+2)(l-m+1)) at (1,1) is sqrt(2), image (2,0)
    got = apply_primed("Sp", 1, 1, GRID).values
    want = math.sqrt(2) * sample_Y(2, 0, GRID).values
    assert np.max(np.abs(got - want)) < 1e-10


def test_primed_elements_match_flat_lattice():
    for l in range(7):
        for m in range(-l, l + 1):
            for name in GENERATORS:
                assert primed_element_deviation(name, l, m, GRID) < 1e-9


def test_j3_fourier_side():
    for l, m in ((2, -1), (4, 3)):
        got = j3_field(sample_Y(l, m, GRID)).values
        want = m * sample_Y(l, m, GRID).values
        assert np.max(np.abs(got - want)) < 1e-12


def test_fourier_channel_picks_out_order():
    f = sample_Y(3, 2, GRID)
    g = fourier_channel(f, 2)
    x = np.asarray(GRID.theta_rule.nodes)
    from legladder.alp import t_values

    assert np.max(np.abs(g - t_values(2, 3, x)[-1])) < 1e-13
    assert np.max(np.abs(fourier_channel(f, 1))) < 1e-14


def test_sht_analyze_orthonormal_mode_is_unit():
    z = SphereField(GRID, math.sqrt(1.5) * sample_Y(1, 0, GRID).values * 1.0)
    coeffs = sht_analyze(z, 8)
    assert coeffs[ModeIndex(1, 0)] == pytest.approx(1.0, abs=1e-12)
    others = max(abs(v) for k, v in coeffs.items() if k != ModeIndex(1, 0))
    assert others < 1e-12


def test_sht_analyze_scaled_harmonic():
    # sqrt(1.5) * sqrt(2 pi) * Y_1^0 is sqrt(2 pi) times the orthonormal mode
    f = SphereField(GRID, math.sqrt(1.5) * SQRT_2PI * sample_Y(1, 0, GRID).values)
    coeffs = sht_analyze(f, 8)
    assert coeffs[ModeIndex(1, 0)] == pytest.approx(SQRT_2PI, abs=1e-12)


def test_sht_analyze_constant_field():
    c = 0.75
    f = SphereField(GRID, np.full(GRID.shape, c, dtype=complex))
    coeffs = sht_analyze(f, 8)
    # quadrature oracle: the orthonormal (0,0) function integrates to
    # sqrt(4 pi) over the sphere, so a constant c picks up c * sqrt(4 pi)
    assert coeffs[ModeIndex(0, 0)] == pytest.approx(c * math.sqrt(4 * math.pi), abs=1e-12)
    others = max(abs(v) for k, v in coeffs.items() if k != ModeIndex(0, 0))
    assert others < 1e-12


def test_sht_zero_field():
    coeffs = sht_analyze(SphereField(GRID, np.zeros(GRID.shape)), 8)
    assert all(v == 0 for v in coeffs.values())


def test_sht_roundtrip_delta_spectrum():
    coeffs = {ModeIndex(2, 1): 1.0 + 0.0j}
    field = sht_synthesize(coeffs, GRID)
    want = math.sqrt(2.5) * sample_Y(2, 1, GRID).values
    assert np.max(np.abs(field.values - want)) < 1e-13


def test_sht_roundtrip_random():
    rng = np.random.default_rng(5)
    coeffs = {ModeIndex(l, m): complex(*rng.standard_normal(2))
              for l in range(9) for m in range(-l, l + 1)}
    back = sht_analyze(sht_synthesize(coeffs, GRID), 8)
    assert max(abs(back[k] - coeffs[k]) for k in coeffs) < 1e-10


def test_sht_synthesize_zero():
    field = sht_synthesize({}, GRID)
    assert np.all(field.values == 0)


def test_sht_undersampled_grids_rejected():
    small_theta = standard_grid(5, 19)
    with pytest.raises(ValueError):
        sht_analyze(SphereField(small_theta, np.zeros(small_theta.shape)), 8)
    small_phi = standard_grid(10, 9)
    with pytest.raises(ValueError):
        sht_analyze(SphereField(small_phi, np.zeros(small_phi.shape)), 8)
    with pytest.raises(ValueError):
        sht_analyze(SphereField(GRID, np.zeros(GRID.shape)), -1)


def test_hermiticity_of_real_fields():
    rng = np.random.default_rng(9)
    field = SphereField(GRID, rng.standard_normal(GRID.shape).astype(complex))
    coeffs = sht_analyze(field, 8)
    for l in range(9):
        for m in range(l + 1):
            assert coeffs[ModeIndex(l, -m)] == pytest.approx(
                (-1.0) ** m * coeffs[ModeIndex(l, m)].conjugate(), abs=1e-11)


def test_casimir_minus_five_quarters_on_harmonics():
    for l in range(6):
        for m in range(-l, l + 1):
            assert casimir_sphere_residual(l, m, GRID) < 1e-8


def test_weighted_gram_identity():
    modes = [(l, m) for l in range(9) for m in range(-l, l + 1)]
    zmat = np.array([(math.sqrt(l + 0.5) * sample_Y(l, m, GRID).values).ravel()
                     for l, m in modes])
    w = np.outer(GRID.theta_rule.weights,
                 np.full(GRID.n_phi, 2.0 * np.pi / GRID.n_phi)).ravel()
    gram = (zmat.conj() * w) @ zmat.T
    assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-10


def test_conversion_to_common_orthonormal_convention():
    # oracle: scipy's orthonormal harmonics with Condon-Shortley phase
    from scipy.special import sph_harm_y

    from legladder.sphere import orthonormal_conversion_factor

    for l in range(7):
        for m in range(-l, l + 1):
            for theta, phi in ((0.7, 1.3), (2.1, 4.0)):
                got = orthonormal_conversion_factor(l) * eval_Y(l, m, theta, phi)
                want = complex(sph_harm_y(l, m, theta, phi))
                assert got == pytest.approx(want, abs=1e-13)


def test_field_json_roundtrip():
    f = sample_Y(3, -2, GRID)
    back = field_from_json(field_to_json(f))
    assert np.max(np.abs(back.values - f.values)) == 0.0
    assert back.grid.n_phi == GRID.n_phi


def test_field_json_rejects_wrong_nodes():
    data = field_to_json(sample_Y(1, 0, GRID))
    data["theta_nodes"][0] += 0.01
    with pytest.raises(ValueError):
        field_from_json(data)


def test_sphere_grid_validation():
    with pytest.raises(ValueError):
        SphereGrid(GRID.theta_rule, 0)
    with pytest.raises(ValueError):
        SphereField(GRID, np.zeros((3, 3)))


# ---------------------------------------------------------------- references
# Direct sums, one channel at a time: per-channel t_values for the Legendre
# stage and an explicit discrete Fourier sum for the phi stage.

def reference_synthesize(coeffs, grid):
    x = np.asarray(grid.theta_rule.nodes)
    out = np.zeros(grid.shape, dtype=complex)
    for key, c in coeffs.items():
        l, m = (key.l, key.m) if isinstance(key, ModeIndex) else key
        polar = c * math.sqrt(l + 0.5) * t_values(m, l, x)[-1]
        out += np.outer(polar, np.exp(1j * m * grid.phis)) / SQRT_2PI
    return out


def reference_analyze(field, l_max):
    grid = field.grid
    x = np.asarray(grid.theta_rule.nodes)
    w = np.asarray(grid.theta_rule.weights)
    out = {}
    for mode in lattice(Truncation(l_max)):
        phase = np.exp(-1j * mode.m * grid.phis)
        g = field.values @ phase * (SQRT_2PI / grid.n_phi)
        t = t_values(mode.m, mode.l, x)[-1]
        out[mode] = math.sqrt(mode.l + 0.5) * np.sum(w * t * g)
    return out


def random_coeffs(rng, l_max, keep=lambda l, m: True):
    return {ModeIndex(l, m): complex(*rng.standard_normal(2))
            for l in range(l_max + 1) for m in range(-l, l + 1) if keep(l, m)}


@pytest.mark.parametrize("n_theta,n_phi", [(9, 17), (9, 18), (11, 23), (12, 24)])
def test_sht_matches_direct_sums(n_theta, n_phi):
    rng = np.random.default_rng(n_phi)
    grid = standard_grid(n_theta, n_phi)
    coeffs = random_coeffs(rng, 8)
    field = sht_synthesize(coeffs, grid)
    assert np.max(np.abs(field.values - reference_synthesize(coeffs, grid))) < 1e-12
    noisy = SphereField(grid, field.values + rng.standard_normal(grid.shape))
    got = sht_analyze(noisy, 8)
    want = reference_analyze(noisy, 8)
    assert got.keys() == want.keys()
    assert max(abs(got[k] - want[k]) for k in want) < 1e-12


def test_sht_analyze_keys_in_lattice_order():
    coeffs = sht_analyze(sample_Y(2, 1, GRID), 8)
    assert list(coeffs) == lattice(Truncation(8))
    assert all(isinstance(v, complex) for v in coeffs.values())


def test_sht_synthesize_tuple_keys():
    rng = np.random.default_rng(3)
    coeffs = {(k.l, k.m): c for k, c in random_coeffs(rng, 6).items()}
    got = sht_synthesize(coeffs, GRID).values
    assert np.max(np.abs(got - reference_synthesize(coeffs, GRID))) < 1e-12
    with pytest.raises(ValueError):
        sht_synthesize({(1, 2): 1.0}, GRID)


def test_sht_synthesize_sparse_orders():
    rng = np.random.default_rng(4)
    coeffs = random_coeffs(rng, 8, keep=lambda l, m: m in (-5, 0, 3, 7))
    got = sht_synthesize(coeffs, GRID).values
    assert np.max(np.abs(got - reference_synthesize(coeffs, GRID))) < 1e-12


def test_sht_synthesize_aliasing_grid():
    # n_phi = 7 < 2 l_top + 1 = 17: orders m and m +- 7 share a Fourier bin
    # and must add, exactly as the direct sum does on the grid.
    rng = np.random.default_rng(6)
    grid = standard_grid(10, 7)
    coeffs = random_coeffs(rng, 8)
    got = sht_synthesize(coeffs, grid).values
    assert np.max(np.abs(got - reference_synthesize(coeffs, grid))) < 1e-12


def test_sht_synthesize_empty_matches_reference():
    assert np.array_equal(sht_synthesize({}, GRID).values, reference_synthesize({}, GRID))


def test_fourier_channel_aliases_by_grid_size():
    f = sample_Y(4, 3, GRID)
    for m in (-3, 0, 3):
        assert np.array_equal(fourier_channel(f, m), fourier_channel(f, m + GRID.n_phi))


def test_j3_field_band_matches_direct_sum():
    rng = np.random.default_rng(8)
    field = SphereField(GRID, rng.standard_normal(GRID.shape) + 1j * rng.standard_normal(GRID.shape))
    for band in (0, 4, 9, 12):
        want = np.zeros(GRID.shape, dtype=complex)
        for m in range(-band, band + 1):
            g = field.values @ np.exp(-1j * m * GRID.phis) * (SQRT_2PI / GRID.n_phi)
            want += m * np.outer(g, np.exp(1j * m * GRID.phis)) / SQRT_2PI
        assert np.max(np.abs(j3_field(field, band).values - want)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(l_max=st.integers(0, 24), extra_theta=st.integers(0, 3),
       extra_phi=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_sht_roundtrip_property(l_max, extra_theta, extra_phi, seed):
    grid = standard_grid(l_max + 1 + extra_theta, 2 * l_max + 1 + extra_phi)
    coeffs = random_coeffs(np.random.default_rng(seed), l_max)
    back = sht_analyze(sht_synthesize(coeffs, grid), l_max)
    assert max(abs(back[k] - c) for k, c in coeffs.items()) < 1e-10
