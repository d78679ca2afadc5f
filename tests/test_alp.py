import numpy as np
import pytest
import sympy as sp

from legladder.alp import (eval_T, eval_T_derivative, eval_T_second,
                           gauss_legendre, phase_relation_check, sample_T,
                           t_orders, t_values)
from legladder.diffops import legendre_ode_residual


def rodrigues_T(l, m, xq):
    """Independent oracle: symbolic Rodrigues construction at rational x."""
    x = sp.Symbol("x")
    pl = sp.diff((x ** 2 - 1) ** l, x, l) / (2 ** l * sp.factorial(l))
    ma = abs(m)
    plm = (-1) ** ma * (1 - x ** 2) ** sp.Rational(ma, 2) * sp.diff(pl, x, ma)
    t = sp.sqrt(sp.factorial(l - ma) / sp.factorial(l + ma)) * plm
    if m < 0:
        t = (-1) ** ma * t
    return float(t.subs(x, xq).evalf(30))


# expected values frozen from the Rodrigues oracle above
@pytest.mark.parametrize("l,m,x,expected", [
    (0, 0, 0.3, 1.0),
    (0, 0, -0.9, 1.0),
    (1, 0, 0.5, 0.5),
    (1, 1, 0.0, -0.7071067811865476),
    (2, 0, 0.0, -0.5),
    (2, 1, 0.5, -0.5303300858899106),
    (3, -3, 0.25, 0.5074367600299445),
    (4, 2, -0.6, 0.3845329634764749),
])
def test_eval_T_frozen_values(l, m, x, expected):
    assert eval_T(l, m, x) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("l", range(0, 21, 2))
def test_eval_T_against_rodrigues(l):
    for m in {-l, -1 if l else 0, 0, min(1, l), l}:
        for xq in (sp.Rational(-7, 10), sp.Rational(1, 3), sp.Rational(9, 10)):
            want = rodrigues_T(l, m, xq)
            got = eval_T(l, m, float(xq))
            assert got == pytest.approx(want, abs=1e-11, rel=1e-11)


@pytest.mark.parametrize("l,m,x,expected", [
    (0, 0, 0.3, 0.0),
    (1, 0, -0.6, 1.0),
    (1, 0, 0.2, 1.0),
    (2, 0, 0.0, 0.0),
])
def test_derivative_frozen_values(l, m, x, expected):
    assert eval_T_derivative(l, m, x) == pytest.approx(expected, abs=1e-14)


def test_derivative_matches_finite_differences():
    h = 1e-6
    for l in range(16):
        for m in range(-l, l + 1, max(1, l // 2)):
            for x in (-0.9, -0.35, 0.0, 0.41, 0.88):
                fd = (eval_T(l, m, x + h) - eval_T(l, m, x - h)) / (2 * h)
                assert eval_T_derivative(l, m, x) == pytest.approx(fd, abs=1e-6)


def test_second_derivative_matches_finite_differences():
    h = 1e-4
    for l, m in ((2, 0), (5, 3), (9, -4)):
        for x in (-0.5, 0.1, 0.6):
            fd = (eval_T(l, m, x + h) - 2 * eval_T(l, m, x) + eval_T(l, m, x - h)) / h ** 2
            assert eval_T_second(l, m, x) == pytest.approx(fd, rel=1e-6, abs=1e-5)


def test_legendre_ode_residual_all_modes():
    rule = gauss_legendre(24)
    for l in range(13):
        for m in range(-l, l + 1):
            assert legendre_ode_residual(l, m, rule) < 1e-9


def test_phase_relation():
    assert phase_relation_check(3, 2, 0.4)
    assert phase_relation_check(1, 1, 0.4)
    for l in range(6):
        assert phase_relation_check(l, 0, -0.2)
    # explicit signs
    assert eval_T(3, -2, 0.4) == pytest.approx(eval_T(3, 2, 0.4), abs=1e-14)
    assert eval_T(1, -1, 0.4) == pytest.approx(-eval_T(1, 1, 0.4), abs=1e-14)


def test_domain_errors():
    with pytest.raises(ValueError):
        eval_T(1, 2, 0.0)
    with pytest.raises(ValueError):
        eval_T(1, 0, 1.0)
    with pytest.raises(ValueError):
        eval_T(1, 0, -1.5)
    with pytest.raises(ValueError):
        eval_T_derivative(0, 0, 1.0)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_x_rejected(x):
    with pytest.raises(ValueError):
        eval_T(1, 0, x)
    with pytest.raises(ValueError):
        eval_T(2, 1, np.array([0.1, x, -0.3]))


@pytest.mark.parametrize("l_max", [12, 64, 128])
def test_t_orders_rows_equal_t_values_bitwise(l_max):
    x = np.concatenate([gauss_legendre(l_max + 1).nodes, [-0.999, 0.0, 0.5, 0.9999]])
    rows = list(t_orders(l_max, x))
    assert [r.shape for r in rows] == [(l + 1, len(x)) for l in range(l_max + 1)]
    for m in range(l_max + 1):
        batched = np.array([rows[l][m] for l in range(m, l_max + 1)])
        assert np.array_equal(batched, t_values(m, l_max, x))


def test_t_orders_domain():
    with pytest.raises(ValueError):
        next(t_orders(3, np.array([0.2, float("nan")])))
    with pytest.raises(ValueError):
        next(t_orders(-1, 0.2))


def test_array_evaluation_matches_scalar():
    xs = np.array([-0.8, -0.1, 0.33, 0.77])
    vals = eval_T(7, 4, xs)
    for x, v in zip(xs, vals):
        assert v == eval_T(7, 4, float(x))


def test_large_m_seed_does_not_overflow():
    # factorial quotients would overflow here; the multiplicative seed must not
    val = eval_T(120, 120, 0.3)
    assert np.isfinite(val)
    assert abs(val) < 1.0


def test_sample_T_tags_channel():
    rule = gauss_legendre(8)
    g = sample_T(3, -2, rule)
    assert g.m == -2
    assert len(g.values) == 8
