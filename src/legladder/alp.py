"""Evaluation of the normalized associated Legendre functions T_l^m, their
x derivatives, and Gauss-Legendre quadrature on the open interval (-1, 1).

T_l^m(x) = sqrt((l-m)!/(l+m)!) * P_l^m(x), with the Condon-Shortley phase
in P_l^m. The rescaling makes the ladder coefficients symmetric under
m -> -m and gives every m channel the same orthogonality weight (l + 1/2):

    integral T_l^m(x) (l + 1/2) T_l'^m(x) dx = delta_{l l'}.

Evaluation seeds the diagonal T_m^m from the closed form of P_m^m, with the
double-factorial ratio accumulated multiplicatively so no factorial is ever
formed, then runs the three-term recurrence upward in l:

    (2l+1) x T_l^m = sqrt((l-m+1)(l+m+1)) T_{l+1}^m
                     + sqrt((l+m)(l-m)) T_{l-1}^m.

Upward is the stable direction for this normalization. t_values runs it for
one order; t_orders runs it for every order at once, one degree at a time,
in the same arithmetic. Negative orders use T_l^{-m} = (-1)^m T_l^m.
Endpoints x = +-1 are excluded everywhere; the differential operator
realizations contain 1/sqrt(1-x^2) factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modes import is_admissible


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights of an n-point rule on (-1, 1)."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def order(self) -> int:
        return len(self.nodes)


@dataclass(eq=False)
class GridFunction:
    """Samples of a function of x on the nodes of a rule, tagged with the
    m channel it lives in."""

    rule: QuadratureRule
    m: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if len(self.values) != self.rule.order:
            raise ValueError("values length does not match rule order")


def _check_domain(x: np.ndarray):
    # Written as "not all inside" so that NaN, which compares False, fails.
    if not np.all(np.abs(x) < 1.0):
        raise ValueError("x must lie in the open interval (-1, 1)")


def _as_grid(x):
    arr = np.asarray(x, dtype=float)
    _check_domain(arr)
    return arr


def t_values(m: int, l_max: int, x) -> np.ndarray:
    """T_l^m(x) for all l = |m| .. l_max at once.

    Parameters
    ----------
    m : order (any sign)
    l_max : highest degree, l_max >= |m|
    x : scalar or 1d array in (-1, 1)

    Returns
    -------
    ndarray of shape (l_max - |m| + 1, len(x)); row i holds degree |m| + i.
    """
    ma = abs(m)
    if l_max < ma:
        raise ValueError("l_max must be at least |m|")
    arr = np.atleast_1d(_as_grid(x))
    s = np.sqrt((1.0 - arr) * (1.0 + arr))

    seed = np.ones_like(arr)
    for k in range(1, ma + 1):
        seed = seed * (-s) * math.sqrt((2 * k - 1) / (2 * k))

    rows = np.empty((l_max - ma + 1, len(arr)))
    rows[0] = seed
    prev = np.zeros_like(arr)
    cur = seed
    for l in range(ma, l_max):
        c_dn = math.sqrt((l + ma) * (l - ma))
        c_up = math.sqrt((l - ma + 1) * (l + ma + 1))
        cur, prev = ((2 * l + 1) * arr * cur - c_dn * prev) / c_up, cur
        rows[l - ma + 1] = cur
    if m < 0 and ma % 2 == 1:
        rows = -rows
    return rows


def t_orders(l_max: int, x):
    """T_l^m(x) for every order m = 0 .. l, one degree l = 0 .. l_max at a time.

    Yields an array of shape (l + 1, len(x)) per degree; row m holds
    T_l^m(x). Each step advances every order together, with the seed
    product and three-term recurrence of t_values in the same arithmetic
    order, so row m of degree l equals t_values(m, l_max, x)[l - m] bit for
    bit. Only two degrees are held at once, so memory stays
    O(l_max * len(x)). Negative orders follow from T_l^{-m} = (-1)^m T_l^m.
    """
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    arr = np.atleast_1d(_as_grid(x))
    s = np.sqrt((1.0 - arr) * (1.0 + arr))
    # cur holds degree l in rows 0..l, prev degree l - 1 in rows 0..l - 1;
    # each carries one trailing zero row, the T_{l-1}^l = 0 the diagonal
    # start of the recurrence needs.
    prev = np.zeros((1, len(arr)))
    cur = np.zeros((2, len(arr)))
    cur[0] = 1.0
    for l in range(l_max + 1):
        yield cur[:l + 1]
        if l == l_max:
            return
        m = np.arange(l + 1)
        c_dn = np.sqrt((l + m) * (l - m))[:, None]
        c_up = np.sqrt((l - m + 1) * (l + m + 1))[:, None]
        nxt = np.zeros((l + 3, len(arr)))
        nxt[:l + 1] = ((2 * l + 1) * arr * cur[:l + 1] - c_dn * prev) / c_up
        nxt[l + 1] = cur[l] * (-s) * math.sqrt((2 * l + 1) / (2 * l + 2))
        prev, cur = cur, nxt


def dt_values(m: int, l_max: int, x) -> np.ndarray:
    """dT_l^m/dx for all l = |m| .. l_max, from the lowering relation

        (1 - x^2) T_l' = sqrt((l+m)(l-m)) T_{l-1} - l x T_l,

    which is exact for either sign of m.
    """
    ma = abs(m)
    arr = np.atleast_1d(_as_grid(x))
    t = t_values(m, l_max, arr)
    one_minus = (1.0 - arr) * (1.0 + arr)
    out = np.empty_like(t)
    for i, l in enumerate(range(ma, l_max + 1)):
        c = math.sqrt((l + ma) * (l - ma))
        below = t[i - 1] if i > 0 else 0.0
        out[i] = (c * below - l * arr * t[i]) / one_minus
    return out


def ddt_values(m: int, l_max: int, x) -> np.ndarray:
    """Second derivatives, obtained by differentiating the first-derivative
    formula once more (no use of the defining differential equation):

        (1 - x^2) T_l'' = sqrt((l+m)(l-m)) T_{l-1}' - l T_l - l x T_l' + 2 x T_l'.
    """
    ma = abs(m)
    arr = np.atleast_1d(_as_grid(x))
    t = t_values(m, l_max, arr)
    dt = dt_values(m, l_max, arr)
    one_minus = (1.0 - arr) * (1.0 + arr)
    out = np.empty_like(t)
    for i, l in enumerate(range(ma, l_max + 1)):
        c = math.sqrt((l + ma) * (l - ma))
        dbelow = dt[i - 1] if i > 0 else 0.0
        out[i] = (c * dbelow - l * t[i] - l * arr * dt[i] + 2.0 * arr * dt[i]) / one_minus
    return out


def _scalar_out(arr, x):
    return float(arr[0]) if np.ndim(x) == 0 else arr


def eval_T(l: int, m: int, x):
    """T_l^m at x (scalar or array), for admissible (l, m) and |x| < 1."""
    if not is_admissible(l, m):
        raise ValueError(f"inadmissible (l, m) = ({l}, {m})")
    return _scalar_out(t_values(m, l, x)[-1], x)


def eval_T_derivative(l: int, m: int, x):
    """dT_l^m/dx at x, same domain as eval_T."""
    if not is_admissible(l, m):
        raise ValueError(f"inadmissible (l, m) = ({l}, {m})")
    return _scalar_out(dt_values(m, l, x)[-1], x)


def eval_T_second(l: int, m: int, x):
    """d^2 T_l^m/dx^2 at x, same domain as eval_T."""
    if not is_admissible(l, m):
        raise ValueError(f"inadmissible (l, m) = ({l}, {m})")
    return _scalar_out(ddt_values(m, l, x)[-1], x)


def sample_T(l: int, m: int, rule: QuadratureRule) -> GridFunction:
    """T_l^m sampled on the nodes of a rule."""
    return GridFunction(rule, m, t_values(m, l, rule.nodes)[-1])


def phase_relation_check(l: int, m: int, x, tol: float = 1e-12) -> bool:
    """True iff T_l^{-m}(x) = (-1)^m T_l^m(x) to within tol (m >= 0)."""
    if m < 0:
        raise ValueError("phase relation is stated for m >= 0")
    lhs = eval_T(l, -m, x)
    rhs = (-1.0) ** m * eval_T(l, m, x)
    return bool(np.max(np.abs(np.atleast_1d(lhs - rhs))) <= tol)


def _legendre_p_dp(n: int, x: np.ndarray):
    """Legendre P_n and P_n' by the monic three-term recurrence."""
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev, np.zeros_like(x)
    p = np.array(x, copy=True)
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def _bisect_node(n: int, lo: float, hi: float) -> float:
    """Bisection for one root of P_n on a sign-changing bracket."""
    flo = _legendre_p_dp(n, np.array([lo]))[0][0]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = _legendre_p_dp(n, np.array([mid]))[0][0]
        if fmid == 0.0 or hi - lo < 1e-16:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _roots_by_scan(n: int) -> np.ndarray:
    """All roots of P_n via a sign-change scan plus bisection."""
    grid = np.cos(np.linspace(np.pi, 0.0, 8 * n + 1))
    vals = _legendre_p_dp(n, grid)[0]
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif (vals[i] < 0) != (vals[i + 1] < 0):
            roots.append(_bisect_node(n, float(grid[i]), float(grid[i + 1])))
    if len(roots) != n:
        raise RuntimeError(f"root scan found {len(roots)} of {n} quadrature nodes")
    return np.array(roots)


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> QuadratureRule:
    """The n-point Gauss-Legendre rule on (-1, 1).

    Nodes are the roots of P_n, found from Chebyshev-angle initial guesses
    by Newton iteration (|dx| < 1e-15) with a bisection fallback, then
    symmetrized about 0. Weights are w_k = 2 / ((1 - x_k^2) P_n'(x_k)^2).
    """
    if n < 1:
        raise ValueError("quadrature order must be at least 1")
    if n == 1:
        nodes = np.array([0.0])
        weights = np.array([2.0])
    else:
        k = np.arange(1, n + 1)
        x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
        converged = False
        for _ in range(100):
            p, dp = _legendre_p_dp(n, x)
            dx = p / dp
            x = x - dx
            if np.max(np.abs(dx)) < 1e-15:
                converged = True
                break
        if not converged or np.any(~(np.abs(x) < 1.0)):
            x = _roots_by_scan(n)
        x = np.sort(x)
        x = 0.5 * (x - x[::-1])
        _, dp = _legendre_p_dp(n, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        w = 0.5 * (w + w[::-1])
        nodes, weights = x, w
    if abs(float(np.sum(weights)) - 2.0) > 1e-12:
        raise RuntimeError("quadrature weights failed the sum rule")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)
