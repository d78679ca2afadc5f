"""Per-channel Legendre analysis and synthesis, inner products, Parseval
bookkeeping, and the truncated reproducing kernel.

Spectra are stored against the orthonormal polar functions

    phi_l^m(x) = sqrt(l + 1/2) T_l^m(x),

the unique normalization under which expansion, inversion, the inner
product and the Parseval identity hold simultaneously with unit weights.
Views in the bare T basis differ by the sqrt(l + 1/2) factor and are
provided by explicit conversion to and from coefficient vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alp import GridFunction, QuadratureRule, dt_values, t_values
from .modes import CoeffVector, ModeIndex, Truncation


@dataclass(eq=False)
class ChannelSpectrum:
    """Orthonormal-basis coefficients of one m channel, keys |m| <= l <= l_max."""

    m: int
    coeffs: dict
    l_max: int

    def __post_init__(self):
        for l in self.coeffs:
            if not abs(self.m) <= l <= self.l_max:
                raise ValueError(f"degree {l} outside |m|..l_max for channel m={self.m}")

    def coeff(self, l: int) -> float:
        return self.coeffs.get(l, 0.0)


def _phi_matrix(m: int, l_max: int, x: np.ndarray) -> np.ndarray:
    """Rows of sqrt(l + 1/2) T_l^m(x) for l = |m| .. l_max."""
    t = t_values(m, l_max, x)
    scale = np.sqrt(np.arange(abs(m), l_max + 1) + 0.5)
    return scale[:, None] * t


def analyze(f: GridFunction, l_max: int) -> ChannelSpectrum:
    """Project grid samples onto the orthonormal polar functions.

    Requires rule order >= l_max + 1 so the quadrature is exact on the
    band-limited products that appear.
    """
    if f.rule.order < l_max + 1:
        raise ValueError(f"need at least {l_max + 1} nodes to analyze up to l_max={l_max}")
    phi = _phi_matrix(f.m, l_max, np.asarray(f.rule.nodes))
    weighted = np.asarray(f.rule.weights) * np.asarray(f.values)
    coeffs = phi @ weighted
    return ChannelSpectrum(f.m, {abs(f.m) + i: float(c) for i, c in enumerate(coeffs)}, l_max)


def synthesize(s: ChannelSpectrum, rule: QuadratureRule) -> GridFunction:
    """Evaluate the expansion sum_l c_l phi_l^m on the nodes of a rule."""
    x = np.asarray(rule.nodes)
    out = np.zeros_like(x)
    if s.coeffs:
        phi = _phi_matrix(s.m, s.l_max, x)
        for l, c in s.coeffs.items():
            out = out + c * phi[l - abs(s.m)]
    return GridFunction(rule, s.m, out)


def synthesize_derivative(s: ChannelSpectrum, rule: QuadratureRule) -> np.ndarray:
    """x derivative of the synthesized expansion, term by term analytic."""
    x = np.asarray(rule.nodes)
    out = np.zeros_like(x)
    if s.coeffs:
        dt = dt_values(s.m, s.l_max, x)
        for l, c in s.coeffs.items():
            out = out + c * math.sqrt(l + 0.5) * dt[l - abs(s.m)]
    return out


def _same_rule(a: QuadratureRule, b: QuadratureRule) -> bool:
    return a is b or (a.order == b.order and np.array_equal(a.nodes, b.nodes))


def inner_product(f, g):
    """Inner product in any of the equivalent representations.

    Grid functions are integrated by quadrature; channel spectra and
    coefficient vectors are summed coefficient-wise. Lists pair channels
    by m. Mismatched channels or truncations are usage errors.
    """
    if isinstance(f, GridFunction) and isinstance(g, GridFunction):
        if not _same_rule(f.rule, g.rule):
            raise ValueError("grid functions use different quadrature rules")
        if f.m != g.m:
            raise ValueError("grid functions live in different m channels")
        return float(np.dot(np.asarray(f.rule.weights), f.values * g.values))
    if isinstance(f, ChannelSpectrum) and isinstance(g, ChannelSpectrum):
        if f.m != g.m:
            raise ValueError("spectra live in different m channels")
        if f.l_max != g.l_max:
            raise ValueError("spectra use different truncations")
        return sum(c * g.coeff(l) for l, c in f.coeffs.items())
    if isinstance(f, CoeffVector) and isinstance(g, CoeffVector):
        return f.dot(g)
    if isinstance(f, (list, tuple)) and isinstance(g, (list, tuple)):
        fm = {item.m: item for item in f}
        gm = {item.m: item for item in g}
        if set(fm) != set(gm):
            raise ValueError("channel sets do not match")
        return sum(inner_product(fm[m], gm[m]) for m in fm)
    raise TypeError("unsupported operand types for inner_product")


@dataclass(frozen=True)
class ParsevalResult:
    """Both sides of the Parseval identity plus a band-limit diagnostic."""

    lhs: float
    rhs: float
    band_limited: bool
    roundtrip_residual: float

    def __iter__(self):
        return iter((self.lhs, self.rhs))


def parseval_check(fs, l_max: int) -> ParsevalResult:
    """Sum of squared coefficients vs quadrature norm over the channels.

    Accepts one GridFunction or a list with distinct m. Inputs that are not
    band-limited at l_max are accepted but flagged, with the round-trip
    residual reported; the two sides then agree only approximately.
    """
    if isinstance(fs, GridFunction):
        fs = [fs]
    seen = set()
    lhs = rhs = 0.0
    residual = 0.0
    for f in fs:
        if f.m in seen:
            raise ValueError(f"duplicate channel m={f.m}")
        seen.add(f.m)
        spec = analyze(f, l_max)
        lhs += sum(c * c for c in spec.coeffs.values())
        rhs += float(np.dot(np.asarray(f.rule.weights), np.asarray(f.values) ** 2))
        back = synthesize(spec, f.rule).values
        scale = 1.0 + float(np.max(np.abs(f.values)))
        residual = max(residual, float(np.max(np.abs(back - f.values))) / scale)
    return ParsevalResult(lhs, rhs, residual <= 1e-10, residual)


def completeness_kernel(m: int, l_max: int, x, y):
    """Truncated reproducing kernel sum_{l=|m|}^{l_max} T_l^m(x) (l+1/2) T_l^m(y).

    Terms are accumulated as (T(x) * T(y)) * (l + 1/2) in ascending l, so the
    kernel is symmetric under x <-> y bitwise, not merely to roundoff.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    tx = t_values(m, l_max, xa)
    ty = t_values(m, l_max, ya)
    kern = np.zeros((len(xa), len(ya)))
    for i, l in enumerate(range(abs(m), l_max + 1)):
        kern += np.outer(tx[i], ty[i]) * (l + 0.5)
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return float(kern[0, 0])
    if np.ndim(y) == 0:
        return kern[:, 0]
    if np.ndim(x) == 0:
        return kern[0, :]
    return kern


def spectrum_to_coeffs(s: ChannelSpectrum) -> CoeffVector:
    """View the orthonormal coefficients as a bare-T-basis vector."""
    trunc = Truncation(s.l_max)
    entries = {ModeIndex(l, s.m): c * math.sqrt(l + 0.5) for l, c in s.coeffs.items()}
    return CoeffVector(entries, trunc)


def coeffs_to_spectrum(v: CoeffVector, m: int) -> ChannelSpectrum:
    """Extract one channel of a T-basis vector as an orthonormal spectrum."""
    coeffs = {mode.l: val / math.sqrt(mode.l + 0.5)
              for mode, val in v.entries.items() if mode.m == m}
    return ChannelSpectrum(m, coeffs, v.trunc.l_max)


def grid_to_json(f: GridFunction) -> dict:
    return {
        "m": f.m,
        "nodes": [float(v) for v in f.rule.nodes],
        "weights": [float(v) for v in f.rule.weights],
        "values": [float(v) for v in f.values],
    }


def grid_from_json(data: dict) -> GridFunction:
    nodes = np.asarray(data["nodes"], dtype=float)
    weights = np.asarray(data["weights"], dtype=float)
    values = np.asarray(data["values"], dtype=float)
    if not np.all(np.abs(nodes) < 1.0):
        raise ValueError("grid nodes must lie inside (-1, 1)")
    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(values))):
        raise ValueError("grid weights and values must be finite")
    rule = QuadratureRule(nodes=nodes, weights=weights)
    return GridFunction(rule, int(data["m"]), values)


def spectrum_to_json(s: ChannelSpectrum) -> dict:
    return {
        "m": s.m,
        "basis": "orthonormal",
        "l_max": s.l_max,
        "coeffs": [{"l": l, "c": float(c)} for l, c in sorted(s.coeffs.items())],
    }


def spectrum_from_json(data: dict) -> ChannelSpectrum:
    if data.get("basis", "orthonormal") != "orthonormal":
        raise ValueError("only the orthonormal basis is stored in spectrum files")
    coeffs = {int(row["l"]): float(row["c"]) for row in data["coeffs"]}
    l_max = int(data["l_max"]) if "l_max" in data else max(coeffs, default=0)
    return ChannelSpectrum(int(data["m"]), coeffs, l_max)
