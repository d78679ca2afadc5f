"""Spherical harmonics in the (l + 1/2)-weighted normalization, primed
generators carrying e^{+-i phi} factors, and spherical analysis/synthesis.

    Y_l^m(theta, phi) = e^{i m phi} T_l^m(cos theta) / sqrt(2 pi)

so that integral Y_l^m* (l + 1/2) Y_l'^m' dOmega = delta delta. Transform
coefficients are stored against the fully orthonormal functions

    Z_l^m = e^{i m phi} / sqrt(2 pi) * sqrt(l + 1/2) T_l^m(cos theta),

with both normalization factors absorbed into the basis.

The transform runs in two stages. The phi stage is one FFT over the
equispaced phi nodes, scaled by sqrt(2 pi) / n_phi, whose bin m mod n_phi
holds order m; it is the discrete Fourier sum itself, so it is exact for
integer orders up to the grid's aliasing limit. The Legendre stage runs
the upward recurrence in l once for all orders together (alp.t_orders)
and contracts each degree's rows with the channels as it goes, so no
table of T values over (l, m, node) is ever held. Negative orders reuse
the m >= 0 rows through T_l^{-m} = (-1)^m T_l^m.

Primed ladder operators multiply the polar differential forms by the phase
that matches their order shift (J', R' by e^{+-i phi}, S' by e^{-+i phi},
K unchanged), so on Y_l^m samples they reproduce the ladder coefficients
of the flat-lattice operators exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .alp import (QuadratureRule, ddt_values, dt_values, gauss_legendre, t_orders,
                  t_values)
from .algebra import DIAGONAL_GENERATORS, LADDER_SHIFTS, element
from .diffops import _ab, _chain
from .modes import ModeIndex, Truncation, is_admissible, lattice

SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Gauss-Legendre nodes in x = cos(theta) crossed with equispaced phi."""

    theta_rule: QuadratureRule
    n_phi: int

    def __post_init__(self):
        if self.n_phi < 1:
            raise ValueError("need at least one phi node")

    @property
    def phis(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi

    @property
    def thetas(self) -> np.ndarray:
        return np.arccos(np.asarray(self.theta_rule.nodes))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.theta_rule.order, self.n_phi)


@dataclass(eq=False)
class SphereField:
    """Complex samples over a SphereGrid, indexed (theta node, phi node)."""

    grid: SphereGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise ValueError("field shape does not match grid")


def eval_Y(l: int, m: int, theta, phi):
    """Y_l^m away from the poles (0 < theta < pi)."""
    if not is_admissible(l, m):
        raise ValueError(f"inadmissible (l, m) = ({l}, {m})")
    th = np.asarray(theta, dtype=float)
    if np.any(th <= 0.0) or np.any(th >= np.pi):
        raise ValueError("theta must lie strictly between 0 and pi")
    t = t_values(m, l, np.cos(th))[-1]
    out = np.exp(1j * m * np.asarray(phi, dtype=float)) * t / SQRT_2PI
    return complex(out[0]) if np.ndim(theta) == 0 and np.ndim(phi) == 0 else out


def sample_Y(l: int, m: int, grid: SphereGrid) -> SphereField:
    """Y_l^m sampled on every grid point."""
    t = t_values(m, l, grid.theta_rule.nodes)[-1]
    phase = np.exp(1j * m * grid.phis)
    return SphereField(grid, np.outer(t, phase) / SQRT_2PI)


def phase_power(name: str) -> int:
    """Exponent p in the primed substitution G -> e^{i p phi} G."""
    if name in ("Kp", "Km") or name in DIAGONAL_GENERATORS:
        return 0
    dm = LADDER_SHIFTS[name][1]
    return dm


def apply_primed(name: str, l: int, m: int, grid: SphereGrid) -> SphereField:
    """Apply a primed generator to the exact samples of Y_l^m.

    The polar part is the analytic differential form from the flat lattice;
    the phi phase equals the order shift, so the result lives in the image
    channel. J3 acts as multiplication by m, the Fourier-side reading of
    -i d/dphi on a single channel.
    """
    if not is_admissible(l, m):
        raise ValueError(f"inadmissible (l, m) = ({l}, {m})")
    x = np.asarray(grid.theta_rule.nodes)
    s = np.sqrt((1.0 - x) * (1.0 + x))
    a, b = _ab(name, l, m, x, s)
    t = t_values(m, l, x)[-1]
    dt = dt_values(m, l, x)[-1]
    polar = a * dt + b * t
    dm = 0 if name in DIAGONAL_GENERATORS else LADDER_SHIFTS[name][1]
    phase = np.exp(1j * (m + dm) * grid.phis)
    return SphereField(grid, np.outer(polar, phase) / SQRT_2PI)


def _phi_modes(values: np.ndarray) -> np.ndarray:
    """Coefficients of the orthonormal modes e^{i m phi}/sqrt(2 pi) at each
    theta node; column m mod n_phi holds order m."""
    modes = np.fft.fft(values, axis=-1)
    modes *= SQRT_2PI / values.shape[-1]
    return modes


def _phi_samples(modes: np.ndarray) -> np.ndarray:
    """Inverse of _phi_modes: sum over columns k of modes[:, k] e^{i k phi}
    / sqrt(2 pi) on the equispaced phi nodes."""
    values = np.fft.ifft(modes, axis=-1)
    values *= modes.shape[-1] / SQRT_2PI
    return values


def fourier_channel(field: SphereField, m: int) -> np.ndarray:
    """Coefficient of the orthonormal mode e^{i m phi}/sqrt(2 pi) at each
    theta node (the discrete Fourier sum, evaluated by FFT)."""
    return _phi_modes(field.values)[:, m % field.grid.n_phi]


def j3_field(field: SphereField, band: int | None = None) -> SphereField:
    """-i d/dphi on a whole field: multiply each Fourier channel |m| <= band
    by m. Orders beyond the grid's aliasing limit share a bin and add."""
    n_phi = field.grid.n_phi
    band = (n_phi - 1) // 2 if band is None else band
    m = np.arange(-band, band + 1)
    factor = np.zeros(n_phi)
    np.add.at(factor, m % n_phi, m)
    return SphereField(field.grid, _phi_samples(factor * _phi_modes(field.values)))


@lru_cache(maxsize=4)
def _lattice_keys(l_max: int) -> tuple:
    """Output keys of sht_analyze in lattice() order, built once per l_max."""
    return tuple(lattice(Truncation(l_max)))


def sht_analyze(field: SphereField, l_max: int) -> dict:
    """Coefficients against the orthonormal Z_l^m, keyed by ModeIndex in
    lattice() order.

    Needs n_theta >= l_max + 1 and n_phi >= 2 l_max + 1 for the quadrature
    and Fourier stages to be exact on band-limited data.
    """
    n_theta, n_phi = field.grid.shape
    if n_theta < l_max + 1:
        raise ValueError(f"need at least {l_max + 1} theta nodes for l_max={l_max}")
    if n_phi < 2 * l_max + 1:
        raise ValueError(f"need at least {2 * l_max + 1} phi nodes for l_max={l_max}")
    x = np.asarray(field.grid.theta_rule.nodes)
    modes = _phi_modes(field.values)
    modes *= np.asarray(field.grid.theta_rule.weights)[:, None]
    m = np.arange(l_max + 1)
    pos = modes[:, m].T
    neg = modes[:, -m % n_phi].T * np.where(m % 2, -1.0, 1.0)[:, None]
    # Real and imaginary parts of channels m and -m (with the sign of
    # T_l^{-m} folded in), shape (m, 4, node): each degree's projection is
    # then one real batched product.
    g = np.stack([pos.real, pos.imag, neg.real, neg.imag], axis=1)
    coeffs = np.empty((l_max + 1) ** 2, dtype=complex)
    for l, t in enumerate(t_orders(l_max, x)):
        p = np.matmul(g[:l + 1], t[:, :, None])[:, :, 0] * math.sqrt(l + 0.5)
        centre = l * (l + 1)            # lattice() position of (l, 0)
        coeffs[centre - l:centre + 1] = p[::-1, 2] + 1j * p[::-1, 3]
        coeffs[centre:centre + l + 1] = p[:, 0] + 1j * p[:, 1]
    return dict(zip(_lattice_keys(l_max), coeffs.tolist()))


def sht_synthesize(coeffs: dict, grid: SphereGrid) -> SphereField:
    """Evaluate sum c_lm Z_l^m on the grid; inverse of sht_analyze on
    band-limited data. Keys are ModeIndex or (l, m) tuples."""
    x = np.asarray(grid.theta_rule.nodes)
    if not coeffs:
        return SphereField(grid, np.zeros(grid.shape, dtype=complex))
    ls, ms = [], []
    for mode in coeffs:
        if not isinstance(mode, ModeIndex):
            mode = ModeIndex(*mode)
        ls.append(mode.l)
        ms.append(mode.m)
    ls, ms = np.array(ls), np.array(ms)
    c = np.fromiter(coeffs.values(), complex, len(coeffs))
    c *= np.sqrt(ls + 0.5) * np.where((ms < 0) & (ms % 2 == 1), -1.0, 1.0)
    # Real and imaginary parts of the m >= 0 and m < 0 coefficients, shape
    # (l, |m|, 4), matching sht_analyze's channel layout.
    l_top = int(ls.max())
    a = np.zeros((l_top + 1, l_top + 1, 4))
    part = np.where(ms < 0, 2, 0)
    np.add.at(a, (ls, np.abs(ms), part), c.real)
    np.add.at(a, (ls, np.abs(ms), part + 1), c.imag)
    polar = np.zeros((l_top + 1, 4, len(x)))
    for l, t in enumerate(t_orders(l_top, x)):
        polar[:l + 1] += a[l, :l + 1, :, None] * t[:, None, :]
    # Order m lands in Fourier bin m mod n_phi; on a grid too coarse for
    # l_top, aliased orders share a bin and add, as the direct sum does.
    m = np.arange(l_top + 1)
    modes = np.zeros(grid.shape, dtype=complex)
    np.add.at(modes.T, m % grid.n_phi, polar[:, 0] + 1j * polar[:, 1])
    np.add.at(modes.T, -m % grid.n_phi, polar[:, 2] + 1j * polar[:, 3])
    return SphereField(grid, _phi_samples(modes))


def casimir_sphere_residual(l: int, m: int, grid: SphereGrid) -> float:
    """Max |(C + 5/4) Y_l^m| over the grid, with the full quadratic
    invariant realized through primed differential chains.

    Every pairing in the invariant has zero net order shift, so the phase
    factors of the primed pairs cancel and the residual field carries the
    operand's own e^{i m phi}."""
    x = np.asarray(grid.theta_rule.nodes)
    t = t_values(m, l, x)[-1]
    dt = dt_values(m, l, x)[-1]
    ddt = ddt_values(m, l, x)[-1]

    def half_anti(p, q):
        return 0.5 * (_chain(p, q, l, m, x, t, dt, ddt)
                      + _chain(q, p, l, m, x, t, dt, ddt))

    polar = (m * m * t + (l + 0.5) ** 2 * t
             + half_anti("Jp", "Jm") - half_anti("Kp", "Km")
             - 0.5 * half_anti("Rp", "Rm") - 0.5 * half_anti("Sp", "Sm")
             + 1.25 * t)
    field = np.outer(polar, np.exp(1j * m * grid.phis)) / SQRT_2PI
    return float(np.max(np.abs(field)))


def primed_element_deviation(name: str, l: int, m: int, grid: SphereGrid) -> float:
    """Max grid gap between the primed action on Y_l^m and the flat-lattice
    coefficient times the image harmonic."""
    lhs = apply_primed(name, l, m, grid).values
    coeff = element(name, l, m)
    if name in DIAGONAL_GENERATORS:
        rhs = coeff * sample_Y(l, m, grid).values
    elif coeff == 0.0:
        rhs = np.zeros_like(lhs)
    else:
        dl, dm = LADDER_SHIFTS[name]
        rhs = coeff * sample_Y(l + dl, m + dm, grid).values
    return float(np.max(np.abs(lhs - rhs)))


def standard_grid(n_theta: int, n_phi: int) -> SphereGrid:
    """Gauss-Legendre-by-equispaced grid of the given sizes."""
    return SphereGrid(gauss_legendre(n_theta), n_phi)


def orthonormal_conversion_factor(l: int) -> float:
    """Factor taking these (l + 1/2)-weighted harmonics to the common
    L2-orthonormal convention (Condon-Shortley phase included):

        Y_common(l, m) = sqrt(l + 1/2) * Y(l, m).

    The sqrt(l + 1/2) is exactly the weight absorbed by the transform
    coefficients, so sht_analyze already stores amplitudes against the
    common orthonormal functions.
    """
    return math.sqrt(l + 0.5)


def field_to_json(field: SphereField) -> dict:
    rows = [[float(v.real), float(v.imag)] for v in field.values.ravel()]
    return {
        "theta_nodes": [float(t) for t in field.grid.thetas],
        "phi_count": field.grid.n_phi,
        "values": rows,
    }


def field_from_json(data: dict) -> SphereField:
    thetas = np.asarray(data["theta_nodes"], dtype=float)
    n_phi = int(data["phi_count"])
    rule = gauss_legendre(len(thetas))
    if not np.allclose(np.cos(thetas), rule.nodes, atol=1e-12):
        raise ValueError("theta nodes are not the Gauss-Legendre grid of this size")
    raw = np.asarray(data["values"], dtype=float)
    if raw.shape != (len(thetas) * n_phi, 2):
        raise ValueError("values must hold one [re, im] pair per grid point")
    if not np.all(np.isfinite(raw)):
        raise ValueError("field values must be finite")
    vals = (raw[:, 0] + 1j * raw[:, 1]).reshape(len(thetas), n_phi)
    return SphereField(SphereGrid(rule, n_phi), vals)
