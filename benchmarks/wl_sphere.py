"""sphere-roundtrip: spherical synthesis then analysis at l_max = 128.

Each operation draws seeded complex coefficients for every (l, m) with
l <= 128, runs sht_synthesize on standard_grid(129, 257) and sht_analyze
back. The check compares the round trip with the drawn coefficients; after
the run, a seeded sample of grid values from every operation is compared
with scipy's spherical harmonics, so a transform pair that is consistent
but wrong still fails.
"""

from __future__ import annotations

import math
import time

import numpy as np

import harness
from harness import Check, Op
from tracer import SWEEP_DEGREES

NAME = "sphere-roundtrip"
IN_PROCESS = True
L_MAX = 128
N_THETA, N_PHI = L_MAX + 1, 2 * L_MAX + 1
ORACLE_POINTS = 4
TOL = 1e-10
ERROR_CYCLES = 12
TRACE_CYCLES = 3
SIZES = {"l_max": L_MAX, "grid": [N_THETA, N_PHI], "modes": (L_MAX + 1) ** 2,
         "oracle_points_per_op": ORACLE_POINTS, "error_ops": ERROR_CYCLES,
         "trace_ops": TRACE_CYCLES}


class State:
    def __init__(self, seed, grid, keys):
        self.seed = seed
        self.grid = grid
        self.keys = keys
        self.checked = []


def setup(seed: int) -> State:
    from legladder.modes import ModeIndex
    from legladder.sphere import standard_grid

    grid = standard_grid(N_THETA, N_PHI)
    keys = [ModeIndex(l, m) for l in range(L_MAX + 1) for m in range(-l, l + 1)]
    return State(seed, grid, keys)


def setup_sample(seed: int) -> float:
    return harness.probe_setup_in_child(NAME, seed)


def draw(seed: int, k: int, n: int) -> np.ndarray:
    rng = np.random.default_rng([seed, k])
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def roundtrip_error(keys, coeffs: np.ndarray, back: dict) -> float:
    if len(back) != len(keys):
        return math.inf
    got = np.array([back[key] for key in keys])
    return float(np.max(np.abs(got - coeffs)))


class RoundTrip(Op):
    kind = "roundtrip"

    def __init__(self, state: State, k: int):
        self.state, self.k = state, k
        self.c = draw(state.seed, k, len(state.keys))
        self.coeffs = dict(zip(state.keys, self.c.tolist()))
        rng = np.random.default_rng([state.seed, k, 1])
        self.points = (rng.integers(0, N_THETA, ORACLE_POINTS),
                       rng.integers(0, N_PHI, ORACLE_POINTS))

    def run(self):
        from legladder import sphere

        field = sphere.sht_synthesize(self.coeffs, self.state.grid)
        return field, sphere.sht_analyze(field, L_MAX)

    def check(self, result) -> Check:
        field, back = result
        self.samples = field.values[self.points]
        self.state.checked.append(self)
        err = roundtrip_error(self.state.keys, self.c, back)
        self.c = self.coeffs = None
        return Check(err <= TOL, err, f"round-trip error {err:.3e}")


def cycle(state: State, k: int) -> list:
    return [RoundTrip(state, k)]


def oracle_deviation(coeffs: np.ndarray, theta, phi, values) -> float:
    """Largest gap between field samples and sum c_lm Y_lm with scipy's
    orthonormal harmonics, relative to the size of the sum's terms.

    sht_* coefficients multiply Z_l^m = orthonormal_conversion_factor(l)
    * Y_l^m, which is scipy's orthonormal Y_l^m (Condon-Shortley phase
    included)."""
    from scipy.special import sph_harm_y

    ls = np.repeat(np.arange(L_MAX + 1), 2 * np.arange(L_MAX + 1) + 1)
    ms = np.concatenate([np.arange(-l, l + 1) for l in range(L_MAX + 1)])
    basis = sph_harm_y(ls[:, None], ms[:, None], theta[None, :], phi[None, :])
    terms = coeffs[:, None] * basis
    ref = terms.sum(axis=0)
    scale = 1.0 + np.abs(terms).sum(axis=0)
    return float(np.max(np.abs(values - ref) / scale))


def finish(state: State, tally) -> None:
    """Oracle check of every operation's sampled grid values; runs after the
    measured interval (scipy is imported only here)."""
    thetas, phis = state.grid.thetas, state.grid.phis
    for op in state.checked:
        ti, pj = op.points
        dev = oracle_deviation(draw(state.seed, op.k, len(state.keys)), thetas[ti], phis[pj],
                               op.samples)
        if not dev <= TOL:
            tally.fail_later(op.index, f"oracle deviation {dev:.3e}")
    state.checked = []


def close(state: State) -> None:
    pass


def degree_sweep(seed: int, tally) -> dict:
    """Round-trip time and error against l_max (ROADMAP's accuracy curve).

    Runs in the traced run of this workload only, before any span wrapper
    is installed. Degrees up to 64 report the median of three round trips;
    larger ones a single round trip.
    """
    from legladder.modes import ModeIndex
    from legladder.sphere import sht_analyze, sht_synthesize, standard_grid

    out = {}
    for degree in SWEEP_DEGREES:
        grid = standard_grid(degree + 1, 2 * degree + 1)
        keys = [ModeIndex(l, m) for l in range(degree + 1) for m in range(-l, l + 1)]
        times, err = [], 0.0
        for rep in range(3 if degree <= 64 else 1):
            c = draw(seed, 1_000_000 + 10 * degree + rep, len(keys))
            t0 = time.perf_counter()
            back = sht_analyze(sht_synthesize(dict(zip(keys, c.tolist())), grid), degree)
            times.append(time.perf_counter() - t0)
            e = roundtrip_error(keys, c, back)
            err = max(err, e)
            tally.record(f"sweep-L{degree}", times[-1], Check(e <= TOL, what=f"error {e:.3e}"))
        out[f"sphere.roundtrip_s.L{degree}"] = float(np.median(times))
        out[f"sphere.roundtrip_err.L{degree}"] = err
    return out
