"""Closed-form references that the output checks compare against.

They are computed here from the formulas, not by legladder: ladder
coefficients are square roots of exact integer products, the diagonal
generators and the Casimir eigenvalues are stated in closed form. A wrong
operator therefore cannot agree with itself and pass.
"""

from __future__ import annotations

import math

from harness import Check

# name: (dl, dm, integer under the square root of the coefficient on (l, m))
LADDER = {
    "Jp": (0, 1, lambda l, m: (l - m) * (l + m + 1)),
    "Jm": (0, -1, lambda l, m: (l + m) * (l - m + 1)),
    "Kp": (1, 0, lambda l, m: (l - m + 1) * (l + m + 1)),
    "Km": (-1, 0, lambda l, m: (l + m) * (l - m)),
    "Rp": (1, 1, lambda l, m: (l + m + 2) * (l + m + 1)),
    "Rm": (-1, -1, lambda l, m: (l + m) * (l + m - 1)),
    "Sp": (1, -1, lambda l, m: (l - m + 2) * (l - m + 1)),
    "Sm": (-1, 1, lambda l, m: (l - m) * (l - m - 1)),
}
DIAGONAL = {
    "J3": lambda l, m: float(m),
    "K3": lambda l, m: l + 0.5,
    "R3": lambda l, m: l + m + 0.5,
    "S3": lambda l, m: l - m + 0.5,
}
GENERATORS = tuple(LADDER) + tuple(DIAGONAL)
EIGENVALUE = {
    "so21_K": lambda l, m: m * m - 0.25,
    "so3_J": lambda l, m: float(l * (l + 1)),
    "so21_R": lambda l, m: -3.0 / 16.0,
    "so21_S": lambda l, m: -3.0 / 16.0,
    "so32": lambda l, m: -1.25,
}
CASIMIRS = tuple(EIGENVALUE)
# so3_J is built from Jp, Jm, J3 alone; every other invariant contains a
# degree-raising factor, which is exact only below the top degree.
CASIMIR_WINDOW_DROP = {name: (0 if name == "so3_J" else 1) for name in CASIMIRS}

TOL_OPERATOR = 1e-10
TOL_UNIT = 1e-10
TOL_APPLY = 1e-12


def modes(l_max: int):
    return [(l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]


def action(name: str, l: int, m: int):
    """Image of the unit mode (l, m): ((l', m'), coefficient), or None when
    the coefficient vanishes."""
    if name in DIAGONAL:
        value = DIAGONAL[name](l, m)
        return ((l, m), value) if value != 0.0 else None
    dl, dm, product = LADDER[name]
    p = product(l, m)
    return ((l + dl, m + dm), math.sqrt(p)) if p else None


def apply_reference(name: str, amps: dict, l_max: int):
    """Expected entries and overflow flag of generator `name` applied to
    the vector {(l, m): amplitude} in the window l <= l_max."""
    out, overflow = {}, False
    for (l, m), amp in amps.items():
        image = action(name, l, m)
        if image is None:
            continue
        (lt, mt), c = image
        if lt > l_max:
            overflow = True
            continue
        out[(lt, mt)] = out.get((lt, mt), 0.0) + c * amp
    return out, overflow


def max_gap(got: dict, want: dict, relative: bool = False) -> float:
    gap = 0.0
    for key in set(got) | set(want):
        w = want.get(key, 0.0)
        d = abs(got.get(key, 0.0) - w)
        gap = max(gap, d / max(1.0, abs(w)) if relative else d)
    return gap


def columns(op) -> dict:
    """A SparseOperator's columns with plain (l, m) tuple keys."""
    return {(s.l, s.m): {(d.l, d.m): v for d, v in col.items()}
            for s, col in op.columns.items()}


def check_casimir(which: str, op, l_max: int) -> Check:
    """Diagonal with the stated eigenvalue on the operator's recorded
    window, and that window no smaller than the algebra allows."""
    window = op.valid_l_max
    if window < l_max - CASIMIR_WINDOW_DROP[which]:
        return Check(False, what=f"{which}: window l <= {window} is too small")
    cols = columns(op)
    eig = EIGENVALUE[which]
    dev = 0.0
    for l, m in modes(window):
        col = cols.get((l, m), {})
        want = {(l, m): eig(l, m)}
        dev = max(dev, max_gap(col, want))
    return Check(dev <= TOL_OPERATOR, dev, f"{which}: deviation {dev:.3e}")


def check_commutator(a: str, b: str, factor: float, rhs, op, l_max: int) -> Check:
    """[a, b] equals factor * rhs on the recorded window (l_max - 2 at
    least: each factor may raise the degree once)."""
    window = op.valid_l_max
    if window < l_max - 2:
        return Check(False, what=f"[{a},{b}]: window l <= {window} is too small")
    cols = columns(op)
    dev = 0.0
    for l, m in modes(window):
        want = {}
        image = action(rhs, l, m) if rhs else None
        if image is not None:
            want[image[0]] = factor * image[1]
        dev = max(dev, max_gap(cols.get((l, m), {}), want))
    return Check(dev <= TOL_OPERATOR, dev, f"[{a},{b}]: deviation {dev:.3e}")


def check_applied(name: str, amps: dict, l_max: int, entries: dict, overflow: bool) -> Check:
    """Applied entries against the closed form, and the overflow flag set
    exactly when amplitude left the window."""
    want, want_overflow = apply_reference(name, amps, l_max)
    if bool(overflow) != want_overflow:
        return Check(False, what=f"{name}: overflow flag {overflow}, expected {want_overflow}")
    dev = max_gap(entries, want, relative=True)
    return Check(dev <= TOL_APPLY, what=f"{name}: relative deviation {dev:.3e}")


def check_unit(entries: dict, l: int, m: int) -> Check:
    """Euclidean distance of a vector from the unit mode (l, m)."""
    dev = math.sqrt(sum(abs(v - (1.0 if key == (l, m) else 0.0)) ** 2
                        for key, v in entries.items())
                    + (1.0 if (l, m) not in entries else 0.0))
    return Check(dev <= TOL_UNIT, dev, f"generate ({l}, {m}): deviation {dev:.3e}")
