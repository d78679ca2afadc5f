"""The twelve generators as exact sparse operators on coefficient vectors.

Ladder actions on the unit modes (coefficients are square roots of exact
integer products, so every nonzero element is computed to full precision):

    Jp: (l, m) -> (l,   m+1)   sqrt((l-m)(l+m+1))
    Jm: (l, m) -> (l,   m-1)   sqrt((l+m)(l-m+1))
    Kp: (l, m) -> (l+1, m  )   sqrt((l-m+1)(l+m+1))
    Km: (l, m) -> (l-1, m  )   sqrt((l+m)(l-m))
    Rp: (l, m) -> (l+1, m+1)   sqrt((l+m+2)(l+m+1))
    Rm: (l, m) -> (l-1, m-1)   sqrt((l+m)(l+m-1))
    Sp: (l, m) -> (l+1, m-1)   sqrt((l-m+2)(l-m+1))
    Sm: (l, m) -> (l-1, m+1)   sqrt((l-m)(l-m-1))

    J3: m    K3: l + 1/2    R3: l + m + 1/2    S3: l - m + 1/2  (diagonal)

A coefficient vanishes exactly when the image would leave the admissible
cone, so ladder operators annihilate cleanly at the cone edge. At the top
of a truncation window a raising operator instead produces a flagged zero:
the affected source modes are recorded and apply() raises the overflow
flag on the result rather than silently dropping amplitude.
"""

from __future__ import annotations

import math

import numpy as np

from .modes import CoeffVector, ModeIndex, Truncation, is_admissible, lattice

LADDER_SHIFTS = {
    "Jp": (0, 1), "Jm": (0, -1),
    "Kp": (1, 0), "Km": (-1, 0),
    "Rp": (1, 1), "Rm": (-1, -1),
    "Sp": (1, -1), "Sm": (-1, 1),
}
DIAGONAL_GENERATORS = ("J3", "K3", "R3", "S3")
GENERATORS = tuple(LADDER_SHIFTS) + DIAGONAL_GENERATORS

CASIMIRS = ("so21_K", "so3_J", "so21_R", "so21_S", "so32")


def ladder_product(name: str, l: int, m: int) -> int:
    """The exact integer under the square root of a ladder coefficient."""
    if name == "Jp":
        return (l - m) * (l + m + 1)
    if name == "Jm":
        return (l + m) * (l - m + 1)
    if name == "Kp":
        return (l - m + 1) * (l + m + 1)
    if name == "Km":
        return (l + m) * (l - m)
    if name == "Rp":
        return (l + m + 2) * (l + m + 1)
    if name == "Rm":
        return (l + m) * (l + m - 1)
    if name == "Sp":
        return (l - m + 2) * (l - m + 1)
    if name == "Sm":
        return (l - m) * (l - m - 1)
    raise ValueError(f"unknown ladder generator {name!r}")


def diagonal_value(name: str, l: int, m: int) -> float:
    if name == "J3":
        return float(m)
    if name == "K3":
        return l + 0.5
    if name == "R3":
        return l + m + 0.5
    if name == "S3":
        return l - m + 0.5
    raise ValueError(f"unknown diagonal generator {name!r}")


def element(name: str, l: int, m: int) -> float:
    """Matrix element of a generator on the unit mode (l, m)."""
    if not is_admissible(l, m):
        raise ValueError(f"inadmissible (l, m) = ({l}, {m})")
    if name in DIAGONAL_GENERATORS:
        return diagonal_value(name, l, m)
    return math.sqrt(ladder_product(name, l, m))


class SparseOperator:
    """Exact sparse linear operator on coefficient vectors.

    columns maps each source mode to its image {target: coefficient}.
    overflow_sources lists modes whose exact image leaves the truncation
    window, so the stored action there is a flagged zero. shifts collects
    the (dl, dm) lattice displacements present. Instances are value-like;
    compose/add return fresh operators.
    """

    __slots__ = ("trunc", "columns", "overflow_sources", "shifts")

    def __init__(self, trunc: Truncation, columns: dict,
                 overflow_sources=frozenset(), shifts=frozenset()):
        self.trunc = trunc
        self.columns = columns
        self.overflow_sources = frozenset(overflow_sources)
        self.shifts = frozenset(shifts)

    @property
    def valid_l_max(self) -> int:
        """Largest l such that the stored action is exact on every mode
        with degree <= that l."""
        if not self.overflow_sources:
            return self.trunc.l_max
        return min(src.l for src in self.overflow_sources) - 1

    @classmethod
    def zero(cls, trunc: Truncation) -> "SparseOperator":
        return cls(trunc, {})

    @classmethod
    def identity(cls, trunc: Truncation) -> "SparseOperator":
        cols = {mode: {mode: 1.0} for mode in lattice(trunc)}
        return cls(trunc, cols, shifts={(0, 0)})

    def _check_trunc(self, other):
        if self.trunc != other.trunc:
            raise ValueError("operators live in different truncation windows")

    def apply(self, vec: CoeffVector) -> CoeffVector:
        if vec.trunc != self.trunc:
            raise ValueError("truncation mismatch between operator and vector")
        out: dict = {}
        overflow = vec.overflow
        for src, amp in vec.entries.items():
            if src in self.overflow_sources:
                overflow = True
            for dst, c in self.columns.get(src, {}).items():
                out[dst] = out.get(dst, 0.0) + c * amp
        return CoeffVector(out, self.trunc, overflow=overflow)

    def compose(self, other: "SparseOperator") -> "SparseOperator":
        """self acting after other."""
        self._check_trunc(other)
        cols: dict = {}
        overflow = set(other.overflow_sources)
        for src, mids in other.columns.items():
            acc: dict = {}
            for mid, beta in mids.items():
                if mid in self.overflow_sources:
                    overflow.add(src)
                for dst, alpha in self.columns.get(mid, {}).items():
                    acc[dst] = acc.get(dst, 0.0) + alpha * beta
            acc = {k: v for k, v in acc.items() if v != 0.0}
            if acc:
                cols[src] = acc
        shifts = {(a[0] + b[0], a[1] + b[1]) for a in self.shifts for b in other.shifts}
        return SparseOperator(self.trunc, cols, overflow, shifts)

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        self._check_trunc(other)
        cols = {src: dict(col) for src, col in self.columns.items()}
        for src, col in other.columns.items():
            acc = cols.setdefault(src, {})
            for dst, c in col.items():
                acc[dst] = acc.get(dst, 0.0) + c
        cols = {src: {k: v for k, v in col.items() if v != 0.0}
                for src, col in cols.items()}
        cols = {src: col for src, col in cols.items() if col}
        return SparseOperator(self.trunc, cols,
                              self.overflow_sources | other.overflow_sources,
                              self.shifts | other.shifts)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def scaled(self, factor) -> "SparseOperator":
        if factor == 0:
            return SparseOperator.zero(self.trunc)
        cols = {src: {dst: factor * c for dst, c in col.items()}
                for src, col in self.columns.items()}
        return SparseOperator(self.trunc, cols, self.overflow_sources, self.shifts)

    def __mul__(self, factor):
        return self.scaled(factor)

    __rmul__ = __mul__

    def __neg__(self):
        return self.scaled(-1.0)

    def to_matrix(self) -> np.ndarray:
        """Dense matrix in the canonical lattice order (targets are rows)."""
        order = lattice(self.trunc)
        index = {mode: i for i, mode in enumerate(order)}
        mat = np.zeros((len(order), len(order)))
        for src, col in self.columns.items():
            for dst, c in col.items():
                mat[index[dst], index[src]] = c
        return mat

    def __repr__(self):
        return (f"SparseOperator(l_max={self.trunc.l_max}, "
                f"{sum(len(c) for c in self.columns.values())} entries, "
                f"valid l<={self.valid_l_max})")


def generator(name: str, trunc: Truncation) -> SparseOperator:
    """One of the twelve generators restricted to a truncation window."""
    if name in DIAGONAL_GENERATORS:
        cols = {}
        for mode in lattice(trunc):
            val = diagonal_value(name, mode.l, mode.m)
            if val != 0.0:
                cols[mode] = {mode: val}
        return SparseOperator(trunc, cols, shifts={(0, 0)})
    if name not in LADDER_SHIFTS:
        raise ValueError(f"unknown generator {name!r}")
    dl, dm = LADDER_SHIFTS[name]
    cols = {}
    overflow = set()
    for mode in lattice(trunc):
        prod = ladder_product(name, mode.l, mode.m)
        if prod == 0:
            continue
        lt, mt = mode.l + dl, mode.m + dm
        if lt > trunc.l_max:
            overflow.add(mode)
            continue
        cols[mode] = {ModeIndex(lt, mt): math.sqrt(prod)}
    return SparseOperator(trunc, cols, overflow, shifts={(dl, dm)})


def apply(op: SparseOperator, vec: CoeffVector) -> CoeffVector:
    return op.apply(vec)


def commutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """a b - b a; exact on modes up to the recorded validity window."""
    return a.compose(b) - b.compose(a)


def anticommutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    return a.compose(b) + b.compose(a)


def casimir(which: str, trunc: Truncation) -> SparseOperator:
    """Quadratic invariant of one of the subalgebras, or of the full
    algebra.

    so21_K : K3^2 - (1/2){Kp, Km}            eigenvalue m^2 - 1/4
    so3_J  : J3^2 + (1/2){Jp, Jm}            eigenvalue l(l+1)
    so21_R : (1/4)(R3^2 - (1/2){Rp, Rm})     eigenvalue -3/16
    so21_S : (1/4)(S3^2 - (1/2){Sp, Sm})     eigenvalue -3/16
    so32   : J3^2 + K3^2 + (1/2){Jp, Jm} - (1/2){Kp, Km}
             - (1/4){Rp, Rm} - (1/4){Sp, Sm}  eigenvalue -5/4

    The R and S invariants carry the 1/4 rescaling that brings their
    subalgebras to the standard so(2,1) commutator normalization.
    """
    g = {name: generator(name, trunc) for name in GENERATORS}
    if which == "so21_K":
        return g["K3"] @ g["K3"] - 0.5 * anticommutator(g["Kp"], g["Km"])
    if which == "so3_J":
        return g["J3"] @ g["J3"] + 0.5 * anticommutator(g["Jp"], g["Jm"])
    if which == "so21_R":
        return 0.25 * (g["R3"] @ g["R3"] - 0.5 * anticommutator(g["Rp"], g["Rm"]))
    if which == "so21_S":
        return 0.25 * (g["S3"] @ g["S3"] - 0.5 * anticommutator(g["Sp"], g["Sm"]))
    if which == "so32":
        return (g["J3"] @ g["J3"] + g["K3"] @ g["K3"]
                + 0.5 * anticommutator(g["Jp"], g["Jm"])
                - 0.5 * anticommutator(g["Kp"], g["Km"])
                - 0.25 * anticommutator(g["Rp"], g["Rm"])
                - 0.25 * anticommutator(g["Sp"], g["Sm"]))
    raise ValueError(f"unknown casimir {which!r}")


def casimir_eigenvalue(which: str, l: int, m: int) -> float:
    """The eigenvalue the named invariant takes on mode (l, m)."""
    if which == "so21_K":
        return m * m - 0.25
    if which == "so3_J":
        return float(l * (l + 1))
    if which in ("so21_R", "so21_S"):
        return -3.0 / 16.0
    if which == "so32":
        return -1.25
    raise ValueError(f"unknown casimir {which!r}")


def operator_deviation(a: SparseOperator, b: SparseOperator,
                       l_limit: int | None = None) -> float:
    """Largest entrywise |a - b| over source modes with l <= l_limit."""
    if a.trunc != b.trunc:
        raise ValueError("operators live in different truncation windows")
    limit = a.trunc.l_max if l_limit is None else l_limit
    dev = 0.0
    for mode in lattice(a.trunc):
        if mode.l > limit:
            continue
        ca = a.columns.get(mode, {})
        cb = b.columns.get(mode, {})
        for dst in set(ca) | set(cb):
            dev = max(dev, abs(ca.get(dst, 0.0) - cb.get(dst, 0.0)))
    return dev


def generate_mode(l: int, m: int, trunc: Truncation) -> CoeffVector:
    """Reach the unit mode (l, m) from the lowest weight (0, 0):

        (1/l!) sqrt((l-|m|)!/(l+|m|)!) (J+-)^|m| (Kp)^l  on unit(0, 0),

    with J+ for m > 0 and J- for m < 0. The prefactor is accumulated in
    log space together with per-step renormalizations, so no factorial or
    large intermediate amplitude is ever formed.
    """
    if not is_admissible(l, m):
        raise ValueError(f"inadmissible (l, m) = ({l}, {m})")
    if l > trunc.l_max:
        raise ValueError(f"target degree {l} exceeds window l_max={trunc.l_max}")
    vec = CoeffVector.unit(0, 0, trunc)
    log_scale = 0.0
    kp = generator("Kp", trunc)
    jstep = generator("Jp" if m >= 0 else "Jm", trunc)
    for op, count in ((kp, l), (jstep, abs(m))):
        for _ in range(count):
            vec = op.apply(vec)
            peak = vec.max_abs()
            vec = vec.scaled(1.0 / peak)
            log_scale += math.log(peak)
    log_pref = -math.lgamma(l + 1) + 0.5 * (math.lgamma(l - abs(m) + 1)
                                            - math.lgamma(l + abs(m) + 1))
    return vec.scaled(math.exp(log_pref + log_scale))


def spectrum(name: str, trunc: Truncation, *, l: int | None = None,
             m: int | None = None, parity: str | None = None) -> list[float]:
    """Sorted distinct eigenvalues of a diagonal generator over the lattice
    modes matching the constraint (fixed l, fixed m, or l+m parity)."""
    if name not in DIAGONAL_GENERATORS:
        raise ValueError(f"{name!r} is not diagonal; spectrum is undefined")
    if parity not in (None, "even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    values = set()
    for mode in lattice(trunc):
        if l is not None and mode.l != l:
            continue
        if m is not None and mode.m != m:
            continue
        if parity is not None and (mode.l + mode.m) % 2 != (0 if parity == "even" else 1):
            continue
        values.add(diagonal_value(name, mode.l, mode.m))
    return sorted(values)
