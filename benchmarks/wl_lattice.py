"""lattice-algebra: exact sparse operators at l_max = 64 (4,225 modes).

One cycle, in a seeded order, holds
  - each of the five Casimir invariants once,
  - generator(name).apply on a seeded full vector, once per generator,
  - COMMUTATORS_PER_CYCLE commutators from verify.COMMUTATOR_TABLE,
  - GENERATES_PER_CYCLE generate_mode calls for seeded (l, m).
Commutator pairs are dealt from seeded permutations of the whole table,
so the first ERROR_CYCLES cycles, over which max_error is taken, cover
every row once whatever rows the seed put first.

The cycle holds 35 operations. Its slowest is so32; the four other
Casimirs take within about 10 % of one another and hold positions 2-5
from the top, so p90 (position 3.5 of 35) falls inside that cluster, away
from its edges, not at the tail of one operation's samples.
"""

from __future__ import annotations

import numpy as np

import harness
import refs
from harness import Check, Op

NAME = "lattice-algebra"
IN_PROCESS = True
L_MAX = 64
COMMUTATORS_PER_CYCLE = 8
GENERATES_PER_CYCLE = 10
ERROR_CYCLES = 6          # 48 commutators: the whole 47-row table
TRACE_CYCLES = 1
SIZES = {"l_max": L_MAX, "modes": (L_MAX + 1) ** 2,
         "cycle": {"casimir": len(refs.CASIMIRS), "apply": len(refs.GENERATORS),
                   "commutator": COMMUTATORS_PER_CYCLE, "generate_mode": GENERATES_PER_CYCLE},
         "error_cycles": ERROR_CYCLES, "trace_cycles": TRACE_CYCLES}


class State:
    def __init__(self, seed, trunc, keys, table):
        self.seed = seed
        self.trunc = trunc
        self.keys = keys
        self.table = table
        self._perms = {}

    def table_row(self, position: int):
        """Row at a global position of the dealt sequence of table rows."""
        n = len(self.table)
        rnd, i = divmod(position, n)
        if rnd not in self._perms:
            self._perms[rnd] = np.random.default_rng([self.seed, 1, rnd]).permutation(n)
        return self.table[self._perms[rnd][i]]


def setup(seed: int) -> State:
    from legladder.modes import Truncation, lattice
    from legladder.verify import COMMUTATOR_TABLE

    trunc = Truncation(L_MAX)
    return State(seed, trunc, lattice(trunc), COMMUTATOR_TABLE)


def setup_sample(seed: int) -> float:
    return harness.probe_setup_in_child(NAME, seed)


class CasimirOp(Op):
    kind = "casimir"

    def __init__(self, state, which):
        self.state, self.which = state, which

    def run(self):
        from legladder import algebra
        return algebra.casimir(self.which, self.state.trunc)

    def check(self, op) -> Check:
        return refs.check_casimir(self.which, op, L_MAX)


class CommutatorOp(Op):
    kind = "commutator"

    def __init__(self, state, row):
        self.state = state
        self.a, self.b, self.factor, self.rhs = row

    def run(self):
        from legladder import algebra
        trunc = self.state.trunc
        return algebra.commutator(algebra.generator(self.a, trunc),
                                  algebra.generator(self.b, trunc))

    def check(self, op) -> Check:
        return refs.check_commutator(self.a, self.b, self.factor, self.rhs, op, L_MAX)


class ApplyOp(Op):
    kind = "apply"

    def __init__(self, state, name, amplitudes):
        from legladder.modes import CoeffVector

        self.state, self.name = state, name
        self.amps = {(k.l, k.m): a for k, a in zip(state.keys, amplitudes)}
        self.vec = CoeffVector(dict(zip(state.keys, amplitudes)), state.trunc)

    def run(self):
        from legladder import algebra
        return algebra.generator(self.name, self.state.trunc).apply(self.vec)

    def check(self, vec) -> Check:
        entries = {(k.l, k.m): v for k, v in vec.items()}
        return refs.check_applied(self.name, self.amps, L_MAX, entries, vec.overflow)


class GenerateOp(Op):
    kind = "generate_mode"

    def __init__(self, state, l, m):
        self.state, self.l, self.m = state, l, m

    def run(self):
        from legladder import algebra
        return algebra.generate_mode(self.l, self.m, self.state.trunc)

    def check(self, vec) -> Check:
        return refs.check_unit({(k.l, k.m): v for k, v in vec.items()}, self.l, self.m)


def cycle(state: State, k: int) -> list:
    rng = np.random.default_rng([state.seed, 0, k])
    ops = [CasimirOp(state, which) for which in refs.CASIMIRS]
    ops += [ApplyOp(state, name, rng.standard_normal(len(state.keys)).tolist())
            for name in refs.GENERATORS]
    ops += [CommutatorOp(state, state.table_row(k * COMMUTATORS_PER_CYCLE + j))
            for j in range(COMMUTATORS_PER_CYCLE)]
    for _ in range(GENERATES_PER_CYCLE):
        l = int(rng.integers(0, L_MAX + 1))
        ops.append(GenerateOp(state, l, int(rng.integers(-l, l + 1))))
    return [ops[i] for i in rng.permutation(len(ops))]


def finish(state: State, tally) -> None:
    pass


def close(state: State) -> None:
    pass
