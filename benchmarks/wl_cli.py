"""cli-verify: one `python -m legladder.cli` child process per operation.

One cycle runs, in this order,
  verify --suite all --lmax 12 --report FILE
  sht analyze --lmax 64 on a generated 65 x 129 field file, then
  sht synthesize back onto the same grid
  transform analyze --lmax 100 on a generated 128-node channel grid, then
  transform synthesize back onto 128 nodes
  apply --op NAME on a full l_max = 32 coefficient file
  eval --l L --m M --x X
with every input drawn from the seed. Operation time is the wall time the
parent observes from spawning the child to reaping it.

In a traced run the children are started through launcher.py, which
records spans inside each child.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from collections import Counter

import numpy as np

import harness
import refs
from harness import BENCH_DIR, Check, Op

NAME = "cli-verify"
IN_PROCESS = False
VERIFY_LMAX = 12
SHT_LMAX, SHT_GRID = 64, (65, 129)
TRANSFORM_LMAX, TRANSFORM_NODES, TRANSFORM_M = 100, 128, 64
APPLY_LMAX = 32
EVAL_LMAX = 40
TOL = 1e-10
ERROR_CYCLES = 4
TRACE_CYCLES = 1
SIZES = {"verify": {"l_max": VERIFY_LMAX, "nodes": 32},
         "sht": {"l_max": SHT_LMAX, "grid": list(SHT_GRID)},
         "transform": {"l_max": TRANSFORM_LMAX, "nodes": TRANSFORM_NODES, "max_abs_m": TRANSFORM_M},
         "apply": {"l_max": APPLY_LMAX, "modes": (APPLY_LMAX + 1) ** 2},
         "eval": {"max_l": EVAL_LMAX},
         "error_cycles": ERROR_CYCLES, "trace_cycles": TRACE_CYCLES}


class State:
    def __init__(self, seed, work, grid, rule):
        self.seed = seed
        self.work = work
        self.grid = grid
        self.rule = rule
        self.traced = False
        self.reference_report = None
        self.peak_rss_mb = 0.0
        self.children = []       # (op, wall seconds, trace file or None)


def setup(seed: int) -> State:
    from legladder.alp import gauss_legendre
    from legladder.sphere import standard_grid

    work = harness.OUT / f"work-{NAME}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return State(seed, work, standard_grid(*SHT_GRID), gauss_legendre(TRANSFORM_NODES))


def setup_sample(seed: int) -> float:
    """Wall time, seen from the parent, of a fresh interpreter importing
    legladder: the floor every CLI invocation pays."""
    code, wall, _ = harness.run_child([sys.executable, "-c", "import legladder"])
    if code != 0:
        raise RuntimeError(f"importing legladder exited with {code}")
    return wall


class CliOp(Op):
    """One CLI child. check_output(self) judges its files once it exited 0."""

    def __init__(self, state, kind, tag, args, check_output, inputs=(), outputs=()):
        self.state, self.kind, self.tag = state, kind, tag
        self.args = [str(a) for a in args]
        self.check_output = check_output
        self.inputs, self.outputs = list(inputs), list(outputs)
        self.stdout = state.work / f"{tag}.stdout"
        self.stderr = state.work / f"{tag}.stderr"

    def run(self):
        state = self.state
        if state.traced:
            trace = state.work / f"{self.tag}.trace.json"
            cmd = [sys.executable, str(BENCH_DIR / "launcher.py"), str(trace), *self.args]
        else:
            trace = None
            cmd = [sys.executable, "-m", "legladder.cli", *self.args]
        code, wall, rss = harness.run_child(cmd, self.stdout, self.stderr)
        state.peak_rss_mb = max(state.peak_rss_mb, rss)
        state.children.append((self, wall, trace))
        return code

    def check(self, code) -> Check:
        if code != 0:
            tail = self.stderr.read_text(errors="replace").strip().splitlines()[-1:]
            return Check(False, what=f"exit code {code}: {' '.join(tail)}")
        return self.check_output(self)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


# ------------------------------------------------------------ output checks

def check_verify_report(state: State, text: bytes) -> Check:
    """The report passes and is byte-identical to the run's first one."""
    if json.loads(text).get("pass") is not True:
        return Check(False, what="verify report does not pass")
    if state.reference_report is None:
        state.reference_report = text
    elif text != state.reference_report:
        return Check(False, what="verify report differs from the run's first report")
    return Check(True)


def check_coefficients(entries: list, coeffs: dict, l_max: int, got_l_max) -> Check:
    """sht analyze output against the coefficients the field was built from."""
    if got_l_max != l_max or len(entries) != len(coeffs):
        return Check(False, what="coefficient file has the wrong window or size")
    err = max(abs(complex(r["re"], r.get("im", 0.0)) - coeffs[(r["l"], r["m"])])
              for r in entries)
    return Check(err <= TOL, err, f"sht round-trip error {err:.3e}")


def check_samples(got: np.ndarray, want: np.ndarray, what: str) -> Check:
    """Grid values after a round trip, relative to the field's size."""
    if got.shape != want.shape:
        return Check(False, what=f"{what}: shape {got.shape}, expected {want.shape}")
    err = float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))
    return Check(err <= TOL, err, f"{what} error {err:.3e}")


def check_spectrum(data: dict, m: int, coeffs: dict) -> Check:
    if data.get("m") != m or data.get("l_max") != TRANSFORM_LMAX:
        return Check(False, what="spectrum file has the wrong channel or window")
    got = {row["l"]: row["c"] for row in data["coeffs"]}
    if set(got) != set(coeffs):
        return Check(False, what="spectrum file has the wrong degrees")
    err = max(abs(got[l] - c) for l, c in coeffs.items())
    return Check(err <= TOL, err, f"transform round-trip error {err:.3e}")


def check_apply_output(name: str, amps: dict, data: dict) -> Check:
    entries = {(r["l"], r["m"]): r["re"] for r in data["entries"]}
    return refs.check_applied(name, amps, APPLY_LMAX, entries, data["overflow"])


def eval_reference(l: int, m: int, x: float) -> float:
    """T_l^m(x) from scipy's orthonormal harmonic at phi = 0:
    Y_l^m(theta, 0) = sqrt(l + 1/2) T_l^m(cos theta) / sqrt(2 pi)."""
    from scipy.special import sph_harm_y

    y = sph_harm_y(l, m, math.acos(x), 0.0).real
    return y * math.sqrt(2.0 * math.pi) / math.sqrt(l + 0.5)


def check_eval(text: str, l: int, m: int, x: float) -> Check:
    want = eval_reference(l, m, x)
    err = abs(float(text.strip()) - want) / max(1.0, abs(want))
    return Check(err <= TOL, what=f"eval ({l}, {m}, {x!r}): deviation {err:.3e}")


# ------------------------------------------------------------ the cycle

def cycle(state: State, k: int) -> list:
    from legladder import sphere, transforms

    rng = np.random.default_rng([state.seed, 2, k])
    w = state.work
    ops = []

    report = w / f"c{k}-verify.json"
    ops.append(CliOp(state, "verify", f"c{k}-verify",
                     ["verify", "--suite", "all", "--lmax", VERIFY_LMAX, "--report", report],
                     lambda op: check_verify_report(state, report.read_bytes()),
                     outputs=[report]))

    keys = [(l, m) for l in range(SHT_LMAX + 1) for m in range(-l, l + 1)]
    c = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    coeffs = dict(zip(keys, c.tolist()))
    field = sphere.sht_synthesize(coeffs, state.grid)
    field_in, coef_out, field_out = (w / f"c{k}-{s}.json" for s in ("field", "coef", "field2"))
    field_in.write_text(json.dumps(sphere.field_to_json(field)))
    ops.append(CliOp(state, "sht-analyze", f"c{k}-sht-analyze",
                     ["sht", "analyze", "--lmax", SHT_LMAX, "--in", field_in, "--out", coef_out],
                     lambda op: _check_coef_file(coef_out, coeffs),
                     inputs=[field_in], outputs=[coef_out]))
    ops.append(CliOp(state, "sht-synthesize", f"c{k}-sht-synthesize",
                     ["sht", "synthesize", "--ntheta", SHT_GRID[0], "--nphi", SHT_GRID[1],
                      "--in", coef_out, "--out", field_out],
                     lambda op: _check_field_file(field_out, field.values),
                     inputs=[coef_out], outputs=[field_out]))

    m = int(rng.integers(-TRANSFORM_M, TRANSFORM_M + 1))
    spec = {l: float(v) for l, v in zip(range(abs(m), TRANSFORM_LMAX + 1),
                                        rng.standard_normal(TRANSFORM_LMAX - abs(m) + 1))}
    grid_fn = transforms.synthesize(transforms.ChannelSpectrum(m, spec, TRANSFORM_LMAX), state.rule)
    grid_in, spec_out, grid_out = (w / f"c{k}-{s}.json" for s in ("grid", "spec", "grid2"))
    grid_in.write_text(json.dumps(transforms.grid_to_json(grid_fn)))
    ops.append(CliOp(state, "transform-analyze", f"c{k}-transform-analyze",
                     ["transform", "analyze", "--lmax", TRANSFORM_LMAX, "--in", grid_in,
                      "--out", spec_out],
                     lambda op: check_spectrum(_load(spec_out), m, spec),
                     inputs=[grid_in], outputs=[spec_out]))
    ops.append(CliOp(state, "transform-synthesize", f"c{k}-transform-synthesize",
                     ["transform", "synthesize", "--nodes", TRANSFORM_NODES, "--in", spec_out,
                      "--out", grid_out],
                     lambda op: check_samples(np.asarray(_load(grid_out)["values"]),
                                              np.asarray(grid_fn.values), "transform"),
                     inputs=[spec_out], outputs=[grid_out]))

    name = refs.GENERATORS[int(rng.integers(len(refs.GENERATORS)))]
    amps = dict(zip(refs.modes(APPLY_LMAX),
                    rng.standard_normal((APPLY_LMAX + 1) ** 2).tolist()))
    vec_in, vec_out = w / f"c{k}-vec.json", w / f"c{k}-applied.json"
    vec_in.write_text(json.dumps({"l_max": APPLY_LMAX, "entries": [
        {"l": l, "m": mm, "re": a} for (l, mm), a in amps.items()]}))
    ops.append(CliOp(state, "apply", f"c{k}-apply",
                     ["apply", "--op", name, "--in", vec_in, "--out", vec_out],
                     lambda op: check_apply_output(name, amps, _load(vec_out)),
                     inputs=[vec_in], outputs=[vec_out]))

    l = int(rng.integers(0, EVAL_LMAX + 1))
    mm = int(rng.integers(-l, l + 1))
    x = float(rng.uniform(-0.95, 0.95))
    ops.append(CliOp(state, "eval", f"c{k}-eval",
                     ["eval", "--l", l, "--m", mm, "--x", repr(x)],
                     lambda op: check_eval(op.stdout.read_text(), l, mm, x)))
    return ops


def _check_coef_file(path, coeffs) -> Check:
    data = _load(path)
    return check_coefficients(data["entries"], coeffs, SHT_LMAX, data.get("l_max"))


def _check_field_file(path, values) -> Check:
    data = _load(path)
    raw = np.asarray(data["values"], dtype=float)
    if data.get("phi_count") != SHT_GRID[1] or raw.ndim != 2:
        return Check(False, what="field file has the wrong grid")
    got = (raw[:, 0] + 1j * raw[:, 1]).reshape(-1, SHT_GRID[1])
    return check_samples(got, values, "sht")


def finish(state: State, tally) -> None:
    pass


def collect_trace(state: State):
    """Sum the spans and counters each traced child wrote, with the
    parent-side figures (process wall time, JSON bytes) beside them."""
    import tracer as tracing

    totals = Counter()
    spans = []
    for op_id, (op, wall, trace) in enumerate(c for c in state.children if c[2] is not None):
        data = _load(trace)
        totals.update(tracing.aggregate(data["spans"], data["counts"]))
        totals["cli.import_s"] += data["import_s"]
        totals["cli.main_s"] += data["main_s"]
        totals["cli.process_s"] += wall
        totals["cli.json_bytes"] += sum(p.stat().st_size for p in op.inputs + op.outputs)
        spans += [[*s[:5], op_id] for s in data["spans"]]
    return totals, spans


def close(state: State) -> None:
    shutil.rmtree(state.work, ignore_errors=True)
