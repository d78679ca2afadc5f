"""Spans and work counters recorded from outside the package.

install() wraps the public functions of each legladder module, under every
name they are bound to, and the methods named below on their classes. A
wrapper records a span (id, parent id, name, start, end, operation id) in
memory while the tracer is enabled, and may add to an exact work counter.
Nothing under src/ changes, so every commit is traced by identical code.

Self time of a span is its duration minus the durations of its child spans
(calls are nested, one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

SUITES = ("algebra", "casimir", "diffops", "orthogonality", "parseval", "sphere")
SWEEP_DEGREES = (32, 64, 128, 256)
JSON_GROUPS = ("cli.json_in", "cli.json_out")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = -1
        self.spans = []          # [id, parent, name, start, end, op]
        self.counts = Counter()
        self._stack = []

    def begin(self, op_id: int):
        self.op = op_id
        self.enabled = True

    def end(self):
        self.enabled = False

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so that each enabled call records one span named `name`.

        before(args, kwargs) returns a token; after(tracer, result, args,
        kwargs, seconds, token) updates counters from the call's result.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [len(tracer.spans), stack[-1] if stack else None, name, 0.0, 0.0, tracer.op]
            tracer.spans.append(rec)
            stack.append(rec[0])
            token = before(args, kwargs) if before is not None else None
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, result, args, kwargs, rec[4] - rec[3], token)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap fn so that each enabled call adds one to counts[name]."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


# ------------------------------------------------------------ counter hooks

def _points(tr, result, args, kwargs, seconds, token):
    tr.counts["alp.t_values.points"] += int(result.shape[0]) * int(result.shape[1])


def _cache_misses(orig):
    def before(args, kwargs):
        return orig.cache_info().misses

    def after(tr, result, args, kwargs, seconds, misses_before):
        tr.counts["alp.gauss_legendre.misses"] += orig.cache_info().misses - misses_before

    return before, after


def _entries_out(tr, result, args, kwargs, seconds, token):
    tr.counts["algebra.compose.entries_out"] += sum(len(c) for c in result.columns.values())


def _overflow(tr, result, args, kwargs, seconds, token):
    tr.counts["algebra.overflow_results"] += int(bool(result.overflow))


def _flops_analyze(tr, result, args, kwargs, seconds, token):
    # Legendre stage: one complex-by-real multiply-add (4 flops) per
    # (l, m) row and theta node.
    field = args[0] if args else kwargs["field"]
    l_max = args[1] if len(args) > 1 else kwargs["l_max"]
    tr.counts["sphere.legendre_flops"] += 4 * (l_max + 1) ** 2 * field.grid.shape[0]


def _flops_synthesize(tr, result, args, kwargs, seconds, token):
    coeffs = args[0] if args else kwargs["coeffs"]
    tr.counts["sphere.legendre_flops"] += 4 * len(coeffs) * result.grid.shape[0]


def _suite(tr, result, args, kwargs, seconds, token):
    name = args[0] if args else kwargs["name"]
    tr.counts[f"verify.{name}.s"] += seconds
    tr.counts["verify.checks"] += len(result["checks"])
    tr.counts["verify.checks_failed"] += sum(1 for c in result["checks"] if not c["pass"])


# ------------------------------------------------------------ installation

def install(tracer: Tracer):
    """Wrap legladder's public layer functions in place."""
    import legladder
    from legladder import algebra, alp, cli, diffops, modes, sphere, transforms, verify

    modules = (legladder, alp, modes, algebra, diffops, transforms, sphere, verify, cli)

    def rebind(orig, wrapped):
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)

    def fn(module, attr, name, before=None, after=None):
        orig = getattr(module, attr)
        rebind(orig, tracer.span(name, orig, before, after))

    def method(cls, attr, name, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.span(name, raw.__func__, after=after)))
        else:
            setattr(cls, attr, tracer.span(name, raw, after=after))

    fn(alp, "t_values", "alp.t_values", after=_points)
    fn(alp, "dt_values", "alp.dt_values")
    fn(alp, "ddt_values", "alp.ddt_values")
    fn(alp, "gauss_legendre", "alp.gauss_legendre", *_cache_misses(alp.gauss_legendre))

    modes.ModeIndex.__post_init__ = tracer.counter("modes.ModeIndex.created",
                                                   modes.ModeIndex.__post_init__)
    method(modes.CoeffVector, "__init__", "modes.CoeffVector")
    fn(modes, "lattice", "modes.lattice")

    fn(algebra, "generator", "algebra.generator")
    fn(algebra, "casimir", "algebra.casimir")
    fn(algebra, "commutator", "algebra.commutator")
    fn(algebra, "generate_mode", "algebra.generate_mode")
    op = algebra.SparseOperator
    method(op, "compose", "algebra.compose", after=_entries_out)
    method(op, "__add__", "algebra.add")
    method(op, "scaled", "algebra.scaled")
    method(op, "apply", "algebra.apply", after=_overflow)

    for name in ("apply_diff", "casimir_route_nodes", "ladder_diff_consistency",
                 "legendre_ode_residual"):
        fn(diffops, name, f"diffops.{name}")
    for name in ("analyze", "synthesize", "synthesize_derivative", "parseval_check",
                 "completeness_kernel"):
        fn(transforms, name, f"transforms.{name}")
    fn(sphere, "sht_synthesize", "sphere.sht_synthesize", after=_flops_synthesize)
    fn(sphere, "sht_analyze", "sphere.sht_analyze", after=_flops_analyze)
    for name in ("fourier_channel", "apply_primed", "casimir_sphere_residual",
                 "primed_element_deviation"):
        fn(sphere, name, f"sphere.{name}")

    fn(verify, "run_suite", "verify.run_suite", after=_suite)

    for mod, name in ((sphere, "field_from_json"), (transforms, "grid_from_json"),
                      (transforms, "spectrum_from_json"), (cli, "_load")):
        fn(mod, name, "cli.json_in")
    method(modes.CoeffVector, "from_json_dict", "cli.json_in")
    method(modes.CoeffVector, "load", "cli.json_in")
    for mod, name in ((sphere, "field_to_json"), (transforms, "grid_to_json"),
                      (transforms, "spectrum_to_json"), (cli, "_dump")):
        fn(mod, name, "cli.json_out")
    method(modes.CoeffVector, "to_json_dict", "cli.json_out")


# ------------------------------------------------------------ aggregation

def aggregate(spans, counts) -> dict:
    """Per-name calls and self seconds, plus group times, from one
    process's spans. Returns a Counter keyed by metric name."""
    child_time = defaultdict(float)
    by_id = {}
    for sid, parent, name, t0, t1, _ in spans:
        by_id[sid] = (parent, name)
        if parent is not None:
            child_time[parent] += t1 - t0
    out = Counter(counts)
    for sid, parent, name, t0, t1, _ in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (t1 - t0) - child_time[sid]
        if name in JSON_GROUPS:
            # A group's time is the union of its spans: count only the
            # outermost span of each nest (CoeffVector.load calls
            # from_json_dict, for example).
            up = parent
            while up is not None and by_id[up][1] != name:
                up = by_id[up][0]
            if up is None:
                out[f"{name}_s"] += t1 - t0
    out["modes.CoeffVector.created"] = out["modes.CoeffVector.calls"]
    return out


def _calls_self(prefix):
    return [(f"{prefix}.calls", "count", "lower"), (f"{prefix}.self_s", "s", "lower")]


PER_LAYER = (
    _calls_self("alp.t_values") + [("alp.t_values.points", "count", "lower")]
    + _calls_self("alp.dt_values") + _calls_self("alp.ddt_values")
    + _calls_self("alp.gauss_legendre") + [("alp.gauss_legendre.misses", "count", "lower")]
    + [("modes.ModeIndex.created", "count", "lower"),
       ("modes.CoeffVector.created", "count", "lower"),
       ("modes.CoeffVector.self_s", "s", "lower")]
    + _calls_self("modes.lattice")
    + _calls_self("algebra.generator")
    + _calls_self("algebra.compose") + [("algebra.compose.entries_out", "count", "lower")]
    + _calls_self("algebra.add") + _calls_self("algebra.scaled") + _calls_self("algebra.apply")
    + [("algebra.casimir.self_s", "s", "lower"),
       ("algebra.commutator.self_s", "s", "lower"),
       ("algebra.generate_mode.self_s", "s", "lower"),
       ("algebra.overflow_results", "count", "lower")]
    + [m for name in ("apply_diff", "casimir_route_nodes", "ladder_diff_consistency",
                      "legendre_ode_residual") for m in _calls_self(f"diffops.{name}")]
    + [m for name in ("analyze", "synthesize", "synthesize_derivative", "parseval_check",
                      "completeness_kernel") for m in _calls_self(f"transforms.{name}")]
    + [m for name in ("sht_synthesize", "sht_analyze", "fourier_channel", "apply_primed",
                      "casimir_sphere_residual", "primed_element_deviation")
       for m in _calls_self(f"sphere.{name}")]
    + [("sphere.legendre_flops", "flop", "lower")]
    + [(f"verify.{suite}.s", "s", "lower") for suite in SUITES]
    + [("verify.checks", "count", "higher"), ("verify.checks_failed", "count", "lower")]
    + [("cli.import_s", "s", "lower"), ("cli.main_s", "s", "lower"),
       ("cli.process_s", "s", "lower"), ("cli.json_in_s", "s", "lower"),
       ("cli.json_out_s", "s", "lower"), ("cli.json_bytes", "B", "lower")]
    + [("trace.overhead_s", "s", "lower"), ("process.cpu_s", "s", "lower")]
    + [(f"sphere.roundtrip_s.L{d}", "s", "lower") for d in SWEEP_DEGREES]
    + [(f"sphere.roundtrip_err.L{d}", "1", "lower") for d in SWEEP_DEGREES]
)

# Counts that repeat exactly for one seed; later changes may rest a claim
# on them.
EXACT_COUNTS = ("alp.t_values.points", "algebra.compose.entries_out",
                "modes.ModeIndex.created", "verify.checks", "sphere.legendre_flops")


def per_layer_metrics(totals) -> dict:
    """Every per-layer metric, zero where the layer did no work."""
    return {name: (float(totals.get(name, 0)) if unit in ("s", "1") else int(totals.get(name, 0)),
                   unit)
            for name, unit, _ in PER_LAYER}
