"""Each kind of wrong answer counts as a failed operation."""

import json

import refs
import wl_cli
import wl_lattice
import wl_sphere
from harness import Op, Tally, run_op
from legladder.modes import CoeffVector

SEED = 11


def test_perturbed_coefficient_fails():
    state = wl_sphere.setup(SEED)

    class Perturbed(wl_sphere.RoundTrip):
        def run(self):
            field, back = super().run()
            key = state.keys[len(state.keys) // 2]
            back[key] += 1e-6
            return field, back

    tally = Tally()
    run_op(wl_sphere.RoundTrip(state, 0), tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    run_op(Perturbed(state, 1), tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "round-trip error 1.000e-06" in tally.failures[0]


def test_perturbed_coefficient_in_cli_output_fails():
    coeffs = {(0, 0): 1.0 + 0.5j, (1, -1): -0.25j, (1, 0): 2.0, (1, 1): 0.125}
    rows = [{"l": l, "m": m, "re": c.real, "im": c.imag} for (l, m), c in
            ((k, complex(v)) for k, v in coeffs.items())]
    assert wl_cli.check_coefficients(rows, coeffs, 1, 1).ok
    rows[2]["re"] += 1e-6
    assert not wl_cli.check_coefficients(rows, coeffs, 1, 1).ok


def test_flipped_overflow_flag_fails():
    state = wl_lattice.setup(SEED)
    amplitudes = [1.0 + 0.001 * i for i in range(len(state.keys))]

    class Flipped(wl_lattice.ApplyOp):
        def run(self):
            vec = super().run()
            return CoeffVector(vec.entries, vec.trunc, overflow=not vec.overflow)

    tally = Tally()
    run_op(wl_lattice.ApplyOp(state, "Kp", amplitudes), tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    run_op(Flipped(state, "Kp", amplitudes), tally)
    run_op(Flipped(state, "Km", amplitudes), tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert all("overflow flag" in f for f in tally.failures)


def test_flipped_overflow_flag_in_cli_output_fails():
    amps = {(l, m): 1.0 for l, m in refs.modes(wl_cli.APPLY_LMAX)}
    want, overflow = refs.apply_reference("Rp", amps, wl_cli.APPLY_LMAX)
    data = {"entries": [{"l": l, "m": m, "re": v} for (l, m), v in want.items()],
            "overflow": overflow}
    assert overflow and wl_cli.check_apply_output("Rp", amps, data).ok
    data["overflow"] = False
    assert not wl_cli.check_apply_output("Rp", amps, data).ok


def test_changed_byte_in_verify_report_fails():
    state = wl_cli.setup(SEED)
    try:
        verify = wl_cli.cycle(state, 0)[0]
        report = verify.outputs[0]
        tally = Tally()
        run_op(verify, tally)
        assert (tally.attempted, tally.failed) == (1, 0)

        class Corrupted(Op):
            kind = "verify"

            def run(self):
                data = bytearray(report.read_bytes())
                i = data.index(b'"max_deviation": ') + len(b'"max_deviation": ')
                data[i] = ord("7") if data[i] != ord("7") else ord("8")
                report.write_bytes(bytes(data))
                json.loads(data)          # still a well-formed report
                return 0

            def check(self, code):
                return verify.check(code)

        run_op(Corrupted(), tally)
        assert (tally.attempted, tally.failed) == (2, 1)
        assert "differs" in tally.failures[0]
    finally:
        wl_cli.close(state)


def test_nonzero_exit_code_fails():
    state = wl_cli.setup(SEED)
    try:
        good = wl_cli.CliOp(state, "eval", "good", ["eval", "--l", 3, "--m", 2, "--x", 0.25],
                            lambda op: wl_cli.check_eval(op.stdout.read_text(), 3, 2, 0.25))
        bad = wl_cli.CliOp(state, "eval", "bad", ["eval", "--l", 1, "--m", 3, "--x", 0.25],
                           lambda op: wl_cli.check_eval(op.stdout.read_text(), 1, 3, 0.25))
        tally = Tally()
        run_op(good, tally)
        run_op(bad, tally)
        assert (tally.attempted, tally.failed) == (2, 1)
        assert "exit code 2" in tally.failures[0]
    finally:
        wl_cli.close(state)
