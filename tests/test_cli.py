import json
import math

import numpy as np
import pytest

from legladder.cli import main
from legladder.modes import CoeffVector, ModeIndex, Truncation
from legladder.sphere import field_to_json, sample_Y, standard_grid
from legladder.transforms import grid_to_json
from legladder.alp import gauss_legendre, sample_T


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_prints_value(capsys):
    code, out, _ = run(capsys, "eval", "--l", "1", "--m", "1", "--x", "0")
    assert code == 0
    assert out.strip() == "-0.7071067811865476"


def test_eval_derivative(capsys):
    code, out, _ = run(capsys, "eval", "--l", "1", "--m", "0", "--x", "0.3", "--deriv")
    assert code == 0
    assert float(out) == pytest.approx(1.0)


def test_eval_inadmissible_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--l", "1", "--m", "2", "--x", "0")
    assert code == 2
    assert "inadmissible" in err
    code, _, _ = run(capsys, "eval", "--l", "1", "--m", "0", "--x", "1.0")
    assert code == 2


@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
def test_eval_non_finite_x_exits_2(capsys, x):
    code, out, err = run(capsys, "eval", "--l", "1", "--m", "0", f"--x={x}")
    assert code == 2
    assert out == ""
    assert "open interval" in err


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run(capsys, "eval", "--l", "1", "--m", "1", "--x", "0", "--bogus")
    assert code == 2


def test_unknown_command_exits_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_table_csv(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    code, _, _ = run(capsys, "table", "--lmax", "2", "--nodes", "3",
                     "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "l,m,x,T,dT"
    assert len(lines) == 1 + 9 * 3
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    assert float(first[3]) == 1.0


def test_apply_roundtrip(tmp_path, capsys):
    vec = CoeffVector.unit(1, 0, Truncation(4))
    src = tmp_path / "v.json"
    dst = tmp_path / "w.json"
    vec.save(src)
    code, _, _ = run(capsys, "apply", "--op", "Jp", "--in", str(src),
                     "--out", str(dst))
    assert code == 0
    data = json.loads(dst.read_text())
    assert data["overflow"] is False
    out = CoeffVector.from_json_dict(data)
    assert out.get(ModeIndex(1, 1)) == pytest.approx(math.sqrt(2))


def test_apply_overflow_warning(tmp_path, capsys):
    CoeffVector.unit(4, 0, Truncation(4)).save(tmp_path / "v.json")
    code, out, err = run(capsys, "apply", "--op", "Kp",
                         "--in", str(tmp_path / "v.json"),
                         "--out", str(tmp_path / "w.json"))
    assert code == 0
    assert "flagged" in err
    assert json.loads((tmp_path / "w.json").read_text())["overflow"] is True


def test_commutator_report(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, _, _ = run(capsys, "commutator", "--a", "Kp", "--b", "Jm",
                     "--lmax", "6", "--report", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["a"] == "Kp" and data["b"] == "Jm"
    assert data["valid_l_max"] == 5
    # [Kp, Jm] = Sp up to sign; every entry shifts (l, m) by (+1, -1)
    assert [1, -1] in data["shifts"]
    for row in data["entries"]:
        assert row["dst"]["l"] - row["src"]["l"] == 1
        assert row["dst"]["m"] - row["src"]["m"] == -1


def test_generate_command(tmp_path, capsys):
    out_path = tmp_path / "g.json"
    code, out, _ = run(capsys, "generate", "--l", "3", "--m", "-2",
                       "--lmax", "6", "--out", str(out_path))
    assert code == 0
    assert "deviation" in out
    vec = CoeffVector.load(out_path)
    assert vec.get(ModeIndex(3, -2)) == pytest.approx(1.0, abs=1e-10)


def test_spectrum_command(capsys):
    code, out, _ = run(capsys, "spectrum", "--name", "K3", "--lmax", "4", "--m", "1")
    assert code == 0
    assert json.loads(out) == [1.5, 2.5, 3.5, 4.5]


def test_transform_roundtrip_via_files(tmp_path, capsys):
    rule = gauss_legendre(12)
    grid = sample_T(2, 1, rule)
    (tmp_path / "g.json").write_text(json.dumps(grid_to_json(grid)))
    code, _, _ = run(capsys, "transform", "analyze", "--lmax", "6",
                     "--in", str(tmp_path / "g.json"),
                     "--out", str(tmp_path / "s.json"))
    assert code == 0
    spec = json.loads((tmp_path / "s.json").read_text())
    assert spec["m"] == 1 and spec["basis"] == "orthonormal"
    by_l = {row["l"]: row["c"] for row in spec["coeffs"]}
    assert by_l[2] == pytest.approx(1 / math.sqrt(2.5), abs=1e-13)

    code, _, _ = run(capsys, "transform", "synthesize", "--nodes", "12",
                     "--in", str(tmp_path / "s.json"),
                     "--out", str(tmp_path / "g2.json"))
    assert code == 0
    g2 = json.loads((tmp_path / "g2.json").read_text())
    assert np.allclose(g2["values"], grid.values, atol=1e-12)


def test_sht_roundtrip_via_files(tmp_path, capsys):
    grid = standard_grid(10, 19)
    field = sample_Y(2, -1, grid)
    (tmp_path / "f.json").write_text(json.dumps(field_to_json(field)))
    code, _, _ = run(capsys, "sht", "analyze", "--lmax", "8",
                     "--in", str(tmp_path / "f.json"),
                     "--out", str(tmp_path / "c.json"))
    assert code == 0
    data = json.loads((tmp_path / "c.json").read_text())
    by_mode = {(r["l"], r["m"]): complex(r["re"], r["im"]) for r in data["entries"]}
    assert by_mode[(2, -1)] == pytest.approx(1 / math.sqrt(2.5), abs=1e-12)

    code, _, _ = run(capsys, "sht", "synthesize", "--ntheta", "10", "--nphi", "19",
                     "--in", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "f2.json"))
    assert code == 0
    f2 = json.loads((tmp_path / "f2.json").read_text())
    got = np.asarray(f2["values"])
    want = np.asarray(field_to_json(field)["values"])
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_sht_analyze_rejects_non_finite_field(tmp_path, capsys, bad):
    data = field_to_json(sample_Y(2, -1, standard_grid(10, 19)))
    data["values"][7][1] = bad
    (tmp_path / "f.json").write_text(json.dumps(data))
    code, _, err = run(capsys, "sht", "analyze", "--lmax", "8",
                       "--in", str(tmp_path / "f.json"),
                       "--out", str(tmp_path / "c.json"))
    assert code == 2
    assert "finite" in err
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("key,bad", [("values", float("nan")), ("values", float("-inf")),
                                     ("weights", float("inf")), ("nodes", float("nan"))])
def test_transform_analyze_rejects_non_finite_grid(tmp_path, capsys, key, bad):
    data = grid_to_json(sample_T(2, 1, gauss_legendre(12)))
    data[key][3] = bad
    (tmp_path / "g.json").write_text(json.dumps(data))
    code, _, err = run(capsys, "transform", "analyze", "--lmax", "6",
                       "--in", str(tmp_path / "g.json"),
                       "--out", str(tmp_path / "s.json"))
    assert code == 2
    assert err.startswith("error:")
    assert not (tmp_path / "s.json").exists()


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "algebra", "--lmax", "6")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_quiet_writes_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "orthogonality", "--lmax", "6",
                       "--quiet", "--report", str(path))
    assert code == 0
    assert out == ""
    report = json.loads(path.read_text())
    assert report["pass"] is True
    assert all(c["pass"] for c in report["checks"])


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    for name in ("a.json", "b.json"):
        code, _, _ = run(capsys, "verify", "--suite", "parseval", "--lmax", "8",
                         "--quiet", "--report", str(tmp_path / name))
        assert code == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_verify_fails_with_impossible_tolerance(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "algebra", "--lmax", "6",
                       "--tol", "1e-30")
    assert code == 1
    assert "FAIL" in out


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == "0.1.0"
