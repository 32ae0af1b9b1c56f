"""Command-line interface and problem-file handling, end to end."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import BUNDLED, UNBOUNDED_DOC, WARN_DOC

import randfrob as rf
from randfrob import cli, mcengine
from randfrob.cli import MAX_GRID_POINTS, parse_grid, read_curve, run_command
from randfrob.errors import SpecError
from randfrob.frobenius import MAX_GENERATOR_M
from randfrob.poly import EXP_LIMIT
from randfrob.specfile import canonical_json, load_document, parse_document, resolve_problem


class TestGridParsing:
    def test_inclusive_ends(self):
        assert parse_grid("0:1.5:0.25") == [Fraction(k, 4) for k in range(7)]

    def test_single_point(self):
        assert parse_grid("1:1:0.5") == [Fraction(1)]

    def test_end_within_slack(self):
        # three steps of 0.1 land on 0.3 exactly in rational arithmetic
        assert len(parse_grid("0:0.3:0.1")) == 4

    def test_no_point_past_end(self):
        # the last step would overshoot 0.8999999999999 by 1e-13
        assert parse_grid("0:0.8999999999999:0.3") == [0, Fraction(3, 10), Fraction(3, 5)]

    def test_errors(self):
        for bad in ("0:1", "0:1:0", "1:0:0.5", "a:b:c"):
            with pytest.raises(rf.SpecError):
                parse_grid(bad)

    def test_size_guard(self):
        # 10^9 + 1 points: rejected from the count, before any is built
        with pytest.raises(rf.SpecError, match="1000000001 points"):
            parse_grid("0:1:1e-9")
        assert len(parse_grid(f"0:1:1/{MAX_GRID_POINTS - 1}")) == MAX_GRID_POINTS
        with pytest.raises(rf.SpecError, match="more than"):
            parse_grid(f"0:1:1/{MAX_GRID_POINTS}")

    def test_decimal_exponent_limit(self, capsys):
        with pytest.raises(rf.SpecError, match="grid bounds must be rationals"):
            parse_grid("0:1e10000000:1")
        code, _, err = run(capsys, "stats", "hermite_forced", "--grid", "0:1e10000000:1")
        assert code == 1 and err.count("error:") == 1


class TestDocuments:
    def test_decimal_literals_exact(self):
        doc = parse_document('{"p": 0.35, "q": [0.2, 0.8], "n": 3}')
        assert doc["p"] == Fraction(7, 20)
        assert doc["q"] == [Fraction(1, 5), Fraction(4, 5)]
        assert doc["n"] == 3 and isinstance(doc["n"], int)

    def test_canonical_roundtrip(self):
        for name in ("airy", "hermite", "polynomial_data", "beta_series", "hermite_forced"):
            doc = load_document(resolve_problem(name))
            text = canonical_json(doc)
            doc2 = parse_document(text)
            assert canonical_json(doc2) == text
            # both documents resolve to the same problem
            sol1 = rf.compute_coeffs(rf.build_problem(doc), 6)
            sol2 = rf.compute_coeffs(rf.build_problem(doc2), 6)
            table = sol1.spec.table
            assert [rf.format_poly(x, table) for x in sol1.X] == [
                rf.format_poly(x, sol2.spec.table) for x in sol2.X
            ]

    def test_resolver(self, tmp_path):
        assert resolve_problem("hermite_forced").name == "hermite_forced.spec"
        assert resolve_problem("hermite_forced.spec").name == "hermite_forced.spec"
        own = tmp_path / "mine.spec"
        own.write_text('{"initial": {"Y0": 1, "Y1": 0}}')
        assert resolve_problem(str(own)) == own
        with pytest.raises(rf.SpecError, match="no such problem file"):
            resolve_problem("missing.spec")

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("{not json")
        with pytest.raises(rf.SpecError, match="not valid JSON"):
            load_document(bad)

    def test_bundled_listing(self):
        names = set(rf.bundled_problems())
        assert names == {"airy", "hermite", "polynomial_data", "beta_series", "hermite_forced"}


MC_SERIES = ("mc", "--method", "series", "--samples", "10", "--grid", "0:1:0.5")
MC_RK4 = ("mc", "--method", "rk4", "--samples", "10", "--grid", "0:0.1:0.05")
# a valid parameter set of each kind whose parameters are all rational
RATIONAL_PARAMS = {"pointmass": {"value": 1}, "uniform": {"a": 0, "b": 1},
                   "beta": {"alpha": 2, "beta": 3}, "gamma": {"shape": 2, "rate": 1}}


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommands:
    def test_check_bundled_all_pass(self, capsys):
        for name in rf.bundled_problems():
            code, out, _ = run(capsys, "check", name)
            assert code == 0, name
            assert "status: pass" in out

    def test_check_beta_series_radius(self, capsys):
        code, out, _ = run(capsys, "check", "beta_series")
        assert code == 0
        assert "radius estimate: 1 (declared 1)" in out

    def test_check_json(self, capsys):
        code, out, _ = run(capsys, "check", "hermite_forced", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert payload["radius_estimate"] == "inf"

    @pytest.mark.parametrize("problem", BUNDLED + ("unbounded", "warn"))
    def test_check_json_schema(self, capsys, tmp_path, problem):
        docs = {"unbounded": UNBOUNDED_DOC, "warn": WARN_DOC}
        if problem in docs:
            path = tmp_path / f"{problem}.spec"
            path.write_text(json.dumps(docs[problem]))
            problem = str(path)
        _, out, _ = run(capsys, "check", problem, "--json")

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        payload = json.loads(out, parse_constant=reject)
        assert list(payload) == [
            "status", "messages", "radius_estimate_a", "radius_estimate_b",
            "radius_estimate", "declared_radius", "coefficients", "l2",
        ]
        for entry in payload["coefficients"]:
            assert list(entry) == ["series", "n", "sup_bound", "bounded"]
        for entry in payload["l2"]:
            assert list(entry) == ["label", "norm", "finite"]

    def test_check_failure_exit_code(self, capsys, tmp_path):
        path = tmp_path / "unbounded.spec"
        path.write_text(json.dumps(UNBOUNDED_DOC))
        code, out, err = run(capsys, "check", str(path))
        assert code == 1
        assert "not essentially bounded" in out
        assert err == "error: hypotheses fail for A_0\n"
        code, out, err = run(capsys, "check", str(path), "--json")
        assert code == 1
        assert json.loads(out)["status"] == "fail"
        assert err == "error: hypotheses fail for A_0\n"

    def test_solve_airy(self, capsys, tmp_path):
        out_path = tmp_path / "coeffs.csv"
        code, _, _ = run(capsys, "solve", "airy", "--order", "5", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "n,polynomial"
        assert lines[3] == "2,0"  # X_2 vanishes for the Airy structure
        assert lines[4] == "3,-1/6*A*Y0"

    @pytest.mark.parametrize("name", BUNDLED)
    def test_solve_csv_reads_back(self, capsys, tmp_path, name):
        # the rows are joined by hand: no symbol name or polynomial needs quoting
        spec = rf.load_problem(name)
        out_path = tmp_path / "coeffs.csv"
        assert run(capsys, "solve", name, "--out", str(out_path))[0] == 0
        rows = [[str(n), rf.format_poly(p, spec.table)]
                for n, p in enumerate(rf.compute_coeffs(spec, spec.default_order).X)]
        with open(out_path, newline="", encoding="utf-8") as fp:
            assert list(csv.reader(fp)) == [["n", "polynomial"], *rows]

    def test_stats_table(self, capsys, tmp_path):
        out_path = tmp_path / "stats.csv"
        code, _, _ = run(capsys, "stats", "hermite_forced", "--order", "20",
                         "--grid", "0:1.5:0.25", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,mean,variance"
        assert len(lines) == 8
        assert lines[1] == "0,1,0.5"
        assert lines[7].startswith("1.5,4.34784,6.941")

    def test_stats_beta_series_declared_order(self, capsys, tmp_path):
        # the declared order 20: 3 299 distinct monomials in X_0..X_20
        out_path = tmp_path / "stats.csv"
        code, _, _ = run(capsys, "stats", "beta_series", "--grid", "0:0.9:0.3",
                         "--full-precision", "--out", str(out_path))
        assert code == 0
        curve = read_curve(out_path)
        spec = rf.load_problem("beta_series")
        means = [spec.model.expect_poly(x) for x in rf.compute_coeffs(spec, 20).X]
        assert curve.grid == [0.0, 0.3, 0.6, 0.9]
        assert curve.mean == [
            float(sum(m * t**n for n, m in enumerate(means))) for t in parse_grid("0:0.9:0.3")
        ]
        assert all(math.isfinite(v) and v >= 0 for v in curve.variance)

    @pytest.mark.parametrize("command", [
        ("stats", "hermite_forced"),
        ("mc", "hermite_forced", "--method", "series", "--samples", "100"),
    ])
    def test_negative_grid_start(self, capsys, tmp_path, command):
        # "--grid -0.5:..." reads as an option to argparse; the "=" form does not
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(capsys, *command, "--grid=-0.5:0.5:0.5", "--out", str(out_path))
        assert code == 0
        assert read_curve(out_path).grid == [-0.5, 0.0, 0.5]

    def test_stats_byte_identical_reruns(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(capsys, "stats", "hermite_forced", "--order", "12",
                             "--grid", "0:1:0.5", "--out", str(p))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_mc_csv_and_compare(self, capsys, tmp_path):
        stats_path = tmp_path / "stats.csv"
        mc_path = tmp_path / "mc.csv"
        run(capsys, "stats", "hermite_forced", "--grid", "0:1:0.5",
            "--out", str(stats_path))
        code, _, _ = run(capsys, "mc", "hermite_forced", "--method", "series",
                         "--samples", "4000", "--seed", "12",
                         "--grid", "0:1:0.5", "--out", str(mc_path))
        assert code == 0
        header = mc_path.read_text().splitlines()[0]
        assert header == "t,mean,variance,ci_halfwidth"
        curve = read_curve(mc_path)
        assert curve.ci_halfwidth is not None

        code, out, _ = run(capsys, "compare", str(stats_path), str(mc_path))
        assert code == 0
        assert "max abs dev" in out

    def test_mc_reproducible_files(self, capsys, tmp_path):
        paths = [tmp_path / "m1.csv", tmp_path / "m2.csv"]
        for p in paths:
            code, _, _ = run(capsys, "mc", "hermite_forced", "--method", "series",
                             "--samples", "2000", "--seed", "8",
                             "--grid", "0:1:0.5", "--out", str(p))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_mc_rk4_path(self, capsys, tmp_path):
        out_path = tmp_path / "rk4.csv"
        code, _, _ = run(capsys, "mc", "hermite_forced", "--method", "rk4",
                         "--samples", "200", "--seed", "4", "--step", "0.01",
                         "--grid", "0:0.5:0.25", "--out", str(out_path))
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 4

    @pytest.mark.filterwarnings("error")
    def test_mc_series_high_order(self, capsys, tmp_path):
        # tau^400 at t = 10 is not a float, but each Horner step of the
        # order-400 partial sum is
        stats_path, mc_path = tmp_path / "stats.csv", tmp_path / "mc.csv"
        assert run(capsys, "stats", "airy", "--order", "400", "--grid", "0:10:10",
                   "--full-precision", "--out", str(stats_path))[0] == 0
        code, _, err = run(capsys, "mc", "airy", "--method", "series", "--order", "400",
                           "--samples", "2000", "--grid", "0:10:10", "--full-precision",
                           "--out", str(mc_path))
        assert (code, err) == (0, "")
        exact, mc = read_curve(stats_path), read_curve(mc_path)
        assert exact.mean[1] > 2e7
        assert abs(mc.mean[1] - exact.mean[1]) <= 5 * mc.ci_halfwidth[1] / 1.96

    def test_majorant_csv(self, capsys, tmp_path):
        out_path = tmp_path / "h.csv"
        code, out, _ = run(capsys, "majorant", "hermite_forced", "--s", "1.6",
                           "--order", "6", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "n,H_n,H_n_s_n"
        assert len(lines) == 8
        assert "D_s=" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_compare_rejects_non_finite(self, capsys, tmp_path, value):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        run(capsys, "stats", "hermite_forced", "--grid", "0:1:0.5", "--out", str(good))
        lines = good.read_text().splitlines()
        lines[2] = f"0.5,{value},0.1"
        bad.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "compare", str(good), str(bad))
        assert (code, out) == (1, "")
        assert err == f"error: {bad}: non-finite mean on line 3\n"

    @pytest.mark.parametrize("row,message", [
        ("0,1", "no variance value on line 2"),
        ("0", "no mean value on line 2"),
        ("0,abc,1", "cannot read mean 'abc' on line 2"),
        ("0,1,", "cannot read variance '' on line 2"),
        ("0,1,0,5", "more cells than columns on line 2"),
    ])
    def test_compare_rejects_bad_rows(self, capsys, tmp_path, row, message):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("t,mean,variance\n0,1,0\n")
        bad.write_text(f"t,mean,variance\n{row}\n")
        for files in ((good, bad), (bad, good)):
            code, out, err = run(capsys, "compare", *map(str, files))
            assert (code, out) == (1, "")
            assert err == f"error: {bad}: {message}\n"

    def test_compare_rejects_field_past_csv_limit(self, capsys, tmp_path):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("t,mean,variance\n0,1,0\n")
        bad.write_text("t,mean,variance\n0,1," + "1" * 200_000 + "\n")
        code, out, err = run(capsys, "compare", str(good), str(bad))
        assert (code, out) == (1, "")
        assert err == f"error: {bad}: field larger than field limit (131072)\n"

    def test_compare_rejects_header_only(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("t,mean,variance\n")
        code, out, err = run(capsys, "compare", str(empty), str(empty))
        assert (code, out) == (1, "")
        assert err == f"error: {empty}: no data rows\n"

    def test_compare_names_undecodable_file(self, capsys, tmp_path):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("t,mean,variance\n0,1,0\n")
        bad.write_bytes(b"t,mean,variance\n0,1,0\n\xff")
        for files in ((good, bad), (bad, good)):
            code, out, err = run(capsys, "compare", *map(str, files))
            assert (code, out) == (1, "")
            assert err == (f"error: {bad}: 'utf-8' codec can't decode byte 0xff"
                           " in position 22: invalid start byte\n")

    def test_compare_rejects_negative_variance(self, capsys, tmp_path):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("t,mean,variance\n0,1,0\n0.5,1,0.25\n")
        bad.write_text("t,mean,variance\n0,1,0\n0.5,1,-1e-15\n")
        for files in ((good, bad), (bad, good)):
            code, out, err = run(capsys, "compare", *map(str, files))
            assert (code, out) == (1, "")
            assert err == f"error: {bad}: variance -1e-15 at t=0.5 is negative\n"

    def test_read_curve_missing_file(self, tmp_path):
        path = tmp_path / "nowhere.csv"
        with pytest.raises(SpecError, match=f"cannot read curve file {re.escape(str(path))}: "):
            read_curve(str(path))

    def test_compare_grid_mismatch(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "stats", "hermite_forced", "--grid", "0:1:0.5", "--out", str(a))
        run(capsys, "stats", "hermite_forced", "--grid", "0:1:0.25", "--out", str(b))
        code, _, err = run(capsys, "compare", str(a), str(b))
        assert code == 1
        assert "different grids" in err

    def test_full_precision_flag(self, capsys, tmp_path):
        short = tmp_path / "s.csv"
        full = tmp_path / "f.csv"
        run(capsys, "stats", "hermite_forced", "--grid", "1.5:1.5:1",
            "--out", str(short))
        run(capsys, "stats", "hermite_forced", "--grid", "1.5:1.5:1",
            "--out", str(full), "--full-precision")
        assert "4.34784" in short.read_text()
        assert "4.34783887315578" in full.read_text()

    def test_usage_errors(self, capsys):
        assert run(capsys, "unknown-command")[0] == 2
        assert run(capsys, "stats", "hermite_forced")[0] == 2  # missing --grid
        assert run(capsys, "mc", "hermite_forced", "--method", "guess",
                   "--samples", "1", "--grid", "0:1:1")[0] == 2

    @pytest.mark.parametrize("m", [2.5, True, "x"])
    def test_generator_m_must_be_integer(self, capsys, tmp_path, m):
        doc = load_document(resolve_problem("beta_series"))
        doc["generators"]["A"]["M"] = m
        path = tmp_path / "bad_m.spec"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert "generator A: M must be an integer >= 0" in err

    @pytest.mark.parametrize("problem,index,param", [
        ("hermite_forced", 0, "p"),  # bernoulli
        ("hermite", 1, "b"),  # uniform bound
    ])
    def test_bool_distribution_parameter(self, capsys, tmp_path, problem, index, param):
        doc = load_document(resolve_problem(problem))
        doc["symbols"][index]["params"][param] = True
        path = tmp_path / "bool_param.spec"
        path.write_text(canonical_json(doc))
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert "bool is not a rational value" in err

    @pytest.mark.parametrize("place,value,key", [
        (("problem", "t0"), True, "'t0'"),
        (("problem", "t0"), [1], "'t0'"),
        (("problem", "radius"), True, "radius"),
        (("initial", "Y0"), True, "initial Y0"),
        (("series", "A", 0, "value"), True, "series A term n=1"),
    ])
    def test_wrong_type_value(self, capsys, tmp_path, place, value, key):
        doc = load_document(resolve_problem("hermite_forced"))
        target = doc
        for step in place[:-1]:
            target = target[step]
        target[place[-1]] = value
        path = tmp_path / "wrong_type.spec"
        path.write_text(canonical_json(doc))
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert err.startswith(f"error: {key} ")

    @pytest.mark.parametrize("argv", [
        ("solve",),
        ("stats", "--grid", "0:1:0.5"),
        ("mc", "--method", "series", "--samples", "10", "--grid", "0:1:0.5"),
        ("majorant", "--s", "1.6"),
    ])
    def test_order_zero_is_rejected(self, capsys, tmp_path, argv):
        out_path = tmp_path / "out.csv"
        code, _, err = run(capsys, argv[0], "hermite_forced", *argv[1:],
                           "--order", "0", "--out", str(out_path))
        assert code == 1
        assert "order must be >= 2" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("method,flag,value", [
        ("rk4", "--order", "0"),
        ("series", "--input-truncation", "0"),
        ("series", "--step", "0.01"),
    ])
    def test_mc_flag_of_other_method(self, capsys, tmp_path, method, flag, value):
        out_path = tmp_path / "mc.csv"
        code, _, err = run(capsys, "mc", "hermite_forced", "--method", method,
                           "--samples", "10", "--grid", "0:0.5:0.25", flag, value,
                           "--out", str(out_path))
        assert code == 2
        assert err == f"error: {flag} applies only to --method {'rk4' if method == 'series' else 'series'}\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("y0,b0,code,message", [
        (f"Y0^{EXP_LIMIT - 1}", None, 0, ""),
        (f"Y0^{EXP_LIMIT}", None, 1, f"error: exponents must stay below {EXP_LIMIT}"),
        # X_2 = -B_0 X_0 / 2 carries Y0's exponent to the limit
        (f"Y0^{EXP_LIMIT - 1}", "Y0", 1, f"error: exponent {EXP_LIMIT} exceeds"),
        (f"Y0^{EXP_LIMIT - 2}", "Y0", 0, ""),
    ])
    def test_exponent_limit(self, capsys, tmp_path, y0, b0, code, message):
        doc = {
            "symbols": [{"name": "Y0", "dist": "uniform", "params": {"a": 0, "b": 1}}],
            "series": {"B": [{"n": 0, "value": b0}] if b0 else []},
            "initial": {"Y0": y0, "Y1": 0},
        }
        path = tmp_path / "exponent.spec"
        path.write_text(canonical_json(doc))
        got, _, err = run(capsys, "solve", str(path), "--order", "2",
                          "--out", str(tmp_path / "c.csv"))
        assert got == code
        assert err.startswith(message) and "Traceback" not in err

    @pytest.mark.parametrize("y0, fields, argv", [
        ("1e400*A", {}, ("check",)),
        ("1e400*A", {}, ("stats", "--grid", "0:1:0.5")),
        ("1e400*A", {}, ("mc", "--method", "series", "--samples", "10", "--grid", "0:1:0.5")),
        ("1e400*A", {}, ("mc", "--method", "rk4", "--samples", "10", "--grid", "0:0.1:0.05")),
        ("1e400*A", {}, ("majorant", "--s", "0.5")),
        # every draw is a float, but its square is not
        ("1e200*A", {}, ("mc", "--method", "series", "--samples", "100", "--grid", "0:0.1:0.05")),
        ("1e200*A", {}, ("mc", "--method", "rk4", "--samples", "100", "--grid", "0:0.1:0.05")),
        # every input is a float, but the integrated path is not
        (1, {"series": {"B": [{"n": 0, "value": "-1e300*A"}]}},
         ("mc", "--method", "rk4", "--samples", "100", "--grid", "0:0.1:0.05", "--step", "0.05")),
        # every coefficient is a float, but the partial sum X_0 + X_2 tau^2 is not
        (1, {"series": {"B": [{"n": 0, "value": "-1"}]}},
         ("mc", "--method", "series", "--samples", "10", "--grid", "0:1e308:1e307")),
        # every input is a float, but H_n grows like 1/s^n
        ("A", {}, ("majorant", "--s", "1e-320")),
    ], ids=["check", "stats", "mc-series", "mc-rk4", "majorant",
            "mc-series-square", "mc-rk4-square", "mc-rk4-path", "mc-series-path", "majorant-tiny-s"])
    @pytest.mark.filterwarnings("error")
    def test_value_out_of_float_range(self, capsys, tmp_path, y0, fields, argv):
        doc = {
            "symbols": [{"name": "A", "dist": "bernoulli", "params": {"p": "1/2"}}],
            "initial": {"Y0": y0, "Y1": 0},
            **fields,
        }
        path = tmp_path / "huge.spec"
        path.write_text(canonical_json(doc))
        out_path = tmp_path / "out.csv"
        out_flag = () if argv[0] == "check" else ("--out", str(out_path))
        code, _, err = run(capsys, argv[0], str(path), *argv[1:], *out_flag)
        assert code == 1
        assert err.startswith("error: a value is out of float range") and "Traceback" not in err
        assert err.count("\n") == 1  # no warning beside the error line
        assert not out_path.exists()

    @pytest.mark.parametrize("command", [("check",), ("stats", "--grid", "0:1:0.5"),
                                         ("majorant", "--s", "0.5")])
    @pytest.mark.parametrize("dist,message", [
        ({"symbols": [{"name": "F", "dist": "binomial", "params": {"n": "1e400", "p": "1/2"}}]},
         "error: symbol 'F': binomial n is out of float range"),
        ({"blocks": [{"names": ["F", "G"], "dist": "multinomial",
                      "params": {"trials": "1e400", "probs": ["1/2", "1/2"]}}]},
         "error: block ['F', 'G']: multinomial trials is out of float range"),
    ], ids=["binomial-n", "multinomial-trials"])
    def test_count_out_of_float_range(self, capsys, tmp_path, command, dist, message):
        # every moment and sup bound of F is past float range: the error names the input
        doc = {**dist, "series": {"B": [{"n": 0, "value": "F"}]}, "initial": {"Y0": 1, "Y1": 0}}
        path = tmp_path / "counts.spec"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "out.csv"
        out_flag = () if command[0] == "check" else ("--out", str(out_path))
        code, out, err = run(capsys, command[0], str(path), *command[1:], *out_flag)
        assert code == 1
        assert err.startswith(message) and err.count("\n") == 1
        assert out == "" and not out_path.exists()

    @pytest.mark.parametrize("command", [("solve",), ("check",), MC_SERIES], ids=["solve", "check", "mc"])
    @pytest.mark.parametrize("kind,param,value", [
        *[(kind, param, sign + "1e400")
          for kind, params in RATIONAL_PARAMS.items() for param in params for sign in ("", "-")],
        # zero as a float, so 1/rate (the gamma scale) is not a float and numpy rejects alpha
        ("gamma", "rate", "1e-400"),
        ("beta", "alpha", "1e-400"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_parameter_out_of_float_range(self, capsys, tmp_path, command, kind, param, value):
        # rejected when the model is built, so `solve`, which reads no float of it, fails too
        params = {**RATIONAL_PARAMS[kind], param: value}
        doc = {"symbols": [{"name": "A", "dist": kind, "params": params}],
               "initial": {"Y0": "A", "Y1": 0}}
        path = tmp_path / "range.spec"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "out.csv"
        out_flag = () if command[0] == "check" else ("--out", str(out_path))
        code, out, err = run(capsys, command[0], str(path), *command[1:], *out_flag)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: symbol 'A': {kind} {param}") and err.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("command", [("check",), MC_SERIES], ids=["check", "mc"])
    @pytest.mark.parametrize("trials,code", [(1 << 63, 1), (10**20, 1), ((1 << 63) - 1, 0)],
                             ids=["2^63", "10^20", "2^63-1"])
    @pytest.mark.parametrize("kind", ["binomial", "multinomial"])
    def test_count_past_int64(self, capsys, tmp_path, command, trials, code, kind):
        # numpy draws counts as int64: a larger count fails at load, naming the input
        if kind == "binomial":
            doc = {"symbols": [{"name": "F", "dist": "binomial",
                                "params": {"n": str(trials), "p": "1/2"}}]}
            message = "error: symbol 'F': binomial n must be an integer in [0, 2^63)"
        else:
            doc = {"blocks": [{"names": ["F", "G"], "dist": "multinomial",
                               "params": {"trials": str(trials), "probs": ["1/3", "2/3"]}}]}
            message = "error: block ['F', 'G']: multinomial trials must be an integer in [0, 2^63)"
        path = tmp_path / "counts.spec"
        path.write_text(json.dumps({**doc, "initial": {"Y0": "F", "Y1": 0}}))
        out_path = tmp_path / "out.csv"
        out_flag = () if command[0] == "check" else ("--out", str(out_path))
        got, _, err = run(capsys, command[0], str(path), *command[1:], *out_flag)
        assert got == code
        if code:
            assert err.startswith(message) and err.count("\n") == 1
        assert out_path.exists() == (command[0] == "mc" and not code)

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_support_out_of_float_range(self, capsys, tmp_path, command):
        # rejected when the model is built, so `solve`, which reads no float of it, fails too
        doc = load_document(resolve_problem("airy"))
        doc["symbols"][1]["params"]["support"] = ["1e400", 2]
        path = tmp_path / "huge_support.spec"
        path.write_text(canonical_json(doc))
        out_path = tmp_path / "coeffs.csv"
        out_flag = ("--out", str(out_path)) if command == "solve" else ()
        code, out, err = run(capsys, command, str(path), *out_flag)
        assert (code, out) == (1, "")
        assert err == ("error: symbol 'Y0': finite_discrete support is out of float range,"
                       " got a value of 401 digits\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("flags,message", [
        (("--method", "series", "--seed", "-1"), "seed must lie in [0, 2^64), got -1"),
        (("--method", "series", "--seed", str(1 << 64)), f"got {1 << 64}"),
        (("--method", "rk4", "--step", "1e-300"), "needs 1e+300 steps, over the limit"),
        (("--method", "rk4", "--step", "5e-324"), "needs inf steps, over the limit"),
        (("--method", "series", "--samples", "1000000001"), "got 1000000001"),
        (("--method", "rk4", "--samples", "1000000001"), "got 1000000001"),
    ], ids=["seed-negative", "seed-2^64", "rk4-tiny-step", "rk4-subnormal-step",
            "series-samples", "rk4-samples"])
    def test_mc_run_out_of_range(self, capsys, tmp_path, monkeypatch, flags, message):
        # every row fails before the first chunk is drawn
        monkeypatch.setattr(mcengine, "_run_chunks", lambda *args: pytest.fail("sampled"))
        out_path = tmp_path / "mc.csv"
        code, _, err = run(capsys, "mc", "hermite_forced", "--samples", "10",
                           "--grid", "0:1:0.5", *flags, "--out", str(out_path))
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert not out_path.exists()

    @pytest.mark.parametrize("threads,code", [
        ("", 0), ("2", 0), ("abc", 1), ("0", 1), ("-3", 1), ("1.5", 1),
    ])
    def test_mc_threads_setting(self, capsys, tmp_path, monkeypatch, threads, code):
        monkeypatch.setenv("RANDFROB_THREADS", threads)
        out_path = tmp_path / "mc.csv"
        got, _, err = run(capsys, "mc", "hermite_forced", "--method", "series", "--samples", "10",
                          "--grid", "0:1:0.5", "--out", str(out_path))
        assert got == code
        assert out_path.exists() == (code == 0)
        if code:
            assert err == f"error: RANDFROB_THREADS must be an integer >= 1, got {threads!r}\n"

    @pytest.mark.parametrize("argv", [
        ("solve", "--order", "4"),
        ("stats", "--order", "4", "--grid", "0:0.1:0.05"),
        ("mc", "--method", "series", "--samples", "10", "--grid", "0:0.1:0.05"),
        ("majorant", "--s", "0.9", "--order", "4"),
    ], ids=["solve", "stats", "mc", "majorant"])
    def test_out_cannot_be_opened(self, capsys, tmp_path, argv):
        out_path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, argv[0], "hermite_forced", *argv[1:], "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert err == f"error: cannot write {out_path}: No such file or directory\n"

    def test_order_beyond_generator_inputs(self, capsys, tmp_path):
        doc = load_document(resolve_problem("beta_series"))
        doc["generators"]["A"]["M"] = 3
        path = tmp_path / "short_m.spec"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "coeffs.csv"
        code, _, err = run(capsys, "solve", str(path), "--order", "10", "--out", str(out_path))
        assert code == 1
        assert "series A: generator M=3" in err and "order 10 needs index 8" in err
        assert not out_path.exists()
        # order M + 2 reads inputs up to index M only
        assert run(capsys, "solve", str(path), "--order", "5", "--out", str(out_path))[0] == 0
        # RK4 reads inputs up to its input truncation: the same check applies
        mc_path = tmp_path / "mc.csv"
        rk4 = ("mc", "--method", "rk4", "--samples", "10", "--grid", "0:0.1:0.05",
               "--out", str(mc_path))
        for spec, k, m in ((str(path), 4, 3), ("beta_series", 100, 40)):
            code, _, err = run(capsys, rk4[0], spec, *rk4[1:], "--input-truncation", str(k))
            assert code == 1
            assert f"series A: generator M={m}" in err
            assert f"input truncation {k} needs index {k}" in err
            assert not mc_path.exists()
        assert run(capsys, rk4[0], str(path), *rk4[1:], "--input-truncation", "3")[0] == 0
        # the bundled M = 40 covers order 42; exact and Monte Carlo runs past it fail alike
        beyond = ("series A: generator M=40 expands inputs up to index 40, but {} needs"
                  " index 41; raise M to at least 41")
        beyond_path = tmp_path / "beyond.csv"
        for argv, reader in (
            (("stats", "--order", "43", "--grid", "0:0.1:0.05"), "order 43"),
            (("mc", "--method", "series", "--samples", "10", "--order", "43",
              "--grid", "0:0.1:0.05"), "order 43"),
            (rk4[:-2] + ("--input-truncation", "41"), "input truncation 41"),
        ):
            code, _, err = run(capsys, argv[0], "beta_series", *argv[1:], "--out", str(beyond_path))
            assert (code, err) == (1, f"error: {beyond.format(reader)}\n")
            assert not beyond_path.exists()

    @pytest.mark.parametrize("argv,message", [
        (("solve", "hermite_forced", "--order", "100000000"),
         "truncation order 100000000 is over the limit 4096"),
        (("stats", "hermite_forced", "--order", "100000", "--grid", "0:1:0.5"),
         "truncation order 100000 is over the limit 4096"),
        (("mc", "hermite_forced", "--method", "series", "--samples", "10", "--order", "5000",
          "--grid", "0:1:0.5"), "truncation order 5000 is over the limit 4096"),
        (("majorant", "hermite_forced", "--s", "0.9", "--order", "3000000"),
         "majorant order 3000000 is over the limit 8192"),
    ], ids=["solve", "stats", "mc", "majorant"])
    def test_order_over_limit(self, capsys, tmp_path, argv, message):
        # each fails before it builds a coefficient
        out_path = tmp_path / "out.csv"
        code, _, err = run(capsys, *argv, "--out", str(out_path))
        assert (code, err) == (1, f"error: {message}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [("check",), ("solve",), MC_RK4], ids=["check", "solve", "mc-rk4"])
    @pytest.mark.parametrize("index", [10**20, 2**64], ids=["10^20", "2^64"])
    def test_series_index_over_limit(self, capsys, tmp_path, argv, index):
        # rejected at load, the limit a generator's M has, before numpy meets the index
        doc = {"symbols": [{"name": "A", "dist": "bernoulli", "params": {"p": "1/2"}}],
               "series": {"B": [{"n": index, "value": "A"}]}, "initial": {"Y0": 1, "Y1": 0}}
        path = tmp_path / "index.spec"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "out.csv"
        out_flag = () if argv[0] == "check" else ("--out", str(out_path))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:], *out_flag)
        assert (code, out) == (1, "")
        assert err == f"error: series B: index = {index} is over the limit {MAX_GENERATOR_M}\n"
        assert not out_path.exists()

    def test_series_index_at_limit(self, capsys, tmp_path):
        # an index of the limit loads; 1.5^4096 is past float range, which the majorant names
        doc = {"symbols": [{"name": "A", "dist": "bernoulli", "params": {"p": "1/2"}}],
               "series": {"B": [{"n": MAX_GENERATOR_M, "value": "A"}]},
               "initial": {"Y0": 1, "Y1": 0}}
        path = tmp_path / "index.spec"
        path.write_text(json.dumps(doc))
        assert run(capsys, "check", str(path))[0] == 0
        code, _, err = run(capsys, "majorant", str(path), "--s", "1.5",
                           "--out", str(tmp_path / "h.csv"))
        assert (code, err) == (1, "error: a value is out of float range"
                                  " (the majorant at s=1.5 is not finite)\n")

    @pytest.mark.parametrize("argv", [("check",), ("solve",), ("stats", "--grid", "0:1:0.5"),
                                      MC_SERIES, MC_RK4, ("majorant", "--s", "0.5")],
                             ids=["check", "solve", "stats", "mc-series", "mc-rk4", "majorant"])
    @pytest.mark.parametrize("patch,message", [
        ({"problem": {"t0": "1e400"}}, "'t0' is out of float range, got a value of 401 digits"),
        ({"problem": {"radius": "1e400"}}, "radius is out of float range, got a value of 401 digits"),
        # past 4300 digits, where `str` of the integer would itself raise
        ({"problem": {"t0": "1e4300"}}, "'t0' is out of float range, got a value of 4301 digits"),
        ({"symbols": [{"name": "A", "dist": "uniform", "params": {"a": 0, "b": "1e4300"}}]},
         "symbol 'A': uniform b is out of float range, got a value of 4301 digits"),
    ], ids=["t0-'t0'", "radius-radius", "t0-1e4300", "uniform-b-1e4300"])
    def test_problem_value_out_of_float_range(self, capsys, tmp_path, argv, patch, message):
        doc = {"symbols": [{"name": "A", "dist": "bernoulli", "params": {"p": "1/2"}}],
               "series": {"B": [{"n": 0, "value": "A"}]}, "initial": {"Y0": 1, "Y1": 0}, **patch}
        path = tmp_path / "range.spec"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "out.csv"
        out_flag = () if argv[0] == "check" else ("--out", str(out_path))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:], *out_flag)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"
        assert not out_path.exists()

    def test_missing_file_is_validation_failure(self, capsys):
        code, _, err = run(capsys, "check", "nowhere.spec")
        assert code == 1
        assert "no such problem file" in err

    def test_check_names_undecodable_spec(self, capsys, tmp_path):
        path = tmp_path / "bad.spec"
        text = resolve_problem("hermite_forced").read_bytes()
        path.write_bytes(text.replace(b'"hermite_forced"', b'"hermite\xff"'))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff in position ")
        assert err.count("\n") == 1

    def test_files_are_utf8_in_any_locale(self, tmp_path):
        # a problem file with a non-ASCII name, and a curve file written and
        # read back, where the locale's preferred encoding is ASCII
        doc = json.loads(resolve_problem("hermite_forced").read_text(encoding="utf-8"))
        spec, curve = tmp_path / "forced.spec", tmp_path / "stats.csv"
        spec.write_text(json.dumps(dict(doc, name="forcé"), ensure_ascii=False), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(rf.__file__).parents[1]),
                   PYTHONUTF8="0", LC_ALL="C")
        for argv in (["check", str(spec)],
                     ["stats", str(spec), "--order", "4", "--grid", "0:1:0.5", "--out", str(curve)],
                     ["compare", str(curve), str(curve)]):
            proc = subprocess.run([sys.executable, "-m", "randfrob", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr

    def test_python_m_entry_point(self, capsys):
        # the package run as a module, from the source tree it was imported from
        env = dict(os.environ, PYTHONPATH=str(Path(rf.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "randfrob", "check", "hermite_forced"],
                              capture_output=True, text=True, env=env, timeout=120)
        code, out, _ = run(capsys, "check", "hermite_forced")
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")
        assert code == 0 and out.startswith("status: pass")

    def test_exact_commands_do_not_import_numpy(self, tmp_path):
        # a fresh interpreter: only sampling (and solve's term sort) imports numpy
        script = """
import sys
import randfrob
from randfrob.cli import run_command
out = sys.argv[1]
for name in randfrob.bundled_problems():
    randfrob.load_problem(name)
    for argv in (["check", name],
                 ["stats", name, "--order", "6", "--grid", "0:0.2:0.1", "--out", out + "/s.csv"],
                 ["majorant", name, "--s", "0.5", "--order", "6", "--out", out + "/m.csv"],
                 ["compare", out + "/s.csv", out + "/s.csv"]):
        assert run_command(argv) == 0, argv
print("numpy" in sys.modules, file=sys.stderr)
run_command(["mc", "hermite_forced", "--method", "series", "--samples", "10",
             "--grid", "0:0.2:0.1", "--out", out + "/mc.csv"])
print("numpy" in sys.modules, file=sys.stderr)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(rf.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split() == ["False", "True"]

    def test_mc_series_warns_outside_radius(self, tmp_path):
        # on stderr, as a user sees it; the run still writes every row
        out_path = tmp_path / "mc.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(rf.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "randfrob", "mc", "beta_series", "--method", "series",
             "--samples", "100", "--order", "20", "--grid", "0:2:1", "--out", str(out_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [
            f"warning: grid point t={t} lies outside the declared radius" for t in (1, 2)]
        assert ".py:" not in proc.stderr
        assert len(out_path.read_text().splitlines()) == 4

    @pytest.mark.parametrize("radius,grid", [("1/10", "0:0.1:0.1"), ("3/10", "0:0.3:0.3")])
    def test_radius_warning_at_boundary(self, capsys, tmp_path, radius, grid):
        # |t - t0| >= radius holds exactly at the last point, which is not
        # the case for float(t) and float(radius) in both examples
        doc = {
            "problem": {"t0": 0, "radius": radius, "order": 4},
            "symbols": [{"name": "b", "dist": "uniform", "params": {"a": 0, "b": 1}}],
            "series": {"B": [{"n": 0, "value": "b"}]},
            "initial": {"Y0": 1, "Y1": 0},
        }
        path = tmp_path / "radius.spec"
        path.write_text(json.dumps(doc))
        boundary = float(Fraction(radius))
        for argv in (("stats",), ("mc", "--method", "series", "--samples", "10")):
            with pytest.warns(UserWarning) as record:
                code, _, _ = run(capsys, argv[0], str(path), *argv[1:], "--grid", grid,
                                 "--out", str(tmp_path / "out.csv"))
            assert code == 0
            assert [str(w.message) for w in record] == [
                f"grid point t={boundary:g} lies outside the declared radius"]

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_parser_reuse_matches_fresh_parser(self, capsys, tmp_path, monkeypatch):
        # The parser is built once per process; a flag given in one call must
        # not carry over to the next, so every call goes as with a fresh parser.
        grid = ("--grid", "0:0.2:0.1")
        sequence = [
            ("stats", "hermite_forced", *grid, "--full-precision"),
            ("stats", "hermite_forced", *grid),
            ("mc", "hermite_forced", "--method", "rk4", "--step", "0.1", "--samples", "10", *grid),
            ("mc", "hermite_forced", "--method", "series", "--samples", "10", *grid),
            ("--help",),
            ("stats", "hermite_forced", "--order"),
        ]

        def outcomes():
            results = []
            for i, argv in enumerate(sequence):
                out_path = tmp_path / f"{i}.csv"
                out_flag = ("--out", str(out_path)) if argv[0] != "--help" else ()
                code, out, err = run(capsys, *argv, *out_flag)
                written = out_path.read_bytes() if out_path.exists() else None
                results.append((code, out, err, written))
                out_path.unlink(missing_ok=True)
            return results

        reused = outcomes()
        assert cli._build_parser() is cli._build_parser()
        assert [r[0] for r in reused] == [0, 0, 0, 0, 0, 2]
        assert reused[0][3] != reused[1][3]  # full precision, then 6 digits
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert outcomes() == reused
