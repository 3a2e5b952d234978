"""CLI tests: command surface, exit codes, serialization, determinism."""

import hashlib
import json
import math

import pytest

from globalzeta.cli import main, parse_and_dispatch, render_report
from globalzeta.ffield import galois_field
from globalzeta.verify import FunctionalEquationReport, SweepSummary

SWEEP_ARGS = [
    "sweep",
    "--field", "Q",
    "--grid", "0.1:0.9:3,0:10:3",
    "--tol", "1e-9",
    "--format", "json",
]


class TestExitCodes:
    def test_check_ok_is_zero(self):
        code, out = parse_and_dispatch(
            ["check", "--field", "Q", "--s", "2", "--tol", "1e-9", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reports"][0]["status"] == "ok"
        assert payload["reports"][0]["residual"] <= 1e-10

    def test_failed_report_is_one(self):
        code, out = parse_and_dispatch(
            ["check", "--field", "Q", "--s", "0.3", "--tol", "1e-18"]
        )
        assert code == 1
        assert json.loads(out)["reports"][0]["status"] == "failed"

    def test_sweep_failed_nodes_are_one(self):
        code, out = parse_and_dispatch(SWEEP_ARGS[:-2] + ["--tol", "1e-18"])
        assert code == 1
        assert json.loads(out)["summary"]["failed"] > 0

    def test_skipped_nodes_still_zero(self):
        code, out = parse_and_dispatch(
            ["check", "--field", "Q", "--s", "1", "--tol", "1e-9"]
        )
        assert code == 0
        assert json.loads(out)["reports"][0]["status"] == "near_pole_skipped"

    def test_usage_error_is_two(self, capsys):
        code, _ = parse_and_dispatch(["check", "--field", "Q"])  # missing --s
        assert code == 2
        assert "--s" in capsys.readouterr().err

    def test_unknown_command_is_two(self):
        code, _ = parse_and_dispatch(["frobnicate"])
        assert code == 2

    def test_bad_field_spec_is_two(self, capsys):
        code, _ = parse_and_dispatch(["covolume", "--field", "Q(sqrt=12)"])
        assert code == 2
        assert "squarefree" in capsys.readouterr().err

    def test_symmetry_violation_is_two(self, capsys):
        code, _ = parse_and_dispatch(
            ["check", "--field", "curve?q=5&L=1,3,7", "--s", "2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "symmetry" in err and "index 0" in err

    def test_bad_s_token_is_two(self, capsys):
        code, _ = parse_and_dispatch(["eval", "--field", "Q", "--s", "two"])
        assert code == 2
        assert "'two'" in capsys.readouterr().err

    def test_bad_grid_token_is_two(self, capsys):
        code, _ = parse_and_dispatch(
            ["sweep", "--field", "Q", "--grid", "0.1:0.9", "--tol", "1e-9"]
        )
        assert code == 2
        assert "0.1:0.9" in capsys.readouterr().err

    def test_pole_point_is_two(self, capsys):
        code, _ = parse_and_dispatch(["eval", "--field", "Q", "--s", "1"])
        assert code == 2
        assert "pole" in capsys.readouterr().err


class TestCommands:
    def test_covolume_gaussian_prints_two(self):
        code, out = parse_and_dispatch(["covolume", "--field", "Q(sqrt=-1)"])
        assert (code, out) == (0, "2")

    def test_covolume_function_field_exact_fraction(self):
        assert parse_and_dispatch(["covolume", "--field", "Fq(T)?q=5"]) == (0, "1/5")
        assert parse_and_dispatch(["covolume", "--field", "curve?q=5&L=1,3,5"]) == (0, "1")

    def test_covolume_irrational(self):
        code, out = parse_and_dispatch(["covolume", "--field", "Q(sqrt=5)"])
        assert code == 0
        assert float(out) == math.sqrt(5)

    def test_eval_json(self):
        code, out = parse_and_dispatch(
            ["eval", "--field", "Q", "--s", "2", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["completed_re"] - math.pi / 6) < 1e-12
        assert payload["precision_cliff"] is False
        assert payload["field"] == "Q"

    def test_eval_complex_point(self):
        code, out = parse_and_dispatch(
            ["eval", "--field", "Q(sqrt=-1)", "--s", "0.5,3.25", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["s_re"] == 0.5 and payload["s_im"] == 3.25

    def test_places_csv(self):
        code, out = parse_and_dispatch(
            ["places", "--field", "Fq(T)?q=2", "--bound", "4", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines() == [
            "qv,kind,label",
            "2,infinite,inf",
            "2,monic_irreducible,T",
            "2,monic_irreducible,T+1",
            "4,monic_irreducible,T^2+T+1",
            "# count=4",
        ]

    def test_places_json(self):
        code, out = parse_and_dispatch(
            ["places", "--field", "Q(sqrt=-1)", "--bound", "10", "--format", "json"]
        )
        payload = json.loads(out)
        assert code == 0
        assert [p["qv"] for p in payload["places"]] == [2, 5, 5, 9]
        assert payload["count"] == 4

    def test_euler_check_json(self):
        code, out = parse_and_dispatch(
            ["euler-check", "--field", "Q", "--s", "3", "--bound", "100"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["gap"] <= payload["tail_bound"]

    def test_sweep_csv_shape(self):
        code, out = parse_and_dispatch(
            ["sweep", "--field", "Q", "--grid", "0.3:0.7:2,0:5:2", "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "s_re,s_im,lhs_re,lhs_im,rhs_re,rhs_im,residual,pole_distance,status"
        assert len(lines) == 1 + 4 + 1
        assert lines[-1].startswith("# ok=4,skipped=0,failed=0,max_residual=")


# sha256 of `places --field "Fq(T)?q=<q>" --bound 7200` for each q and
# format.  7200 = min(q^(d+1) - 1, 7200) for the largest degree d the
# exact-cold benchmark workload asks about (12, 8, 6, 5, 4, 4, 4), so
# every place of degree <= d is listed.  Any change to the irreducibles,
# their order, the GF(p^k) modulus or the field tables changes a digest.
GOLDEN_PLACES = {
    (2, "json"): "7daf86f4f5172526d62b93d6a2f50b0d23c46eba5933d1be806c0f500aa44c1a",
    (2, "csv"): "d2868ddd0031bdcfc36447a37b1c9ca29713cb436e44d02cc50edd910de14a49",
    (3, "json"): "203ff8f700ba9c037512daff39b3ffd6a0f94c7821e1104e1e49c427bdf88acb",
    (3, "csv"): "fda3d6eba692916b8c2a48ae5b360f9028c704cc68a572f4fee3ba78f55b43a7",
    (4, "json"): "fe1e21ff9b46212eaff7e692c0855417cfe88cfc69b55ebb00b93f55d11158fe",
    (4, "csv"): "f0e097ba9d4648eb7c619472535179eaa1777cd137a49b42adffe4b448e228f8",
    (5, "json"): "2ecb801a8aad1adb1d5efd22c83a38e6fcca1294e9710064df9bf305bfcb1117",
    (5, "csv"): "7d8b1e4273d37b5d0c919ac69bdf831b67d4518c311a3fff837f3791f109d66d",
    (7, "json"): "c7dfc18506b68a5db3f47514bb6d2d0a3c21b89d2e7dec0c7dc43d1861a28aad",
    (7, "csv"): "7cba82710853289d2de2028d37a76f830adf343997f93f941b399ecbb90516f4",
    (8, "json"): "09214be538e2ade0101811812bd3946f6c4d775301e7b3c752ff51c1c1353d96",
    (8, "csv"): "cf9c024bd102ef445342cf0013a249f629ad0929e32476c2a038bd9a16e8ff20",
    (9, "json"): "6663f47bfa82d1f073dc044ada11bf0ed13c07e8789cc2ae64760efa446f9ae6",
    (9, "csv"): "5fc4e70c1cc896b095cd064fff1380201aa16af77adc7db3a36cd40d64062e95",
}


class TestGoldenOutput:
    @pytest.mark.parametrize("q, fmt", sorted(GOLDEN_PLACES))
    def test_places_digest(self, q, fmt):
        code, out = parse_and_dispatch(
            ["places", "--field", f"Fq(T)?q={q}", "--bound", "7200", "--format", fmt]
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_PLACES[q, fmt]

    def test_extension_field_moduli(self):
        assert galois_field(4).modulus == (1, 1, 1)
        assert galois_field(8).modulus == (1, 1, 0, 1)
        assert galois_field(9).modulus == (1, 0, 1)


class TestSerialization:
    def test_determinism(self):
        first = parse_and_dispatch(SWEEP_ARGS)
        second = parse_and_dispatch(SWEEP_ARGS)
        assert first == second
        assert first[1]  # non-empty

    def test_json_round_trip_is_byte_identical(self):
        _, out = parse_and_dispatch(SWEEP_ARGS)
        payload = json.loads(out)
        reports = [
            FunctionalEquationReport(
                s=complex(r["s_re"], r["s_im"]),
                lhs=None if r["lhs_re"] is None else complex(r["lhs_re"], r["lhs_im"]),
                rhs=None if r["rhs_re"] is None else complex(r["rhs_re"], r["rhs_im"]),
                relative_residual=r["residual"],
                pole_distance_min=r["pole_distance"],
                status=r["status"],
            )
            for r in payload["reports"]
        ]
        summary = SweepSummary(
            field=payload["summary"]["field"],
            grid=payload["summary"]["grid"],
            count_ok=payload["summary"]["ok"],
            count_skipped=payload["summary"]["skipped"],
            count_failed=payload["summary"]["failed"],
            max_residual=payload["summary"]["max_residual"],
        )
        assert render_report(reports, summary, "json") == out

    def test_seventeen_digit_round_trip(self):
        _, out = parse_and_dispatch(SWEEP_ARGS)
        for r in json.loads(out)["reports"]:
            for key in ("lhs_re", "rhs_re", "residual", "pole_distance"):
                v = r[key]
                assert float(format(v, ".17g")) == v

    def test_skipped_node_serializes_null_and_empty(self):
        args = ["check", "--field", "Q", "--s", "1"]
        _, out_json = parse_and_dispatch(args + ["--format", "json"])
        r = json.loads(out_json)["reports"][0]
        assert r["lhs_re"] is None and r["residual"] is None
        _, out_csv = parse_and_dispatch(args + ["--format", "csv"])
        row = out_csv.splitlines()[1].split(",")
        assert row[2] == "" and row[6] == ""
        assert row[8] == "near_pole_skipped"

    def test_output_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out = parse_and_dispatch(
            ["check", "--field", "Q", "--s", "2", "--output", str(target)]
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["reports"][0]["status"] == "ok"

    def test_env_var_default_format(self, monkeypatch):
        monkeypatch.setenv("GLOBALZETA_FORMAT", "csv")
        _, out = parse_and_dispatch(["check", "--field", "Q", "--s", "2"])
        assert out.splitlines()[0].startswith("s_re,s_im,")
        monkeypatch.delenv("GLOBALZETA_FORMAT")
        _, out = parse_and_dispatch(["check", "--field", "Q", "--s", "2"])
        assert out.startswith('{"reports"')

    def test_main_prints_and_returns(self, capsys):
        code = main(["covolume", "--field", "Q(sqrt=-1)"])
        assert code == 0
        assert capsys.readouterr().out == "2\n"
