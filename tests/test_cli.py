"""CLI tests: command surface, exit codes, serialization, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from itertools import chain
from pathlib import Path

import oracles
import pytest

from globalzeta import (Place, local_euler_factor, lpoly_from_point_counts, make_curve_function_field, make_rationals,
                        parse_field_spec, truncated_euler_product)
from globalzeta.cli import COMMANDS, _parse, main, parse_and_dispatch, render_report
from globalzeta.errors import DomainError
from globalzeta.ffield import galois_field, monic_irreducibles
from globalzeta.verify import FunctionalEquationReport, SweepSummary

SWEEP_ARGS = [
    "sweep",
    "--field", "Q",
    "--grid", "0.1:0.9:3,0:10:3",
    "--tol", "1e-9",
    "--format", "json",
]

# Refusals of malformed input: a CLI argv and its exit code, or a library
# call and its exception, with the whole message.
REFUSALS = [
    (["sweep", "--field", "Q", "--grid", "0.1:0.9:3,0:1"], 2, "bad --grid axis '0:1'; expected min:max:steps"),
    (["sweep", "--field", "Q", "--grid", "0.1:0.9:x,0:1:2"], 2, "bad --grid axis '0.1:0.9:x'; non-numeric token"),
    (["covolume", "--field", "curve?q&L=1"], 2, "field spec 'curve?q&L=1': bad parameter 'q'"),
    (["covolume", "--field", "curve?=5&L=1"], 2, "field spec 'curve?=5&L=1': bad parameter '=5'"),
    (["covolume", "--field", "curve?q=5&q=5&L=1"], 2, "field spec 'curve?q=5&q=5&L=1': duplicate parameter 'q'"),
    (["covolume", "--field", "curve?L=1,3,5"], 2, "field spec 'curve?L=1,3,5': missing parameter q"),
    (lambda: make_curve_function_field(6, (1,)), DomainError, "make_curve_function_field: 6 is not a prime power"),
    (lambda: lpoly_from_point_counts(6, 0, ()), DomainError, "lpoly_from_point_counts: 6 is not a prime power"),
    (lambda: lpoly_from_point_counts(5, -1, ()), DomainError, "lpoly_from_point_counts: genus must be >= 0"),
    (lambda: galois_field(6), DomainError, "6 is not a prime power"),
    (lambda: monic_irreducibles(5, 0), DomainError, "degree must be >= 1"),
    # q_v^-s past binary64 and |s| past MAX_ABS_S, in a local factor of each field kind and in Q's product
    (lambda: local_euler_factor(make_rationals(), Place(2, "rational_prime", "2"), -2000), DomainError,
     "at s = (-2000+0j) the terms reach exp(1386.3), past MAX_LOG_TERM = 707.7 (binary64 overflow)"),
    (lambda: local_euler_factor(make_rationals(), Place(2, "rational_prime", "2"), 0.5 + 1e6j), DomainError,
     "|s| = 1000000.000000125 exceeds MAX_ABS_S = 10000; the phase of q^-s carries a rounding error of about |Im s| 2^-53"),
    (lambda: local_euler_factor(parse_field_spec("Fq(T)?q=5"), Place(5, "monic_irreducible", "T"), 0.5 + 1e6j),
     DomainError,
     "|s| = 1000000.000000125 exceeds MAX_ABS_S = 10000; the phase of q^-s carries a rounding error of about |Im s| 2^-53"),
    (lambda: truncated_euler_product(make_rationals(), 2 + 1e6j, 10), DomainError,
     "|s| = 1000000.000002 exceeds MAX_ABS_S = 10000; the phase of q^-s carries a rounding error of about |Im s| 2^-53"),
]


@pytest.mark.parametrize("call, outcome, message", REFUSALS)
def test_refusals(capsys, call, outcome, message):
    if isinstance(call, list):
        assert parse_and_dispatch(call) == (outcome, "")
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        with pytest.raises(outcome) as caught:
            call()
        assert type(caught.value) is outcome and str(caught.value) == message


class TestExitCodes:
    def test_check_ok_is_zero(self):
        code, out = parse_and_dispatch(
            ["check", "--field", "Q", "--s", "2", "--tol", "1e-9", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reports"][0]["status"] == "ok"
        assert payload["reports"][0]["residual"] <= 1e-10

    @pytest.mark.parametrize("field, s", [("Q(sqrt=5)", "10,0"), ("Q(sqrt=13)", "6,0")])
    def test_check_at_a_negative_integer_anchor_is_ok(self, field, s):
        # Z(1 - s) needs L(-9, chi_5) and L(-5, chi_13), whose per-class
        # sums are exact with no shift (both failed at N = 20)
        code, out = parse_and_dispatch(["check", "--field", field, f"--s={s}"])
        assert code == 0
        assert json.loads(out)["reports"][0]["status"] == "ok"

    @pytest.mark.parametrize("field, s", [("Q(sqrt=-3)", "5"), ("Q", "-3.99999")])
    def test_check_at_a_cancelled_pole_anchor_is_ok(self, field, s):
        # Z(-4) and Z(-3.99999) take the deflated zeta_k(s) / (s + 4); its
        # finite-difference derivatives at -4 left residuals of 6.3e-9 and
        # 1.4e-6 here, the contour mean 2.8e-11 and 8.8e-11
        code, out = parse_and_dispatch(["check", "--field", field, f"--s={s}"])
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["status"] == "ok" and report["residual"] <= 2e-10

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

    @pytest.mark.parametrize(
        "field, s, limit",
        [
            ("Q", "0.5,10000", "MAX_ABS_S"),
            ("Q(sqrt=-131059)", "2", "MAX_TABLE_ENTRIES"),
            ("Q", "-150", "MAX_LOG_TERM"),
            ("Q(sqrt=1000000000001)", "2", "MAX_FACTOR_INPUT"),
        ],
    )
    def test_cost_limit_is_two(self, capsys, field, s, limit):
        # just over each kernel cost limit; see tests/test_kernel.py::TestCostLimits
        code, out = parse_and_dispatch(["eval", "--field", field, "--s", s])
        assert (code, out) == (2, "")
        assert limit in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--field", "Fq(T)?q=2", "--s=0.5,1e300"],
            ["check", "--field", "Fq(T)?q=3", "--s=0.3,1e20"],
            ["euler-check", "--field", "Fq(T)?q=4", "--s=2,1e300", "--bound", "100"],
        ],
        ids=["eval", "check", "euler-check"],
    )
    def test_function_field_abs_s_limit_is_two(self, capsys, argv):
        # the phase Im(s) log q of q^-s has no correct digit at these |s|
        code, out = parse_and_dispatch(argv)
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert "MAX_ABS_S" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--field", "Q", "--grid=0.1:0.9:2,0:10:1", "--tol=inf"],
            ["check", "--field", "Q", "--s=0.5,3", "--tol=1e400"],
        ],
        ids=["inf", "1e400"],
    )
    def test_infinite_tolerance_is_two(self, capsys, argv):
        # every residual is below an infinite tolerance: each verdict would be ok
        code, out = parse_and_dispatch(argv)
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert "tolerance must be positive and finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--field", "Q", "--s", "500"],
            ["eval", "--field", "Q(sqrt=-1)", "--s=-100"],
            ["eval", "--field", "Fq(T)?q=5", "--s=-450"],
            ["check", "--field", "Fq(T)?q=5", "--s", "450"],
            ["check", "--field", "Fq(T)?q=5", "--s=-450"],
            ["eval", "--field", "curve?q=5&L=1," + "0," * 999 + str(5 ** 500), "--s", "2"],
            ["eval", "--field", "Q(sqrt=-2351)", "--s=-75.5,9990"],
        ],
        ids=["gamma", "deflated", "q^-s", "check-lhs", "check-beta", "curve-coefficient", "moment-far-left"],
    )
    def test_binary64_overflow_is_two(self, capsys, argv):
        # Gamma factor, deflated product, GF(5)(T)'s q^-s, Z(1-s),
        # beta^(2s-1), an L-polynomial coefficient (5^500, genus 500) and
        # the pole term of L(s, chi_-2351), refused before dirichlet_l
        # plans its moment series: each leaves binary64, which must not
        # escape as an OverflowError or print inf/nan with exit code 0
        code, out = parse_and_dispatch(argv)
        assert (code, out) == (2, "")
        assert "MAX_LOG_TERM" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (["places", "--field", "Q", "--bound", "131073"], "MAX_NORM_BOUND"),
            (["euler-check", "--field", "Fq(T)?q=2", "--s", "2", "--bound", "131073"], "MAX_NORM_BOUND"),
            (["sweep", "--field", "Q", "--grid", "0.1:0.9:317,0:10:316"], "MAX_GRID_NODES"),
            (["sweep", "--field", "Q", "--grid=0.1:0.9:1000000000,0:1:0"], "im steps must be >= 1"),
        ],
        ids=["places", "euler-check", "sweep", "sweep-zero-steps"],
    )
    def test_request_size_limit_is_two(self, capsys, argv, limit):
        # one over MAX_NORM_BOUND = 2**17, 317 * 316 nodes, just over 10^5,
        # and 10^9 * 0 nodes, whose re axis must not be laid out
        code, out = parse_and_dispatch(argv)
        assert (code, out) == (2, "")
        assert limit in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, named",
        [
            ("0.1:inf:2,0:1:2", "re range [0.1, inf]"),
            ("0.1:0.9:2,nan:1:2", "im range [nan, 1.0]"),
            ("-1e308:1e308:3,0:1:1", "re range [-1e+308, 1e+308]"),
        ],
        ids=["inf", "nan", "span-overflow"],
    )
    def test_non_finite_grid_bound_is_two(self, capsys, grid, named):
        # the diagnostic names the range the user wrote, not a nan node
        # computed from it (0 * inf)
        code, out = parse_and_dispatch(["sweep", "--field", "Q", f"--grid={grid}"])
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert named in err and "nan+" not in err

    def test_pole_point_is_two(self, capsys):
        code, _ = parse_and_dispatch(["eval", "--field", "Q", "--s", "1"])
        assert code == 2
        assert "pole" in capsys.readouterr().err

    def test_closed_stdout_is_141_without_traceback(self):
        # 2.2 MB of places, far more than a pipe holds, so the process is
        # still writing when the reader leaves after one line
        argv = ["places", "--field", "Fq(T)?q=343", "--bound", "117649", "--format", "csv"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen([sys.executable, "-m", "globalzeta.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"qv,kind,label\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert "Traceback" not in err and "Exception" not in err, err


class TestImport:
    def test_cli_import_skips_dataclasses_and_inspect(self):
        # nor json, nor fractions (dirichlet_l's exact moments are plain
        # integer sums); -S keeps site-packages hooks from importing any of them first
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = "import sys, globalzeta.cli; print(sorted({'dataclasses', 'inspect', 'json', 'fractions'} & set(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_cli_places_loads_neither_argparse_nor_gettext(self):
        # the option table parses argv and prints help without them
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = (
            "import sys\n"
            "from globalzeta.cli import parse_and_dispatch\n"
            "assert parse_and_dispatch(['places', '--field', 'Fq(T)?q=3', '--bound', '27'])[0] == 0\n"
            "assert parse_and_dispatch(['places', '-h'])[0] == 0\n"
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    # The evaluator modules, which a command compiles only when it evaluates.
    EVALUATORS = ("globalzeta.kernel", "globalzeta.zeta", "globalzeta.verify")

    def _loaded_after(self, steps: str) -> list[list[str]]:
        # Runs steps in a fresh python -S; each loaded() call records which
        # EVALUATORS are in sys.modules at that point.
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = (
            "import json, sys\n"
            f"watched = {self.EVALUATORS!r}\n"
            "seen = []\n"
            "def loaded():\n"
            "    seen.append([m for m in watched if m in sys.modules])\n"
            f"{steps}\n"
            "print(json.dumps(seen))\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    def test_places_and_covolume_load_no_evaluator(self):
        specs = ["Q", "Q(sqrt=-1)", "Q(sqrt=5)", "Fq(T)?q=4", "curve?q=5&L=1,3,5", "curve?q=5&N=4"]
        steps = (
            "import globalzeta.cli\n"
            "loaded()\n"
            "from globalzeta.fields import parse_field_spec\n"
            f"for spec in {specs!r}:\n"
            "    parse_field_spec(spec)\n"
            "loaded()\n"
            "from globalzeta.cli import parse_and_dispatch\n"
            f"for spec in {specs!r}:\n"
            "    assert parse_and_dispatch(['covolume', '--field', spec])[0] == 0\n"
            "    # curves carry no place list: refused with exit code 2\n"
            "    code = parse_and_dispatch(['places', '--field', spec, '--bound', '30'])[0]\n"
            "    assert code == (2 if spec.startswith('curve') else 0)\n"
            "loaded()"
        )
        assert self._loaded_after(steps) == [[], [], []]

    def test_evaluating_commands_load_their_modules(self):
        steps = (
            "from globalzeta.cli import parse_and_dispatch\n"
            "assert parse_and_dispatch(['eval', '--field', 'Q(sqrt=-1)', '--s', '2'])[0] == 0\n"
            "loaded()\n"
            "assert parse_and_dispatch(['euler-check', '--field', 'Q', '--s', '2', '--bound', '50'])[0] == 0\n"
            "loaded()"
        )
        kernel, zeta, verify = self.EVALUATORS
        assert self._loaded_after(steps) == [[kernel, zeta], [kernel, zeta, verify]]

    def test_public_names_are_their_modules_objects(self):
        steps = (
            "import importlib, globalzeta\n"
            "for module, names in globalzeta._EXPORTS.items():\n"
            "    defining = importlib.import_module('globalzeta.' + module)\n"
            "    for name in names:\n"
            "        assert getattr(globalzeta, name) is getattr(defining, name), name\n"
            "assert sorted(globalzeta.__all__) == sorted(n for names in globalzeta._EXPORTS.values() for n in names)\n"
            "assert set(globalzeta.__all__) <= set(dir(globalzeta))\n"
            "namespace = {}\n"
            "exec('from globalzeta import *', namespace)\n"
            "assert all(namespace[name] is getattr(globalzeta, name) for name in globalzeta.__all__)\n"
            "loaded()"
        )
        assert self._loaded_after(steps) == [list(self.EVALUATORS)]

    def test_zeta_stays_the_function_after_its_module_loads(self):
        steps = (
            "import globalzeta, globalzeta.verify, types\n"
            "assert callable(globalzeta.zeta) and not isinstance(globalzeta.zeta, types.ModuleType)\n"
            "assert isinstance(sys.modules['globalzeta.zeta'], types.ModuleType)\n"
            "assert globalzeta.zeta is sys.modules['globalzeta.zeta'].zeta\n"
            "from globalzeta import zeta\n"
            "assert zeta is sys.modules['globalzeta.zeta'].zeta\n"
            "loaded()"
        )
        assert self._loaded_after(steps) == [list(self.EVALUATORS)]

    def test_zeta_stays_the_function_after_a_cli_eval(self):
        # the submodule is first loaded by the CLI, before the package name is read
        steps = (
            "import types\n"
            "from globalzeta.cli import parse_and_dispatch\n"
            "assert parse_and_dispatch(['eval', '--field', 'Q', '--s', '2'])[0] == 0\n"
            "import globalzeta\n"
            "assert globalzeta.zeta is sys.modules['globalzeta.zeta'].zeta\n"
            "assert isinstance(sys.modules['globalzeta.zeta'], types.ModuleType)\n"
            "loaded()"
        )
        assert self._loaded_after(steps) == [list(self.EVALUATORS[:2])]

    def test_unknown_name_is_attribute_error(self):
        import globalzeta

        with pytest.raises(AttributeError, match="no_such_name"):
            globalzeta.no_such_name


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

    def test_eval_real_point_is_real(self):
        code, out = parse_and_dispatch(["eval", "--field", "Q", "--s=-0.5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["zeta_im"] == payload["gamma_im"] == payload["completed_im"] == 0
        assert '"completed_im":0,' in out

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

    def test_places_below_infinite_place_is_empty(self):
        args = ["places", "--field", "Fq(T)?q=5", "--bound", "4", "--format"]
        assert parse_and_dispatch(args + ["csv"]) == (0, "qv,kind,label\n# count=0")
        payload = json.loads(parse_and_dispatch(args + ["json"])[1])
        assert payload["places"] == [] and payload["count"] == 0

    @pytest.mark.parametrize(
        "field, s, bound",
        [("Fq(T)?q=5", "2", "4"), ("Q(sqrt=5)", "2", "3"), ("Q(sqrt=-3)", "3", "2")],
    )
    def test_euler_check_of_an_empty_product_is_two(self, capsys, field, s, bound):
        # no place has q_v <= bound, so the truncated product is the empty 1
        code, out = parse_and_dispatch(["euler-check", "--field", field, f"--s={s}", "--bound", bound])
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"bound = {bound}" in err

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
# their order or the GF(p^k) modulus changes a digest.
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


# sha256 of one command per kind of report, in both formats, recorded
# before the CLI's serializers were merged into one.  Those of the commands
# that evaluate a number field were re-recorded when the Euler-Maclaurin
# shift count came from its remainder bound and real points got real
# values, those with a precision_cliff point when the deflated zeta
# became a contour mean, and those that evaluate a number field again when
# log Gamma became Stirling's series (CHANGES.md lists each with its
# largest value change).  The cases cover
# ok, skipped (null/empty cells) and failed check rows, failed sweep
# rows, a precision_cliff eval record with a negative zero, a curve
# field, and the places and euler-check layouts.
GOLDEN_COMMANDS = {
    ("eval", "Q", "--s", "2"): (
        "de5f73ee15e3c971fe060e6e4d168f59e2459ba23e663a52e058026ad1a596ab",
        "ec247e720a1bd31d7c4d84072f38d5056ba3c167f45793a67fffa9e1b0b70e54",
    ),
    ("eval", "Q(sqrt=-1)", "--s", "0.5,3.25"): (
        "e92be979dd6d6009fea804c1adc951ac0db63664d32810248c83485bf667fdfd",
        "3bc3e131e1004c4fb0306db72db7939fca3a677a3db579810afe44861e650bc9",
    ),
    ("eval", "Q(sqrt=5)", "--s", "-3.005"): (
        "4319875dd835e926e3564be075ffab867d5292d70bde5f4eac2dcbdd0e941f9b",
        "71a8a8b04c21289f3e04739b5a892155519850650b8a9e8a89a5d09ec01d4059",
    ),
    ("eval", "Q(sqrt=5)", "--s", "-4.005"): (
        "9c4ea797ac91149286292f9889f09958b306aef89d1bf328f030a7014987f34c",
        "9a1da05b12c157fc7fbc7d427824ac2d30c36997e3028edb541d5689632e05a5",
    ),
    ("eval", "curve?q=5&L=1,3,5", "--s", "0.5,3"): (
        "3dbdffb83068621465dfc59e7b3a1a9fd1220b0ec4ed207dd7226226be64dfe1",
        "1f6b4fdfa9dd579b62a079d95cb0dba88f15528649efe6be5934699faeccad49",
    ),
    ("check", "Q", "--s", "2"): (
        "f5155d5e7d88c4418d6acea899653770e9b9a8e9529b8fe72f71ed49751aa6ca",
        "ede647c5f2ad41aaa888d54ec2643d6b33361d413c1df0740c1b1c908d9fafc4",
    ),
    ("check", "Q", "--s", "1"): (
        "4e09e5d2b8750ce3396f8b0e6ee8f1f38e8c7573d546794a316f4e6ac8f0183b",
        "4732961bde5ad44daa41e7e947cb03e8c2841085595acdc266069970db6fe686",
    ),
    ("check", "Q", "--s", "0.3", "--tol", "1e-18"): (
        "8b12e458e6ca0661cb746357194aee3cb637f8ed099488068ddc83f71cc1dedb",
        "4af68e74947a7169956033801b07b869c0fd14a6c72c5370a8332f8bbee943a5",
    ),
    # Re-recorded when dirichlet_l took the moment path for these moduli
    # (tests/oracle_grid.json holds every L-value they use to the old
    # kernel's error); the largest change of an lhs or rhs is 2.3e-14,
    # 1.3e-14 and 3.9e-14 relative for |D| = 163, 1299 and 1001.
    ("sweep", "Q(sqrt=-163)", "--grid", "0.1:0.9:5,0:10:5"): (
        "313c9c832313e4d43691b13c152228f24cdde9aae10bbd5b67060fd3df15a366",
        "f0ad8f8f51d221ff70c236941cc59f743eee8889b930f97497a8d27a8648beec",
    ),
    ("sweep", "Q(sqrt=-1299)", "--grid", "0.1:0.9:4,0:33:3"): (
        "92ef63ee98f49d73c385db0f1106f42a0e87aca8643051d0f94e887832c450de",
        "8c3c594be08363f35ccf59a4488dddec89492847dd0387bc7f67c7c0258193e3",
    ),
    # Im 0..48: the Euler-Maclaurin shift count is 20, 20, 33 and 49 across the nodes
    ("sweep", "Q(sqrt=1001)", "--grid", "0.1:0.9:3,0:48:4"): (
        "10dc4995321abe685febd1071fd378780f0a4cd37ab68da821898bf2c80b143a",
        "275949ead488daa9878ee429229ec14e52dc56d6432447aa998aa51d116e65a8",
    ),
    ("sweep", "Fq(T)?q=5", "--grid", "0:1:3,0:4:3"): (
        "e03f01ce98b9b1bd31956f64d87b82b39784eaf1d1bc65d2142d957e2fdc082a",
        "3cae6e358fa2f31c957a61f0aff263dbb2fc5210acaaaafe88cee615a2cef74d",
    ),
    ("sweep", "Q", "--grid=-5:-3:5,0:0:1"): (
        "b8bc3333d37c4ac5eb60c5e2a32b581ca0a48efa6325d23389345ff6b737a54e",
        "f68a5e3e3cc91eb56f1da8ff29c77785aa4d6ec290623d766dee5f2f38c3d5fe",
    ),
    ("places", "Q(sqrt=-1)", "--bound", "1000"): (
        "73db2393b5df482c72e906161c447da7187f954f3ac02f84633408626a8dd681",
        "a1bbde2f38e9d00590f9573e1ad40ae2eb7abe8a02bd0967883acdd771bf11da",
    ),
    ("euler-check", "Q", "--s", "3", "--bound", "100"): (
        "51c96b7548fb3e3f89f963027a4a69e2a0d9ee23f4c5bbe48efaacd9c08b1d3a",
        "c0d737936b35fddf127667d90abb80bddf85591661401d01f78c3fefd7342826",
    ),
    ("euler-check", "Fq(T)?q=3", "--s", "2,1", "--bound", "500"): (
        "c20bebcf4e65953ce4eef2f2f2722a245e6621d02848f75adc3fee0d29583778",
        "c9fb20238bc7961b023ee64dafb300c833c9125b3e3f42954bca5b7f14dfdabd",
    ),
    # Recorded before places were built as their output rows: the order
    # and labels of rational primes (split pairs, inert p^2 among the
    # primes, ramified primes) and Euler products over the places of Q,
    # Q(sqrt -7) and GF(3)(T) (degrees 1 to 6).
    ("places", "Q", "--bound", "100"): (
        "c85b36e8f3734ed36d5fda8328eaaa0a92227c903c0706876f6c378c5ec69a4b",
        "98223c6d8e5f39703810a9386976cd794215f07b0c429667e0f32c80826fbdf8",
    ),
    ("places", "Q(sqrt=5)", "--bound", "1000"): (
        "3a933719c1244f2012e7c1987c693297ed1c122aeb3ba84b9bacaf3848b9e444",
        "8563dfbd7a3132ee7a83b62a1a45906b5614e50da35949dc913c2633e96b5143",
    ),
    ("euler-check", "Fq(T)?q=3", "--s", "2,1", "--bound", "729"): (
        "e20ea6411cec27972dfcf5246ae4a0540f1aebdf6c26526e58f05499891598a0",
        "7ff716c45bc3beae882e7837d8ccdd0ab70afdc045ddc6dc894d6c25eea0b1b4",
    ),
    ("euler-check", "Q(sqrt=-7)", "--s", "2.5", "--bound", "2000"): (
        "12cb2e7994f59ca518f5c5b9d5b4451f2544c11dcf19104b9acfc7510b99a655",
        "ad78541709f69cf7fff4f43421c5a70292cf071db1bba6635f77e79974220c72",
    ),
    # Recorded before number-field places were built from chi_D memoised
    # by p mod |D|: a ramified 5 and 7 among about 9,600 primes, an inert
    # 19 whose q_v = 361 sits exactly at the bound, and Euler products
    # over all places of Q(sqrt 10) up to 95,000 at two points.
    ("places", "Q(sqrt=-35)", "--bound", "99991"): (
        "0321e749e2164fee1c32e50884875e79ad77b7115c9275c73c1ca313158aa1e5",
        "3685b914a48e37383bc83d158289aad939c53b33a7fbbaf9306924d0ae3f7e4a",
    ),
    ("places", "Q(sqrt=10)", "--bound", "361"): (
        "18e81553d8a0c770232a8c50c372874f48fbe403c4faac26b70dc6dcc4f375d2",
        "114d47e3cb6b4aaa57808dc6b2631928294988b04c1977c7672d4634c02e2cde",
    ),
    ("euler-check", "Q(sqrt=10)", "--s", "2.5,3.25", "--bound", "95000"): (
        "898d948c7fcac9b84cf21302712f481e7ecbee730f03becb5a239108ad75dab7",
        "e982c69d0263bdf44bef86779ec3ca58dcaa93ea95f8317611f1b553f281ea53",
    ),
    # Recorded before the deflated path was built from the list of
    # L-factors: odd m where only L(s, chi_-7) vanishes; even m within
    # 1e-5 where only zeta vanishes, and where both factors of Q(sqrt 13)
    # vanish; a point off the real axis.
    ("eval", "Q(sqrt=-7)", "--s=-3.004"): (
        "27b1e4fa992763debe965cfaf4ef3d5ba5143f475248137be5b271b675ef7056",
        "e92fc01405bbda363878bf4d44f65eeb24c8c4105aac69b8e2db72599adda0cb",
    ),
    ("eval", "Q(sqrt=-7)", "--s=-2.000003"): (
        "e5ac21e57872c30f4e5fd504eeeb3c0a8e2bdaf130367d5164cc61c98934686b",
        "9a4fcf5d5fef050df700eab8e0f9f9ec6bdef14db1b32f5952f715d9541fab3c",
    ),
    ("eval", "Q(sqrt=13)", "--s=-2.000004"): (
        "84a15c395e089a69968e431af4ede2d766d7e27e9e6f310834a8d08ef44a5515",
        "7b0b0596a2e882e2ea8bc1dffd490929198a6238955f42d2ee8bac79f4af86c2",
    ),
    ("eval", "Q(sqrt=-3)", "--s=-1,0.000002"): (
        "95433d34b5db55096021f5b4efecd4e1a56e89a167fe6e0e577952390d39d424",
        "51c6d662a4cbaeb4aa0ac1d1139375307b538bb58facb0a9021a261c15429e66",
    ),
    # Recorded before GF(p^k) lost its q x q add and mul tables: every
    # place of degree <= d over GF(q) for q = 2^4, 3^3, 2^5, 7^2, 5^3, 2^8
    # and 7^3, each at the bound q^d within MAX_NORM_BOUND.
    ("places", "Fq(T)?q=16", "--bound", "65536"): (
        "fb09c67acabaec52cb78763d6a6de0615f3cfc6b4ef7db76b5828093611ef6c6",
        "5e50b0cdb41e319d68ef5c2b6e5da384ccc7efd59fa2f46f7fdfb6a117298550",
    ),
    ("places", "Fq(T)?q=27", "--bound", "19683"): (
        "57d3aee3f146fd5cb6201057af9b6bfb90fc8fc217871a6705e0bb4de34c8b00",
        "3a180e2925ebfe0a1aa43ed83ff4c5b002a5dc7de9d6bfb172e2df02960f8772",
    ),
    ("places", "Fq(T)?q=32", "--bound", "32768"): (
        "eb55b8f6d8e318f3389c3ba57fe3c8202dbfcc9938ad53ac3096aed82b4cfe63",
        "14add122a9c7e1e6addd8cf82e9a95bbc6e66c02153d9a516acac1802c7542b8",
    ),
    ("places", "Fq(T)?q=49", "--bound", "117649"): (
        "3493a8931504f98d59ed0039e0c71b3024bf5da6e568617e0e7dd05c2b8a8c87",
        "2bf48e363b8cb2ba3a92f840369b37e89bb8f22e20ca8e5d152413c049f26a8d",
    ),
    ("places", "Fq(T)?q=125", "--bound", "15625"): (
        "73a4d0783138e63666740abb18926155482aeb96ad4cc3712c8c7a9544ab728a",
        "c6f9d5bfca859bc17d1490dac648260ba7209b78d495f4091fcd600f3e37a226",
    ),
    ("places", "Fq(T)?q=256", "--bound", "65536"): (
        "78537723c4ad23259c4b1fc58464f838467555221b34a2d0e0a40fdc2f33e87c",
        "7ca701cdea9ffced965ca20cace6bc3ae29df13bc7f0107ad89fe71267a2add5",
    ),
    ("places", "Fq(T)?q=343", "--bound", "117649"): (
        "0573078d69ebd395f5429dcdc672077ede90492717d032979f59e89c5930fa6d",
        "07a97b3c2075e144c87be4aaf01c4d6d2a0028b714ddd17a67191b3db36e9a7a",
    ),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", list(GOLDEN_COMMANDS), ids=" ".join)
    def test_command_digest(self, command, fmt):
        name, field, *rest = command
        _, out = parse_and_dispatch([name, "--field", field, *rest, "--format", fmt])
        digest = GOLDEN_COMMANDS[command][fmt == "csv"]
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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
        assert galois_field(7) == (7, 7, 1, (0, 1))  # x: no special case for k = 1


def _argparse_result(argv: list[str]) -> tuple:
    # (command, option values) as the former argparse parser read argv,
    # or (exit code, stderr) where it exited
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            values = vars(oracles.argparse_cli_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code, stderr.getvalue()
    return values.pop("command"), values


def _table_result(argv: list[str]) -> tuple:
    try:
        return _parse(argv)
    except DomainError as exc:
        return 2, str(exc)


def _both_forms(argv: list[str]) -> list[list[str]]:
    # argv as written (--opt value), and with every value attached (--opt=value)
    name, *rest = argv
    return [argv, [name, *(f"{k}={v}" for k, v in zip(rest[::2], rest[1::2]))]]


def _attach_dash_values(argv: list[str]) -> list[str]:
    # --opt -value written as --opt=-value
    out = []
    for token in argv:
        if out and token.startswith("-") and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


PLACES = ["places", "--field", "Q", "--bound", "10"]
#: Every golden command in both forms, then the argv cases argparse
#: treats specially: abbreviations, ambiguous prefixes, repeats, missing
#: and extra tokens, bad values, commands, help and values that start
#: with "-".
PARSER_CORPUS = [
    *chain.from_iterable(
        _both_forms([name, "--field", field, *rest, "--format", fmt])
        for name, field, *rest in GOLDEN_COMMANDS for fmt in ("json", "csv")
    ),
    *_both_forms(["covolume", "--field", "Q(sqrt=-1)"]),
    *_both_forms(["check", "--field", "Q", "--s", "2", "--tol", "1e-3", "--output", "out.json"]),
    ["places", "--fi", "Q", "--bou", "10"],
    ["places", "--fie=Q", "--b=10", "--fo", "csv", "--o", "x.csv"],
    ["check", "--field", "Q", "--s", "2", "--t", "1e-3"],
    ["euler-check", "--field", "Q", "--s", "3", "--bo", "100"],
    ["places", "--f", "Q", "--bound", "10"],
    ["places", "--field", "Q", "--bound", "10", "--f=csv"],
    ["places", "--=Q", "--bound", "10"],
    [*PLACES, "--format", "json", "--format", "csv"],
    ["places", "--field", "Q", "--field", "Q(sqrt=-1)", "--bound", "10", "--bou=20"],
    ["check", "--field", "Q", "--s", "2", "--tol", "1e-3", "--tol", "1_0"],
    ["places", "--field", "Q", "--bound", "1_000"],
    ["places", "--field", "Q", "--bound", " 12 "],
    ["places", "--field", "Q", "--bound", "-5"],
    ["places", "--field=", "--bound", "10"],
    ["check", "--field", "Q", "--s", "2", "--tol", " inf "],
    ["places"],
    ["places", "--field", "Q"],
    ["places", "--field"],
    ["places", "--field", "Q", "--bound"],
    ["eval", "--field", "Q"],
    ["sweep", "--field", "Q", "--tol", "1e-9"],
    [*PLACES, "extra"],
    ["places", "extra", "--field", "Q", "--bound", "10"],
    [*PLACES, "--bogus"],
    [*PLACES, "--bogus=1"],
    [*PLACES, "--tol", "1e-9"],
    [*PLACES, "--"],
    [*PLACES, "-"],
    [*PLACES, "-x"],
    [*PLACES, "-5"],
    [*PLACES, "--help=1"],
    ["covolume", "--field", "Q", "--format", "json"],
    ["places", "--field", "Q", "--bound", "ten"],
    ["places", "--field", "Q", "--bound", "1.5"],
    ["places", "--field", "Q", "--bound="],
    ["check", "--field", "Q", "--s", "2", "--tol", "tiny"],
    [*PLACES, "--format", "xml"],
    [*PLACES, "--format", "JSON"],
    [*PLACES, "--format="],
    ["frobnicate"],
    ["Places", "--field", "Q", "--bound", "10"],
    [],
    ["--field", "Q", "places", "--bound", "10"],
    ["--bogus", *PLACES],
    ["-h"],
    ["--help"],
    ["--he"],
    ["-h", "places"],
    ["--bogus", "-h"],
    ["places", "-h"],
    ["places", "--h"],
    [*PLACES, "--help"],
    ["frobnicate", "-h"],
    ["places", "--bound", "ten", "-h"],
    ["eval", "--field", "Q", "--s", "-2"],
    ["eval", "--field", "Q", "--s", "-.5"],
    ["eval", "--field", "Q", "--s=-1,2"],
    ["eval", "--field", "Q", "--s", "-1,2"],
    ["eval", "--field", "Q", "--s", "-1e-3"],
    ["sweep", "--field", "Q", "--grid", "-5:-3:5,0:0:1"],
    ["check", "--field", "Q", "--s", "2", "--tol", "-1e-3"],
    ["eval", "--field", "--s", "2"],
    ["eval", "--field", "Q", "--s", "-h"],
]


class TestOptionTable:
    """The table-driven parser against the argparse parser it replaced."""

    @pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
    def test_parses_as_argparse_did(self, argv):
        reference, table = _argparse_result(argv), _table_result(argv)
        if isinstance(reference[0], str):  # accepted: the same command and values
            assert table == reference
        elif reference[0] == 0:  # help
            assert table[1] is None
        elif "expected one argument" in reference[1] and table[0] != 2:
            # the one relaxation: the token after an option is its value,
            # as argparse read it when attached with "="
            assert table == _argparse_result(_attach_dash_values(argv))
        else:
            assert table[0] == 2, table

    def test_corpus_covers_every_outcome(self):
        outcomes = [_argparse_result(argv)[0] for argv in PARSER_CORPUS]
        assert {*COMMANDS} <= {*outcomes} and 0 in outcomes and 2 in outcomes
        relaxed = [argv for argv in PARSER_CORPUS if "expected one argument" in str(_argparse_result(argv)[1])]
        assert ["eval", "--field", "Q", "--s", "-1,2"] in relaxed

    def test_value_after_option_may_start_with_dash(self):
        for attached, spaced in [
            (["eval", "--field", "Q", "--s=-1,2"], ["eval", "--field", "Q", "--s", "-1,2"]),
            (["sweep", "--field", "Q", "--grid=-5:-3:5,0:0:1"], ["sweep", "--field", "Q", "--grid", "-5:-3:5,0:0:1"]),
        ]:
            code, out = parse_and_dispatch(spaced)
            assert (code, out) == parse_and_dispatch(attached) and code != 2 and out

    @pytest.mark.parametrize("argv, named", [
        (["check", "--field", "Q"], "--s"),
        (["frobnicate"], "'frobnicate'"),
        ([], "command"),
        (["places", "--field", "Q", "--bound", "ten"], "--bound"),
        (["places", "--field", "Q", "--bound", "ten"], "'ten'"),
        (["check", "--field", "Q", "--s", "2", "--tol", "tiny"], "--tol"),
        ([*PLACES, "--format", "xml"], "'xml'"),
        ([*PLACES, "extra"], "extra"),
        ([*PLACES, "--bogus"], "--bogus"),
        (["places", "--f", "Q", "--bound", "10"], "--f"),
        (["places", "--field", "Q", "--bound"], "--bound"),
    ])
    def test_usage_error_is_two_and_names_the_token(self, capsys, argv, named):
        assert parse_and_dispatch(argv) == (2, "")
        assert named in capsys.readouterr().err

    def test_top_level_help_lists_every_command(self, capsys):
        for argv in (["-h"], ["--help"]):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert out.startswith("usage: globalzeta")
            assert all(f"\n  {name} " in out for name in COMMANDS)

    def test_command_help_lists_its_options(self, capsys):
        assert main(["places", "-h"]) == 0
        out = capsys.readouterr().out
        for option in ("-h, --help", "--field FIELD", "--format {json,csv}", "--output OUTPUT", "--bound BOUND"):
            assert option in out
        assert "--s " not in out and "--tol" not in out
        assert main(["check", "--help"]) == 0
        assert "--tol TOL" in capsys.readouterr().out


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

    def test_json_escapes_any_string(self):
        # quote, backslash, control, DEL, non-ASCII and non-BMP characters
        # come out as ASCII JSON that parses back to the same string
        odd = 'a"b\\c\nd\x00\x7f\u00e9\U0001d11e'
        summary = SweepSummary(field=odd, grid="g", count_ok=0, count_skipped=0, count_failed=0, max_residual=0.0)
        # in a row cell too, beside a plain string of the same column
        reports = [FunctionalEquationReport(2j, None, None, None, 0.5, status) for status in ("ok", odd)]
        out = render_report(reports, summary, "json")
        assert out.isascii()
        payload = json.loads(out)
        assert payload["summary"]["field"] == odd
        assert [r["status"] for r in payload["reports"]] == ["ok", odd]

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

    @pytest.mark.parametrize("target", ["", "missing/report.json"])
    def test_output_file_unwritable(self, tmp_path, capsys, target):
        # a directory, or a file in a directory that does not exist
        path = str(tmp_path / target) if target else str(tmp_path)
        assert parse_and_dispatch(["eval", "--field", "Q", "--s", "2", "--output", path]) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_env_var_unknown_format_is_two(self, monkeypatch, capsys):
        monkeypatch.setenv("GLOBALZETA_FORMAT", "xml")
        assert parse_and_dispatch(["check", "--field", "Q", "--s", "2"]) == (2, "")
        assert "'xml'" in capsys.readouterr().err
        assert parse_and_dispatch(["covolume", "--field", "Q(sqrt=-1)"]) == (0, "2")

    def test_env_var_default_format(self, monkeypatch):
        monkeypatch.setenv("GLOBALZETA_FORMAT", "csv")
        _, out = parse_and_dispatch(["check", "--field", "Q", "--s", "2"])
        assert out.splitlines()[0].startswith("s_re,s_im,")
        monkeypatch.delenv("GLOBALZETA_FORMAT")
        _, out = parse_and_dispatch(["check", "--field", "Q", "--s", "2"])
        assert out.startswith('{"reports"')

    def test_env_var_read_per_call_by_one_parser(self, monkeypatch):
        # the variable is read per call, not once per process
        args = ["places", "--field", "Q", "--bound", "5"]
        monkeypatch.setenv("GLOBALZETA_FORMAT", "csv")
        assert parse_and_dispatch(args)[1].startswith("qv,kind,label\n")
        assert parse_and_dispatch([*args, "--format", "json"])[1].startswith('{"field":"Q"')
        monkeypatch.setenv("GLOBALZETA_FORMAT", "json")
        assert parse_and_dispatch(args)[1].startswith('{"field":"Q"')
        assert parse_and_dispatch([*args, "--format", "csv"])[1].startswith("qv,kind,label\n")

    def test_main_prints_and_returns(self, capsys):
        code = main(["covolume", "--field", "Q(sqrt=-1)"])
        assert code == 0
        assert capsys.readouterr().out == "2\n"
