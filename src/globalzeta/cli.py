"""Command-line front end.

Commands: eval, check, sweep, covolume, places, euler-check.  Reports
go to stdout (or --output) as JSON or CSV with numbers printed to 17
significant digits, so identical invocations are byte-identical and
values round-trip through parsing.  Diagnostics go to stderr.  Exit
codes: 0 success (skipped nodes included), 1 any failed check, 2
usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import DomainError, PoleError, SymmetryError
from .fields import (
    covolume,
    enumerate_places,
    field_spec_string,
    parse_field_spec,
)
from .verify import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    EulerConsistencyReport,
    FunctionalEquationReport,
    GridSpec,
    SweepSummary,
    check_point,
    euler_consistency_check,
    sweep,
)
from .zeta import completed_zeta

ENV_FORMAT = "GLOBALZETA_FORMAT"

REPORT_CSV_HEADER = "s_re,s_im,lhs_re,lhs_im,rhs_re,rhs_im,residual,pole_distance,status"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _opt(x: float | None) -> str:
    return "null" if x is None else _fmt(x)


def _opt_csv(x: float | None) -> str:
    return "" if x is None else _fmt(x)


def _report_json_obj(r: FunctionalEquationReport) -> str:
    return (
        "{"
        f'"s_re":{_fmt(r.s.real)},"s_im":{_fmt(r.s.imag)},'
        f'"lhs_re":{_opt(None if r.lhs is None else r.lhs.real)},'
        f'"lhs_im":{_opt(None if r.lhs is None else r.lhs.imag)},'
        f'"rhs_re":{_opt(None if r.rhs is None else r.rhs.real)},'
        f'"rhs_im":{_opt(None if r.rhs is None else r.rhs.imag)},'
        f'"residual":{_opt(r.relative_residual)},'
        f'"pole_distance":{_fmt(r.pole_distance_min)},'
        f'"status":{json.dumps(r.status)}'
        "}"
    )


def _summary_json_obj(summary: SweepSummary) -> str:
    return (
        "{"
        f'"field":{json.dumps(summary.field)},'
        f'"grid":{json.dumps(summary.grid)},'
        f'"ok":{summary.count_ok},'
        f'"skipped":{summary.count_skipped},'
        f'"failed":{summary.count_failed},'
        f'"max_residual":{_fmt(summary.max_residual)}'
        "}"
    )


def render_report(
    reports: list[FunctionalEquationReport], summary: SweepSummary, fmt: str
) -> str:
    """Serialize functional-equation reports plus their summary."""
    if fmt == "json":
        body = ",".join(_report_json_obj(r) for r in reports)
        return f'{{"reports":[{body}],"summary":{_summary_json_obj(summary)}}}'
    if fmt == "csv":
        lines = [REPORT_CSV_HEADER]
        for r in reports:
            lines.append(
                ",".join(
                    [
                        _fmt(r.s.real),
                        _fmt(r.s.imag),
                        _opt_csv(None if r.lhs is None else r.lhs.real),
                        _opt_csv(None if r.lhs is None else r.lhs.imag),
                        _opt_csv(None if r.rhs is None else r.rhs.real),
                        _opt_csv(None if r.rhs is None else r.rhs.imag),
                        _opt_csv(r.relative_residual),
                        _fmt(r.pole_distance_min),
                        r.status,
                    ]
                )
            )
        lines.append(
            f"# ok={summary.count_ok},skipped={summary.count_skipped},"
            f"failed={summary.count_failed},max_residual={_fmt(summary.max_residual)}"
        )
        return "\n".join(lines)
    raise DomainError(f"unknown output format {fmt!r}")


def _render_eval(field_spec: str, record, fmt: str) -> str:
    fields = [
        ("s_re", _fmt(record.s.real)),
        ("s_im", _fmt(record.s.imag)),
        ("zeta_re", _fmt(record.zeta_value.real)),
        ("zeta_im", _fmt(record.zeta_value.imag)),
        ("gamma_re", _fmt(record.gamma_factor_value.real)),
        ("gamma_im", _fmt(record.gamma_factor_value.imag)),
        ("completed_re", _fmt(record.completed_value.real)),
        ("completed_im", _fmt(record.completed_value.imag)),
        ("pole_distance", _fmt(record.pole_distance)),
        ("precision_cliff", "true" if record.precision_cliff else "false"),
    ]
    if fmt == "json":
        body = ",".join(f'"{k}":{v}' for k, v in fields)
        return f'{{"field":{json.dumps(field_spec)},{body}}}'
    if fmt == "csv":
        return ",".join(k for k, _ in fields) + "\n" + ",".join(v for _, v in fields)
    raise DomainError(f"unknown output format {fmt!r}")


def _render_places(field_spec: str, norm_bound: int, places, fmt: str) -> str:
    if fmt == "json":
        body = ",".join(
            f'{{"qv":{p.qv},"kind":{json.dumps(p.kind)},"label":{json.dumps(p.label)}}}'
            for p in places
        )
        return (
            f'{{"field":{json.dumps(field_spec)},"norm_bound":{norm_bound},'
            f'"places":[{body}],"count":{len(places)}}}'
        )
    if fmt == "csv":
        lines = ["qv,kind,label"]
        lines.extend(f"{p.qv},{p.kind},{p.label}" for p in places)
        lines.append(f"# count={len(places)}")
        return "\n".join(lines)
    raise DomainError(f"unknown output format {fmt!r}")


def _render_euler(field_spec: str, s: complex, bound: int, rec: EulerConsistencyReport, fmt: str) -> str:
    fields = [
        ("s_re", _fmt(s.real)),
        ("s_im", _fmt(s.imag)),
        ("norm_bound", str(bound)),
        ("closed_re", _fmt(rec.closed_form.real)),
        ("closed_im", _fmt(rec.closed_form.imag)),
        ("truncated_re", _fmt(rec.truncated.real)),
        ("truncated_im", _fmt(rec.truncated.imag)),
        ("gap", _fmt(rec.gap)),
        ("tail_bound", _fmt(rec.tail_bound)),
        ("pass", "true" if rec.passed else "false"),
    ]
    if fmt == "json":
        body = ",".join(f'"{k}":{v}' for k, v in fields)
        return f'{{"field":{json.dumps(field_spec)},{body}}}'
    if fmt == "csv":
        return ",".join(k for k, _ in fields) + "\n" + ",".join(v for _, v in fields)
    raise DomainError(f"unknown output format {fmt!r}")


def _parse_s(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise DomainError(f"bad --s value {text!r}; expected RE or RE,IM")


def _parse_grid(text: str) -> GridSpec:
    chunks = text.split(",")
    if len(chunks) != 2:
        raise DomainError(f"bad --grid value {text!r}; expected re_min:re_max:steps,im_min:im_max:steps")
    axes = []
    for chunk in chunks:
        cols = chunk.split(":")
        if len(cols) != 3:
            raise DomainError(f"bad --grid axis {chunk!r}; expected min:max:steps")
        try:
            axes.append((float(cols[0]), float(cols[1]), int(cols[2])))
        except ValueError:
            raise DomainError(f"bad --grid axis {chunk!r}; non-numeric token") from None
    (re_min, re_max, re_steps), (im_min, im_max, im_steps) = axes
    return GridSpec(re_min, re_max, re_steps, im_min, im_max, im_steps)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="globalzeta",
        description="Completed zeta functions of global fields and their functional equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_fmt = os.environ.get(ENV_FORMAT, "json")

    def common(p, with_format=True):
        p.add_argument("--field", required=True, help='field spec, e.g. "Q", "Q(sqrt=-1)", "Fq(T)?q=5", "curve?q=5&L=1,3,5"')
        if with_format:
            p.add_argument("--format", choices=("json", "csv"), default=default_fmt)
            p.add_argument("--output", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("eval", help="evaluate zeta, Gamma factor and completed value at s")
    common(p)
    p.add_argument("--s", required=True, help="point, RE or RE,IM")

    p = sub.add_parser("check", help="check Z(1-s) = beta^(2s-1) Z(s) at one point")
    common(p)
    p.add_argument("--s", required=True, help="point, RE or RE,IM")
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("sweep", help="check the functional equation on a grid")
    common(p)
    p.add_argument("--grid", required=True, help="re_min:re_max:steps,im_min:im_max:steps")
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("covolume", help="print the adelic covolume of the field")
    common(p, with_format=False)

    p = sub.add_parser("places", help="list places with q_v up to a bound")
    common(p)
    p.add_argument("--bound", type=int, required=True)

    p = sub.add_parser("euler-check", help="closed form vs truncated Euler product (Re s > 1)")
    common(p)
    p.add_argument("--s", required=True, help="point, RE or RE,IM")
    p.add_argument("--bound", type=int, required=True)

    return parser


def _covolume_text(value) -> str:
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else str(value.numerator)
    if isinstance(value, int):
        return str(value)
    return _fmt(value)


def _dispatch(args) -> tuple[int, str]:
    if args.command == "covolume":
        field = parse_field_spec(args.field)
        return 0, _covolume_text(covolume(field))

    field = parse_field_spec(args.field)
    spec = field_spec_string(field)
    if args.command == "eval":
        record = completed_zeta(field, _parse_s(args.s))
        return 0, _render_eval(spec, record, args.format)
    if args.command == "check":
        report = check_point(field, _parse_s(args.s), args.tol)
        summary = SweepSummary(
            field=spec,
            grid=f"point[{_fmt(report.s.real)}:{_fmt(report.s.imag)}]",
            count_ok=int(report.status == STATUS_OK),
            count_skipped=int(report.status == STATUS_SKIPPED),
            count_failed=int(report.status == STATUS_FAILED),
            max_residual=report.relative_residual if report.status == STATUS_OK else 0.0,
        )
        code = 1 if report.status == STATUS_FAILED else 0
        return code, render_report([report], summary, args.format)
    if args.command == "sweep":
        reports, summary = sweep(field, _parse_grid(args.grid), args.tol)
        code = 1 if summary.count_failed else 0
        return code, render_report(reports, summary, args.format)
    if args.command == "places":
        places = enumerate_places(field, args.bound)
        return 0, _render_places(spec, args.bound, places, args.format)
    if args.command == "euler-check":
        s = _parse_s(args.s)
        rec = euler_consistency_check(field, s, args.bound)
        return (0 if rec.passed else 1), _render_euler(spec, s, args.bound, rec, args.format)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


def parse_and_dispatch(argv: list[str]) -> tuple[int, str]:
    """Run one CLI invocation; returns (exit code, serialized output).

    Usage errors print a diagnostic to stderr and return exit code 2.
    When --output is given, the report is written to that path and the
    returned text is empty.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (int(exc.code or 0), "")
    try:
        code, text = _dispatch(args)
    except (DomainError, PoleError, SymmetryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""
    output_path = getattr(args, "output", None)
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        return code, ""
    return code, text


def main(argv: list[str] | None = None) -> int:
    code, text = parse_and_dispatch(sys.argv[1:] if argv is None else argv)
    if text:
        print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
