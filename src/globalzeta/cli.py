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
import os
import sys
from functools import cache
from itertools import chain, islice
from typing import TYPE_CHECKING

from .errors import DomainError, PoleError, SymmetryError
from .fields import (
    covolume,
    enumerate_places,
    field_spec_string,
    parse_field_spec,
)

if TYPE_CHECKING:  # the commands that evaluate import verify and zeta themselves
    from .verify import FunctionalEquationReport, GridSpec, SweepSummary

ENV_FORMAT = "GLOBALZETA_FORMAT"

EVAL_COLUMNS = ("s_re", "s_im", "zeta_re", "zeta_im", "gamma_re", "gamma_im",
                "completed_re", "completed_im", "pole_distance", "precision_cliff")
EULER_COLUMNS = ("s_re", "s_im", "norm_bound", "closed_re", "closed_im",
                 "truncated_re", "truncated_im", "gap", "tail_bound", "pass")
PLACE_COLUMNS = ("qv", "kind", "label")
REPORT_COLUMNS = ("s_re", "s_im", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                  "residual", "pole_distance", "status")

# argparse reads a value such as "-1,2" as an option unless it is attached with "="
_S_HELP = 'point, RE or RE,IM (write --s=-1,2 when the value starts with "-")'
_GRID_HELP = 're_min:re_max:steps,im_min:im_max:steps (write --grid=-5:-3:5,0:0:1 when it starts with "-")'


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _bool(x: bool) -> str:
    return "true" if x else "false"


def _plain(text: str) -> bool:
    # printable ASCII other than '"' and '\\' stands for itself in JSON
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _json_str(text: str) -> str:
    # A JSON string in ASCII: plain text as is, any other UTF-16 code
    # unit as \uXXXX.  The program's own strings are all plain.
    if _plain(text):
        return f'"{text}"'
    data = text.encode("utf-16-be", "surrogatepass")
    units = [int.from_bytes(data[i:i + 2], "big") for i in range(0, len(data), 2)]
    return '"' + "".join(chr(u) if 32 <= u < 127 and u not in (34, 92) else f"\\u{u:04x}" for u in units) + '"'


#: The cell formatter: text of a value by output format and by the
#: value's exact type (so a bool never prints as an int).  One dict
#: lookup per cell keeps large place lists cheap to render.
_CELL = {
    "json": {type(None): lambda x: "null", bool: _bool, int: str, float: _fmt, str: _json_str},
    "csv": {type(None): lambda x: "", bool: _bool, int: str, float: _fmt, str: str},
}


def _json_columns(template: str, chunk: list) -> tuple[str, tuple]:
    # A column of strings is checked once, joined; if plain, its slot in
    # the record template quotes it, so its cells need no call each.
    cell, slots, columns = _CELL["json"], [], []
    for column in zip(*chunk):
        if set(map(type, column)) == {str} and _plain("".join(column)):
            slots.append('"%s"')
        else:
            slots.append("%s")
            column = [cell[type(x)](x) for x in column]
        columns.append(column)
    parts = template.split("%s")
    record = "".join(chain.from_iterable(zip(parts, slots))) + parts[-1]
    return record, tuple(chain.from_iterable(zip(*columns)))


def _fill(template: str, sep: str, cell: dict, rows):
    # A chunk of rows is formatted in one flat pass over its cells (JSON:
    # column by column) and one % on its record template repeated per row:
    # no Python call per row, and only one chunk's cell texts alive at a
    # time.  Column names hold no "%".
    rows = iter(rows)
    while chunk := list(islice(rows, 256)):
        if cell is _CELL["json"]:
            record, cells = _json_columns(template, chunk)
        else:
            record, cells = template, tuple([cell[type(x)](x) for row in chunk for x in row])
        yield sep.join([record] * len(chunk)) % cells


def _render(fmt: str, columns, rows, head=(), key=None, tail=(), summary_key=None) -> str:
    """Serialize rows of plain values as one JSON document or CSV table.

    head pairs name what the rows describe and appear only in JSON.
    With key=None there is exactly one row, whose cells sit next to the
    head; otherwise the rows are a JSON list under key.  tail pairs
    follow the rows in JSON (nested with the head under summary_key
    when given) and form the CSV trailer line "# k=v,...".
    """
    cell = _CELL.get(fmt)
    if cell is None:
        raise DomainError(f"unknown output format {fmt!r}")
    if fmt == "csv":
        lines = [",".join(columns), *_fill(",".join(["%s"] * len(columns)), "\n", cell, rows)]
        if tail:
            lines.append("# " + ",".join([f"{k}={cell[type(x)](x)}" for k, x in tail]))
        return "\n".join(lines)

    def members(items) -> list[str]:
        return [f'"{k}":{cell[type(x)](x)}' for k, x in items]

    record = ",".join([f'"{c}":%s' for c in columns])
    if key is None:
        body = next(_fill(record, ",", cell, rows))
    else:
        body = f'"{key}":[' + ",".join(_fill("{" + record + "}", ",", cell, rows)) + "]"
    if summary_key is None:
        return "{" + ",".join(members(head) + [body] + members(tail)) + "}"
    return "{" + body + f',"{summary_key}":{{' + ",".join(members(head + tail)) + "}}"


def _parts(z: complex | None) -> tuple:
    return (None, None) if z is None else (z.real, z.imag)


def render_report(reports: list[FunctionalEquationReport], summary: SweepSummary, fmt: str) -> str:
    """Serialize functional-equation reports plus their summary."""
    rows = [
        (*_parts(r.s), *_parts(r.lhs), *_parts(r.rhs), r.relative_residual, r.pole_distance_min, r.status)
        for r in reports
    ]
    return _render(
        fmt, REPORT_COLUMNS, rows,
        head=(("field", summary.field), ("grid", summary.grid)),
        key="reports",
        tail=(("ok", summary.count_ok), ("skipped", summary.count_skipped),
              ("failed", summary.count_failed), ("max_residual", summary.max_residual)),
        summary_key="summary",
    )


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
    from .verify import GridSpec

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


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process; --format defaults to None, read as
    # GLOBALZETA_FORMAT when each invocation is dispatched.
    parser = argparse.ArgumentParser(
        prog="globalzeta",
        description="Completed zeta functions of global fields and their functional equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_format=True):
        p.add_argument("--field", required=True, help='field spec, e.g. "Q", "Q(sqrt=-1)", "Fq(T)?q=5", "curve?q=5&L=1,3,5"')
        if with_format:
            p.add_argument("--format", choices=("json", "csv"))
            p.add_argument("--output", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("eval", help="evaluate zeta, Gamma factor and completed value at s")
    common(p)
    p.add_argument("--s", required=True, help=_S_HELP)

    p = sub.add_parser("check", help="check Z(1-s) = beta^(2s-1) Z(s) at one point")
    common(p)
    p.add_argument("--s", required=True, help=_S_HELP)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("sweep", help="check the functional equation on a grid")
    common(p)
    p.add_argument("--grid", required=True, help=_GRID_HELP)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("covolume", help="print the adelic covolume of the field")
    common(p, with_format=False)

    p = sub.add_parser("places", help="list places with q_v up to a bound")
    common(p)
    p.add_argument("--bound", type=int, required=True)

    p = sub.add_parser("euler-check", help="closed form vs truncated Euler product (Re s > 1)")
    common(p)
    p.add_argument("--s", required=True, help=_S_HELP)
    p.add_argument("--bound", type=int, required=True)

    return parser


def _covolume_text(value) -> str:
    # exact values (int, Fraction) print as str: str(Fraction(2)) is "2"
    return _fmt(value) if isinstance(value, float) else str(value)


def _dispatch(args) -> tuple[int, str]:
    field = parse_field_spec(args.field)
    if args.command == "covolume":
        return 0, _covolume_text(covolume(field))
    spec = field_spec_string(field)
    head = (("field", spec),)
    fmt = args.format or os.environ.get(ENV_FORMAT, "json")
    if args.command == "eval":
        from .zeta import completed_zeta

        rec = completed_zeta(field, _parse_s(args.s))
        row = (
            *_parts(rec.s), *_parts(rec.zeta_value), *_parts(rec.gamma_factor_value),
            *_parts(rec.completed_value), rec.pole_distance, rec.precision_cliff,
        )
        return 0, _render(fmt, EVAL_COLUMNS, [row], head)
    if args.command == "check":
        from .verify import check_point, summarize_reports

        s = _parse_s(args.s)
        reports = [check_point(field, s, args.tol)]
        summary = summarize_reports(spec, f"point[{_fmt(s.real)}:{_fmt(s.imag)}]", reports)
        return int(summary.count_failed > 0), render_report(reports, summary, fmt)
    if args.command == "sweep":
        from .verify import sweep

        reports, summary = sweep(field, _parse_grid(args.grid), args.tol)
        return int(summary.count_failed > 0), render_report(reports, summary, fmt)
    if args.command == "places":
        places = enumerate_places(field, args.bound)
        head += (("norm_bound", args.bound),)
        return 0, _render(fmt, PLACE_COLUMNS, places, head, "places", (("count", len(places)),))
    if args.command == "euler-check":
        from .verify import euler_consistency_check

        s = _parse_s(args.s)
        rec = euler_consistency_check(field, s, args.bound)
        row = (
            *_parts(s), args.bound, *_parts(rec.closed_form), *_parts(rec.truncated),
            rec.gap, rec.tail_bound, rec.passed,
        )
        return int(not rec.passed), _render(fmt, EULER_COLUMNS, [row], head)
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
