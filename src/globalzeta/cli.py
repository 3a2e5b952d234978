"""Command-line front end.

Commands: eval, check, sweep, covolume, places, euler-check.  One table,
COMMANDS, lists their options; a short loop parses argv by it and -h
prints help from it.  Reports go to stdout (or --output) as JSON or CSV
with numbers printed to 17 significant digits, so identical invocations
are byte-identical and values round-trip through parsing.  Diagnostics
go to stderr.  Exit codes: 0 success (skipped nodes included), 1 any
failed check, 2 usage or parse errors or an unwritable --output, 141
stdout closed early.
"""

from __future__ import annotations

import os
import sys
from itertools import chain, islice
from typing import TYPE_CHECKING

from .errors import DomainError, PoleError, SymmetryError
from .fields import covolume, enumerate_places, field_spec_string, parse_field_spec

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

# Values may start with "-" (--s -1,2): the token after an option is always its value.
_S_HELP = "point, RE or RE,IM"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _bool(x: bool) -> str:
    return "true" if x else "false"


def _plain(text: str) -> bool:
    # printable ASCII other than '"' and '\\' stands for itself in JSON
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _json_str(text: str) -> str:
    # A JSON string in ASCII: plain text as is, any other through json,
    # imported only then.  The program's own strings are all plain.
    if _plain(text):
        return f'"{text}"'
    import json
    return json.dumps(text)


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
    rows = [(*_parts(r.s), *_parts(r.lhs), *_parts(r.rhs), r.relative_residual, r.pole_distance_min, r.status)
            for r in reports]
    tail = (("ok", summary.count_ok), ("skipped", summary.count_skipped),
            ("failed", summary.count_failed), ("max_residual", summary.max_residual))
    return _render(fmt, REPORT_COLUMNS, rows, (("field", summary.field), ("grid", summary.grid)), "reports", tail, "summary")


def _parse_s(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) <= 2:
            return complex(float(parts[0]), float(parts[1]) if len(parts) == 2 else 0.0)
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
    return GridSpec(*axes[0], *axes[1])


#: The option table: per command its help line and its options in usage order,
#: name -> (type, default, help).  Type None keeps the text, a tuple lists the
#: choices, and default REQUIRED marks a required option.  --format defaults
#: to None, read as GLOBALZETA_FORMAT when each invocation is dispatched.
REQUIRED = object()
_FIELD = {"field": (None, REQUIRED, 'field spec, e.g. "Q", "Q(sqrt=-1)", "Fq(T)?q=5", "curve?q=5&L=1,3,5"')}
_REPORT = {**_FIELD, "format": (("json", "csv"), None, f"report format (default: ${ENV_FORMAT}, else json)"),
           "output": (None, None, "write the report here instead of stdout")}
_S = {"s": (None, REQUIRED, _S_HELP)}
_TOL = {"tol": (float, 1e-9, "relative residual tolerance")}
_BOUND = {"bound": (int, REQUIRED, "norm bound on q_v")}
COMMANDS = {
    "eval": ("evaluate zeta, Gamma factor and completed value at s", {**_REPORT, **_S}),
    "check": ("check Z(1-s) = beta^(2s-1) Z(s) at one point", {**_REPORT, **_S, **_TOL}),
    "sweep": ("check the functional equation on a grid",
              {**_REPORT, "grid": (None, REQUIRED, "re_min:re_max:steps,im_min:im_max:steps"), **_TOL}),
    "covolume": ("print the adelic covolume of the field", _FIELD),
    "places": ("list places with q_v up to a bound", {**_REPORT, **_BOUND}),
    "euler-check": ("closed form vs truncated Euler product (Re s > 1)", {**_REPORT, **_S, **_BOUND}),
}


def _help(command: str | None) -> str:
    if command is None:
        head = ("usage: globalzeta COMMAND --option value ...  (globalzeta COMMAND -h lists them)\n\n"
                "Completed zeta functions of global fields and their functional equation.\n\ncommands:")
        rows = [(name, line) for name, (line, _) in COMMANDS.items()]
    else:
        head = f"usage: globalzeta {command} --option value ...\n\n{COMMANDS[command][0]}\n\noptions:"
        rows = [("-h, --help", "show this help and exit")] + [
            (f"--{name} " + ("{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name.upper()),
             text + (" (required)" if default is REQUIRED else f" (default: {default})" if default else ""))
            for name, (kind, default, text) in COMMANDS[command][1].items()]
    width = max(len(left) for left, _ in rows)
    return "\n".join([head, *(f"  {left:<{width}}  {right}" for left, right in rows)])


def _parse(argv: list[str]) -> tuple[str | None, dict | None]:
    """(command, option values) of argv by COMMANDS; (command, None) for -h.

    An option is --name value or --name=value, a unique prefix of name will
    do, and the last of repeated options wins.  The token after an option is
    always its value.  A usage error raises DomainError naming the token.
    """
    command, options, values, stray = None, {}, {}, []
    tokens = iter(argv)
    for token in tokens:
        if token == "-h":
            return command, None
        if token == "--" or not token.startswith("--"):
            if command is None and token in COMMANDS:
                command, options = token, COMMANDS[token][1]
            elif command is None and not token.startswith("-"):
                raise DomainError(f"invalid command {token!r} (choose from {', '.join(COMMANDS)})")
            else:
                stray.append(token)
            continue
        name, eq, value = token.partition("=")
        key = name[2:]
        matches = [key] if key in options else [m for m in ("help", *options) if m.startswith(key)]
        if len(matches) > 1:
            raise DomainError(f"ambiguous option {name} could match --{', --'.join(matches)}")
        if matches == ["help"] and not eq:
            return command, None
        if matches in ([], ["help"]):
            stray.append(token)
            continue
        key, kind = matches[0], options[matches[0]][0]
        if not eq and (value := next(tokens, None)) is None:
            raise DomainError(f"argument --{key}: expected one argument")
        if isinstance(kind, tuple) and value not in kind:
            raise DomainError(f"argument --{key}: invalid choice {value!r} (choose from {', '.join(kind)})")
        try:
            values[key] = kind(value) if kind in (int, float) else value
        except ValueError:
            raise DomainError(f"argument --{key}: invalid {kind.__name__} value {value!r}") from None
    if command is None:
        raise DomainError(f"no command given (choose from {', '.join(COMMANDS)})")
    missing = ["--" + name for name, (_, default, _) in options.items() if default is REQUIRED and name not in values]
    if missing or stray:
        raise DomainError(f"the following arguments are required: {', '.join(missing)}" if missing
                          else f"unrecognized arguments: {' '.join(stray)}")
    return command, {name: default for name, (_, default, _) in options.items()} | values


def _dispatch(command: str, opts: dict) -> tuple[int, str]:
    field = parse_field_spec(opts["field"])
    if command == "covolume":
        value = covolume(field)  # exact values (int, Fraction) print as str: str(Fraction(2)) is "2"
        return 0, _fmt(value) if isinstance(value, float) else str(value)
    spec = field_spec_string(field)
    head = (("field", spec),)
    fmt = opts["format"] or os.environ.get(ENV_FORMAT, "json")
    if command == "places":
        places, bound = enumerate_places(field, opts["bound"]), opts["bound"]
        return 0, _render(fmt, PLACE_COLUMNS, places, (*head, ("norm_bound", bound)), "places", (("count", len(places)),))
    if command == "sweep":
        from .verify import sweep

        reports, summary = sweep(field, _parse_grid(opts["grid"]), opts["tol"])
        return int(summary.count_failed > 0), render_report(reports, summary, fmt)
    s = _parse_s(opts["s"])
    if command == "eval":
        from .zeta import completed_zeta

        rec = completed_zeta(field, s)
        row = (*_parts(rec.s), *_parts(rec.zeta_value), *_parts(rec.gamma_factor_value),
               *_parts(rec.completed_value), rec.pole_distance, rec.precision_cliff)
        return 0, _render(fmt, EVAL_COLUMNS, [row], head)
    if command == "check":
        from .verify import check_point, summarize_reports

        reports = [check_point(field, s, opts["tol"])]
        summary = summarize_reports(spec, f"point[{_fmt(s.real)}:{_fmt(s.imag)}]", reports)
        return int(summary.count_failed > 0), render_report(reports, summary, fmt)
    from .verify import euler_consistency_check

    rec = euler_consistency_check(field, s, opts["bound"])
    row = (*_parts(s), opts["bound"], *_parts(rec.closed_form), *_parts(rec.truncated),
           rec.gap, rec.tail_bound, rec.passed)
    return int(not rec.passed), _render(fmt, EULER_COLUMNS, [row], head)


def parse_and_dispatch(argv: list[str]) -> tuple[int, str]:
    """Run one CLI invocation; returns (exit code, serialized output).

    Usage errors, and an --output path that cannot be written, print a
    diagnostic to stderr and return exit code 2; -h returns 0 and the
    help text.  When --output is given, the report is written to that
    path and the returned text is empty.
    """
    try:
        command, opts = _parse(argv)
        if opts is None:
            return 0, _help(command)
        code, text = _dispatch(command, opts)
    except (DomainError, PoleError, SymmetryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""
    output_path = opts.get("output")
    if output_path:
        try:
            with open(output_path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {output_path}: {exc.strerror or exc}", file=sys.stderr)
            return 2, ""
        return code, ""
    return code, text


def main(argv: list[str] | None = None) -> int:
    code, text = parse_and_dispatch(sys.argv[1:] if argv is None else argv)
    if text:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader left (`| head`): point stdout at devnull so the flush
            # at exit cannot raise again, and exit as SIGPIPE would, 128 + 13
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
    return code


if __name__ == "__main__":
    raise SystemExit(main())
