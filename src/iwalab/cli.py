"""Command-line entry point.

    iwalab <command> --input <file> [--precision N] [--max-precision N]
                     [--budget K] [--out <file>]

Commands: the keys of the command table `workbench.COMMANDS`.
Exit codes: 0 = all tasks decided, 2 = some task undecided at the precision
or budget cap, 1 = error.  A human-readable table goes to stdout; the full
machine-readable report goes to the sidecar file (default: <input>.report.json).
A character wider than its table column is printed as its head and tail
around "..", so every row keeps the header's width; the sidecar holds it whole.

The sidecar's bytes are json.dumps(report, sort_keys=True, indent=2) plus a
newline, built by `_sidecar_text` (json.dumps drops to its pure-Python encoder
whenever `indent` is set).  They are written through one descriptor: opened
without O_TRUNC (truncating an existing file on open is slow on some file
systems, ext4 with discard among them), written with short writes retried
until every byte is out, and then cut to the report's length only when the
file is a regular file that was longer, so `--out /dev/null` and pipes
(`--out /dev/stdout`) work.
The write is not crash-atomic, nor was the truncating open before it: neither
calls fsync, so a crash can leave a short or mixed file.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii as _quote

from .crossed import PRECISION_CAP
from .errors import IwalabError, ParseError, SizeCapExceededError, UsageError, ValidationError
from .problems import parse_problem
from .workbench import COMMANDS, digest_text, run


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as UsageError (exit 1): argparse's exit 2 means "undecided" here."""

    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser():
    """The argument parser, built on first use; parse_args leaves it unchanged."""
    ap = _Parser(prog="iwalab", description=__doc__.strip().splitlines()[0])
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--input", help="problem file (JSON stanza)")
    ap.add_argument("--precision", type=int, help="override the working precision exponent N")
    ap.add_argument(
        "--max-precision",
        type=int,
        default=PRECISION_CAP,
        help="escalation cap for N (default %(default)s)",
    )
    ap.add_argument("--budget", type=int, help="candidate cap for find-twist")
    ap.add_argument("--out", help="sidecar report path (default: <input>.report.json)")
    return ap


def _emit(value, pad, out):
    """Append `value` to the list `out` as json.dumps(..., sort_keys=True, indent=2) writes it.

    `pad` is a newline and the indentation of the line the value starts on.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float) and math.isfinite(value):
        out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner, sep = pad + "  ", "["
        for item in value:
            out.append(sep + inner)
            _emit(item, inner, out)
            sep = ","
        out.append(pad + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner, sep = pad + "  ", "{"
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"sidecar keys must be str, not {type(key).__name__}")
            out.append(sep + inner + _quote(key) + ": ")
            _emit(value[key], inner, out)
            sep = ","
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot write {value!r} of type {type(value).__name__} to the sidecar")


def _sidecar_text(report):
    """The sidecar text of `report`: json.dumps(report, sort_keys=True, indent=2) plus a newline."""
    out = []
    _emit(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_sidecar(path, data):
    """Write the bytes `data` to `path` in place through one descriptor (see the module docstring)."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        old = os.fstat(fd)
        view = memoryview(data)
        while view:
            written = os.write(fd, view)
            if not written:
                raise OSError(f"the write made no progress with {len(view)} bytes left")
            view = view[written:]
        if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _level_text(lv):
    """A report level as printed: "n" for gamma, "(n,m)" for crossed."""
    return f"({lv[0]},{lv[1]})" if isinstance(lv, list) else lv


def _fit(text, width):
    """text, or its head and tail around "..", so that it takes at most `width` columns."""
    if len(text) <= width:
        return text
    head = (width - 1) // 2
    return text[:head] + ".." + text[len(text) - (width - 2 - head):]


def _print_table(report):
    cmd = report["command"]
    tasks = report["tasks"]
    print(f"# iwalab {report['version']}  {cmd}  input {report['input_digest']}")
    if cmd == "selftest":
        for c in tasks:
            mark = "PASS" if c["pass"] else "FAIL"
            extra = f"  [{c['detail']}]" if c["detail"] else ""
            print(f"{mark}  {c['name']}{extra}")
        return
    if cmd in ("prepare", "char"):
        for t in tasks:
            print(f"lambda = {t['lambda']}  mu = {t['mu']}")
            key = "distinguished" if cmd == "prepare" else "coefficients"
            print(f"{key}: {t[key]}")
        return
    if cmd == "akashi":
        for t in tasks:
            print(f"level {_level_text(t['level'])}  degree {t['degree']}")
            print(f"  coefficients: {t['coefficients']}")
        return
    if cmd == "euler":
        hdr = f"{'u':>10} {'level':>8} {'status':>28} {'chi':>6} {'cross':>6} {'agree':>6} {'N':>5}"
        print(hdr)
        for t in tasks:
            cross = t.get("analytic_exponent", t.get("akashi_exponent"))
            print(
                f"{_fit(t['u'], 10):>10} {_level_text(t['level']):>8} {t['status']:>28} "
                f"{str(t['chi_exponent']):>6} {str(cross):>6} "
                f"{str(t['routes_agree']):>6} {t['precision']:>5}"
            )
        return
    if cmd == "find-twist":
        for t in tasks:
            print(f"accepted u = {t['accepted_u']}  (budget {t['budget']})")
            for c in t["candidates"]:
                stat = "ACCEPTED" if c["accepted"] else "rejected"
                outs = ", ".join(
                    f"{_level_text(o['level'])}:{o['status']}"
                    + (f"/chi={o['chi_exponent']}" if o["chi_exponent"] is not None else "")
                    for o in c["outcomes"]
                )
                print(f"  u = {_fit(c['u'], 8):>8}  {stat}  {outs}")
            if "reverified_at" in t:
                print(f"  certificate re-verified at N = {t['reverified_at']}: {t['reverified_ok']}")
        return


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.max_precision < 1:
            raise ValidationError(
                "max-precision-positive", f"--max-precision must be >= 1, got {args.max_precision}"
            )
        if args.max_precision > PRECISION_CAP:
            raise SizeCapExceededError(
                f"--max-precision {args.max_precision} exceeds the cap {PRECISION_CAP}"
            )
        problem = None
        digest = digest_text("")
        if args.input:
            try:
                with open(args.input, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ParseError(f"cannot read {args.input}: {exc}") from None
            digest = digest_text(text)
            # an override replaces the file's key before parsing, so it meets the same checks
            overrides = {
                key: value
                for key, value in (("precision", args.precision), ("budget", args.budget))
                if value is not None
            }
            problem = parse_problem(text, overrides)
        report, code = run(
            problem,
            args.command,
            max_precision=args.max_precision,
            input_digest=digest,
        )
    except IwalabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _print_table(report)
    out_path = args.out
    if out_path is None and args.input:
        out_path = args.input + ".report.json"
    if out_path:
        try:
            _write_sidecar(out_path, _sidecar_text(report).encode("ascii"))
        except OSError as exc:
            print(f"error: cannot write the report to {out_path}: {exc}", file=sys.stderr)
            return 1
        print(f"report written to {out_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
