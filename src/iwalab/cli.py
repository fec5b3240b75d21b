"""Command-line entry point.

    iwalab <command> --input <file> [--precision N] [--max-precision N]
                     [--budget K] [--out <file>]

Commands: the keys of the command table `workbench.COMMANDS`.
Exit codes: 0 = all tasks decided, 2 = some task undecided at the precision
or budget cap, 1 = error.  A human-readable table goes to stdout; the full
machine-readable report goes to the sidecar file (default: <input>.report.json).
A character wider than its table column is printed as its head and tail
around "..", so every row keeps the header's width; the sidecar holds it whole.

The sidecar is rewritten in place: it is opened without O_TRUNC (truncating an
existing file on open is slow on some file systems, ext4 with discard among
them), and after the write it is cut to the report's length only when it is a
regular file that was longer, so `--out /dev/null` and pipes
(`--out /dev/stdout`) work.
The write is not crash-atomic, nor was the truncating open before it: neither
calls fsync, so a crash can leave a short or mixed file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

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


def _open_in_place(path, flags):
    """os.open for the sidecar without O_TRUNC, with the mode builtin open gives a new file."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


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
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        try:
            with open(out_path, "w", encoding="utf-8", opener=_open_in_place) as fh:
                old = os.fstat(fh.fileno())
                fh.write(text)
                # json.dumps writes ASCII, so len(text) is the new length in bytes
                if stat.S_ISREG(old.st_mode) and old.st_size > len(text):
                    fh.truncate()
        except OSError as exc:
            print(f"error: cannot write the report to {out_path}: {exc}", file=sys.stderr)
            return 1
        print(f"report written to {out_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
