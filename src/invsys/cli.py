"""Command-line front-end: parse ideal files, drive the pipeline stages,
emit deterministic text or JSON, and run the built-in verifications."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .errors import InputSyntaxError, InvsysError
from .groebner import DEFAULT_CEILING, artinian_form, hilbert_data
from .duality import perp_ideal, socle_basis
from .io import (
    load_limit_system,
    lis_to_json,
    parse_ideal_file,
    render_lis_file,
)
from .limitsys import (
    artinian_reduction,
    dual_tower,
    grid,
    reconstruct,
    section_lift,
    verify_lis,
)
from .linalg import echelon_basis
from .rees import MonoidIdeal, rees_dimension_check
from .ring import order_from_name


# the options that several subcommands read; each subcommand takes only those
# it names
_SHARED = {
    "input": (("-i", "--input"), {"required": True, "help": "input file"}),
    "field": (("--field",), {"default": None, "help": "override field: q or fp:<p>"}),
    "order": (("--order",), {"default": "grevlex", "choices": ["grevlex", "lex"]}),
    "degcap": (("--degcap",), {"type": int, "default": None,
                               "help": "truncation ceiling (rees-check: truncation degree)"}),
}
_PIPELINE = ("input", "field", "order", "degcap")

# name -> (help, shared options it reads, its own arguments as (flags, options))
_COMMANDS = {
    "perp": ("inverse system of an Artinian (reduced) ideal", _PIPELINE, (
        (("--m",), {"default": None, "help": "Artinian reduction multi-index, e.g. 2 or 2,2"}),
        (("--degbound",), {"type": int, "default": None}),
    )),
    "socle": ("socle basis of an Artinian reduction", _PIPELINE, ((("--m",), {"default": None}),)),
    "hilbert": ("Hilbert profile of an Artinian reduction", _PIPELINE, ((("--m",), {"default": None}),)),
    "reduce": ("print the Artinian reduction I + <z^m>", _PIPELINE, ((("--m",), {"required": True}),)),
    "limit": ("compute the limit inverse system up to a bound", _PIPELINE, (
        (("--mmax",), {"type": int, "default": 3}),
        (("--trust-regular",), {"action": "store_true",
                                "help": "skip the z-block regularity verification"}),
    )),
    "reconstruct": ("recover the ideal from a limit system file", ("input", "order"), ()),
    "verify": ("check the limit-system conditions of a file", ("input",), ()),
    "rees-check": ("graded-dimension check for a filtration sequence", _PIPELINE, (
        (("--seq",), {"required": True, "help": "comma-separated sequence of polynomials"}),
        (("--level",), {"type": int, "default": 4}),
    )),
    "monoid-socle": ("socle of a monoid ideal in N^t", (), (
        (("--gens",), {"required": True,
                       "help": "semicolon-separated exponent vectors, e.g. '2,0;0,2'"}),
    )),
}


def _common(p, shared):
    for name in shared:
        flags, options = _SHARED[name]
        p.add_argument(*flags, **options)
    p.add_argument("--seed", type=int, default=0,
                   help="drives no search; only recorded as inputs.seed under --json")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("-o", "--output", default=None, help="write main output to a file")


@functools.cache
def _build_parser(command=None):
    """The argument parser; given a command, only that subcommand's arguments.

    The other subcommands are left out, and the command list is spelled out
    as the metavar, so usage lines and errors read as the full parser's do
    for any command line that names this command first.  Each parser is
    built once per process: parse_args keeps no state between calls.
    """
    top = argparse.ArgumentParser(
        prog="invsys",
        description="Exact inverse systems of Artinian and Cohen-Macaulay quotients",
    )
    if command is None:
        sub = top.add_subparsers(dest="command", required=True)
    else:
        metavar = "{" + ",".join(_COMMANDS) + "}"
        sub = top.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_text, shared, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        _common(p, shared)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return top


def _parse_multiindex(text):
    if text is None:
        return None
    text = text.strip()
    if not text:
        return ()
    return tuple(int(k) for k in text.split(","))


def _load_ideal(args):
    with open(args.input, encoding="utf-8") as fh:
        text = fh.read()
    ctx, ideal = parse_ideal_file(text, field_override=args.field)
    return ctx, ideal


def _emit(args, payload, text_lines):
    body = json.dumps(payload, indent=2, sort_keys=True) + "\n" if args.json else "\n".join(text_lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _payload(args, ctx, results, diagnostics):
    return {
        "command": args.command,
        "inputs": {"file": getattr(args, "input", None), "seed": args.seed},
        "ring": {
            "field": ctx.field.name,
            "mode": ctx.mode,
            "vars": list(ctx.names),
            "zvars": list(ctx.zvars),
        } if ctx is not None else None,
        "results": results,
        "diagnostics": diagnostics,
    }


def _maybe_reduce(ideal, m, ceiling):
    if m is None:
        return ideal
    return artinian_reduction(ideal, m, ceiling)


def _run(args):
    if args.command == "monoid-socle":
        rows = [v for v in args.gens.split(";") if v.strip()]
        gens = tuple(tuple(int(k) for k in row.split(",")) for row in rows)
        if not gens:
            raise InputSyntaxError("no generators given")
        M = MonoidIdeal(len(gens[0]), gens)
        soc = M.socle()
        results = [",".join(str(k) for k in n) for n in soc]
        _emit(args, _payload(args, None, results, {"count": len(soc)}), results or ["(empty)"])
        return 0

    if args.command in ("reconstruct", "verify"):
        with open(args.input, encoding="utf-8") as fh:
            H = load_limit_system(fh.read())
        ctx = H.ring
        report = verify_lis(H)
        if args.command == "verify":
            lines = []
            for c in report.checks:
                stage = ",".join(str(k) for k in c.m) if c.m else "-"
                lines.append(f"{'PASS' if c.ok else 'FAIL'} ({c.condition}) m={stage} {c.detail}")
            lines.append("verdict " + ("PASS" if report.passed else "FAIL"))
            results = [
                {"condition": c.condition, "m": list(c.m) if c.m else [], "ok": c.ok, "detail": c.detail}
                for c in report.checks
            ]
            _emit(args, _payload(args, ctx, results, {"passed": report.passed}), lines)
            return 0 if report.passed else 1
        if not report.passed:
            failed = sorted({c.condition for c in report.failures()})
            raise InvsysError(f"limit system rejected: conditions {failed} fail")
        order = order_from_name(args.order)
        res = reconstruct(H, order)
        results = [g.render(order) for g in res.ideal.gens]
        diag = {"stable": res.stable, "stage": res.stage, "note": res.diagnostics}
        lines = results + [f"stable {res.stable}", f"stage {res.stage}"]
        _emit(args, _payload(args, ctx, results, diag), lines)
        return 0 if res.stable else 1

    order = order_from_name(args.order)
    if args.degcap is not None and args.degcap < 0:
        raise ValueError(f"--degcap {args.degcap} must be at least 0")
    ceiling = args.degcap if args.degcap is not None else DEFAULT_CEILING
    ctx, ideal = _load_ideal(args)

    if args.command == "perp":
        red = _maybe_reduce(ideal, _parse_multiindex(args.m), ceiling)
        W = perp_ideal(red, degbound=args.degbound, ceiling=ceiling)
        # the span's one reduced echelon in --order
        rows = echelon_basis(ctx.field, ctx.order_key(order), [F.terms for F in W.basis])
        results = [ctx.dual.from_terms(row).render(order) for row in rows]
        diag = {"dim": W.dim, "degbound": W.degbound}
        _emit(args, _payload(args, ctx, results, diag), results)
        return 0

    if args.command == "socle":
        red = _maybe_reduce(ideal, _parse_multiindex(args.m), ceiling)
        reps = socle_basis(red, order, ceiling)
        results = [p.render(order) for p in reps]
        _emit(args, _payload(args, ctx, results, {"type": len(reps)}), results)
        return 0

    if args.command == "hilbert":
        red = _maybe_reduce(ideal, _parse_multiindex(args.m), ceiling)
        hd = hilbert_data(red, ceiling)
        results = list(hd.values)
        lines = [
            "profile " + ",".join(str(v) for v in hd.values),
            f"length {hd.length}",
            f"socle-degree {hd.socle_degree}",
        ]
        diag = {"length": hd.length, "socle_degree": hd.socle_degree}
        _emit(args, _payload(args, ctx, results, diag), lines)
        return 0

    if args.command == "reduce":
        red = artinian_reduction(ideal, _parse_multiindex(args.m), ceiling)
        _, bound = artinian_form(red, ceiling)
        results = [g.render(order) for g in red.gens]
        _emit(args, _payload(args, ctx, results, {"artinian_bound": bound}), results)
        return 0

    if args.command == "limit":
        if args.mmax < 1:
            raise ValueError(f"--mmax {args.mmax} must be at least 1")
        tower = dual_tower(ideal, args.mmax, order, ceiling, trust_regular=args.trust_regular)
        H = section_lift(tower)
        report = verify_lis(H)
        if not report.passed:
            failed = sorted({c.condition for c in report.failures()})
            raise InvsysError(
                f"computed family violates the limit-system conditions {failed}; "
                "this indicates input outside the correspondence class"
            )
        if args.json:
            doc = lis_to_json(H, order)
            # W_top is certified free over K[z]/(z^B): dim W_m = dim W_1 * prod(m)
            length = len(tower.modules[(1,) * H.d])
            doc_payload = _payload(args, ctx, doc["family"], {
                "d": H.d, "r": H.r, "s": H.s, "bound": H.bound,
                "stage_dims": {",".join(map(str, m)): length * math.prod(m) for m in grid(H.d, H.bound)},
            })
            doc_payload["limit_system"] = doc
            body = json.dumps(doc_payload, indent=2, sort_keys=True) + "\n"
        else:
            body = render_lis_file(H, order)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(body)
            sys.stdout.write(
                f"limit system d={H.d} r={H.r} s={H.s} bound={H.bound} -> {args.output}\n"
            )
        else:
            sys.stdout.write(body)
        return 0

    if args.command == "rees-check":
        seq = [ctx.parse(s) for s in args.seq.split(",") if s.strip()]
        t = args.degcap if args.degcap is not None else 3
        rep = rees_dimension_check(seq, ideal, args.level, degcap=t, order=order)
        lines = []
        results = []
        if not rep.regular:
            lines.append(f"REJECTED not a regular sequence: {rep.reason}")
        for row in rep.rows:
            lines.append(
                f"{'PASS' if row.ok else 'FAIL'} level {row.level}: dim {row.graded_dim} expected {row.expected}"
            )
            results.append({"level": row.level, "dim": row.graded_dim, "expected": row.expected, "ok": row.ok})
        lines.append("verdict " + ("PASS" if rep.passed else "FAIL"))
        diag = {"regular": rep.regular, "reason": rep.reason, "passed": rep.passed}
        _emit(args, _payload(args, ctx, results, diag), lines)
        return 0 if rep.passed else 1

    raise InvsysError(f"unhandled command {args.command}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # help and a line naming no command need the full parser's text
    lazy = argv and argv[0] in _COMMANDS and "-h" not in argv and "--help" not in argv
    args = _build_parser(argv[0] if lazy else None).parse_args(argv)
    try:
        return _run(args)
    except InputSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvsysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
