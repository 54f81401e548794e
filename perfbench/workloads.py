"""The three workloads: their set-up, operations and output checks.

Every operation is timed alone with time.perf_counter; its output is checked
after the clock stops.  CLI operations go through invsys.cli.main in-process
with the defaults a user gets (--jobs 1).  The socle-product identity has no
CLI command, so it is called through invsys.rees.socle_product_check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import instances
from invsys import Ideal, cli, rees
from invsys.io import parse_ideal_file

GOLDENS = Path(__file__).resolve().parent / "goldens.json"
PRIME = "fp:32003"


def sha256(data):
    return hashlib.sha256(data.encode()).hexdigest()


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@dataclass
class Op:
    """One timed call: kind names the end-to-end metric it feeds.

    prepare() builds the arguments outside the timed interval, call(args) is
    timed, and check(result) returns an error message or None.
    """

    kind: str
    prepare: object
    call: object
    check: object


def _expect_cli(result, want, last=None, first=None):
    code, out, err = result
    lines = out.splitlines()
    if code != want:
        return f"exit code {code}, expected {want}: {err.strip()}"
    if last is not None and (not lines or lines[-1] != last):
        return f"last line {lines[-1:]!r}, expected {last!r}"
    if first is not None and (not lines or not lines[0].startswith(first)):
        return f"first line {lines[:1]!r}, expected {first!r}..."
    return None


def pipeline_ops(path, text, mmax, goldens):
    """limit -> verify -> reconstruct on one ideal file, as a user runs them."""
    lis = path.with_suffix(".lis")
    ctx, ideal = parse_ideal_file(text)
    golden = goldens.get(sha256(text))

    def check_limit(result):
        bad = _expect_cli(result, 0)
        if bad:
            return bad
        if golden is None:
            return "no golden limit file for this input"
        if sha256(lis.read_text(encoding="utf-8")) != golden:
            return "limit file differs from its golden"
        return None

    def check_verify(result):
        return _expect_cli(result, 0, last="verdict PASS")

    def check_reconstruct(result):
        bad = _expect_cli(result, 0)
        lines = result[1].splitlines()
        if bad or len(lines) < 2 or lines[-2] != "stable True":
            return bad or f"tail {lines[-2:]!r}, expected stable True"
        got = Ideal(ctx, [ctx.parse(g) for g in lines[:-2]])
        return None if got.equals(ideal) else "reconstructed ideal differs from the input"

    def argv(*words):
        return lambda: list(words)

    return [
        Op("limit", argv("limit", "-i", str(path), "--mmax", str(mmax), "-o", str(lis)),
           run_cli, check_limit),
        Op("verify", argv("verify", "-i", str(lis)), run_cli, check_verify),
        Op("reconstruct", argv("reconstruct", "-i", str(lis)), run_cli, check_reconstruct),
    ]


def rees_ops(path, text, planted):
    """rees-check and three socle-product checks over F_32003 on one
    instance, then one expected rejection per planted sequence."""
    ctx, ideal = parse_ideal_file(text, field_override=PRIME)
    seq = [ctx.variable(z) for z in ctx.zvars]
    ops = [Op(
        "rees_check",
        lambda: ["rees-check", "-i", str(path), "--field", PRIME, "--seq=" + ",".join(ctx.zvars),
                 "--level", "4", "--degcap", "3"],
        run_cli,
        lambda r: _expect_cli(r, 0, last="verdict PASS"),
    )]
    for m in (1, 2, 3):
        ops.append(Op(
            "socle_product",
            # a fresh Ideal per call, so no Groebner basis is cached across calls
            lambda m=m: (Ideal(ctx, ideal.gens), seq, rees.diagonal_monoid_ideal((m, m))),
            lambda args: rees.socle_product_check(*args),
            lambda report: None if report.passed else "socle product identity fails",
        ))
    for ppath, pseq in planted:
        ops.append(Op(
            "reject",
            lambda ppath=ppath, pseq=pseq: ["rees-check", "-i", str(ppath), "--field", PRIME,
                                            "--seq=" + pseq, "--level", "2", "--degcap", "2"],
            run_cli,
            lambda r: _expect_cli(r, 1, first="REJECTED"),
        ))
    return ops


def _write(workdir, name, text):
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return path


def _variants(bases, rng):
    """One seeded signed variant per base instance, in seeded order."""
    texts = []
    for text in bases:
        nvars = len(parse_ideal_file(text)[0].names)
        texts.append(instances.sign_variant(text, instances.random_signs(rng, nvars)))
    rng.shuffle(texts)
    return texts


def setup_curve(rng, workdir, goldens):
    texts = _variants([instances.CURVE_TEXT], rng)
    return texts, [pipeline_ops(_write(workdir, "curve0.ideal", t), t, 9, goldens) for t in texts]


def setup_ci(rng, workdir, goldens):
    texts = _variants(instances.complete_intersections(), rng)
    return texts, [
        pipeline_ops(_write(workdir, f"ci{i}.ideal", t), t, 5, goldens) for i, t in enumerate(texts)
    ]


def setup_rees(rng, workdir, goldens):
    texts = _variants(instances.complete_intersections(), rng)
    planted = instances.planted_instances(rng)
    paths = [(_write(workdir, f"planted{i}.ideal", t), seq) for i, (t, seq) in enumerate(planted)]
    k = len(texts)
    ops = [rees_ops(_write(workdir, f"rees{i}.ideal", t), t, paths[i::k]) for i, t in enumerate(texts)]
    return texts + [f"{t}# --seq={seq}\n" for t, seq in planted], ops


WORKLOADS = {
    "curve": (setup_curve, ("limit", "verify", "reconstruct")),
    "ci-d2": (setup_ci, ("limit", "verify", "reconstruct")),
    "rees-fp": (setup_rees, ("rees_check", "socle_product", "reject")),
}


def load_goldens():
    return json.loads(GOLDENS.read_text(encoding="utf-8"))
