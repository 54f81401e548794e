"""Byte-for-byte CLI outputs of limit, verify, reconstruct, socle and hilbert.

Each case runs one command in-process and compares its exit code and stdout
with a file under tests/golden/.  The inputs are the curve example at
--mmax 9 (stable) and --mmax 6 (still unstable) and a graded d = 2 complete
intersection at bound 5, and a graded d = 3 complete intersection at bound 4
(data/d3.ideal: 64 stages, echelons with fractions), each under grevlex and
lex.  verify and reconstruct read the text limit file of the same case.  The complete intersection at
bound 15, whose top stage has N_top = 32, runs only limit (text) and
reconstruct.  socle and hilbert run, as text and as --json, on Artinian
reductions: the curve at --m 1, 2 and 3 and the complete intersection at
--m 2,3, under both orders, and the complete intersection once more over
F_32003.  Commands run with the golden
directory's input copied into a scratch working directory, so the file name
that --json echoes is the bare input name.

To record the goldens again, when an output is meant to change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import shutil
import sys
from pathlib import Path

import pytest

from invsys.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = GOLDEN.parent.parent / "data"

ORDERS = ("grevlex", "lex")
# (output suffix, command, extra flags); verify and reconstruct read the
# text limit file written by the first entry
COMMANDS = (
    ("limit.txt", "limit", ()),
    ("limit.json", "limit", ("--json",)),
    ("verify.txt", "verify", ()),
    ("reconstruct.txt", "reconstruct", ()),
)
ALL = tuple(suffix for suffix, _, _ in COMMANDS)
# name -> (input file, bound, output suffixes to run)
INSTANCES = {
    "curve9": ("example.ideal", 9, ALL),
    "curve6": ("example.ideal", 6, ALL),
    "ci_d2": ("ci_d2.ideal", 5, ALL),
    "ci_d2_15": ("ci_d2.ideal", 15, ("limit.txt", "reconstruct.txt")),
    "d3_4": ("d3.ideal", 4, ALL),
}
# name -> (input file, --m, extra flags, orders) for socle and hilbert
REDUCTIONS = {
    "curve_m1": ("example.ideal", "1", (), ORDERS),
    "curve_m2": ("example.ideal", "2", (), ORDERS),
    "curve_m3": ("example.ideal", "3", (), ORDERS),
    "ci_d2_m23": ("ci_d2.ideal", "2,3", (), ORDERS),
    "ci_d2_m23_fp32003": ("ci_d2.ideal", "2,3", ("--field", "fp:32003"), ("grevlex",)),
}
REDUCTION_COMMANDS = tuple(
    (f"{command}.{kind}", command, flags)
    for command in ("socle", "hilbert")
    for kind, flags in (("txt", ()), ("json", ("--json",)))
)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _copy_input(source, workdir):
    src = GOLDEN / source if (GOLDEN / source).exists() else DATA / source
    shutil.copy(src, workdir / source)


def _outputs(name, order, workdir):
    """(suffix, exit code, stdout) of every command of one case, run in workdir."""
    if name in REDUCTIONS:
        source, m, extra, _ = REDUCTIONS[name]
        _copy_input(source, workdir)
        return [
            (suffix, *_run([command, "-i", source, "--m", m, *extra, *flags, "--order", order]))
            for suffix, command, flags in REDUCTION_COMMANDS
        ]
    source, bound, suffixes = INSTANCES[name]
    _copy_input(source, workdir)
    lis = f"{name}.{order}.lis"
    results = []
    for suffix, command, flags in COMMANDS:
        if suffix not in suffixes:
            continue
        if command == "limit":
            argv = ["limit", "-i", source, "--mmax", str(bound), *flags]
        else:
            argv = [command, "-i", lis, *flags]
        code, out = _run(argv + ["--order", order])
        if suffix == "limit.txt":
            (workdir / lis).write_text(out, encoding="utf-8")
        results.append((suffix, code, out))
    return results


def _golden(name, order, suffix):
    path = GOLDEN / f"{name}.{order}.{suffix}"
    code, _, body = path.read_text(encoding="utf-8").partition("\n")
    return int(code.removeprefix("exit ")), body


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_cli_outputs_match_goldens(name, order, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for suffix, code, out in _outputs(name, order, tmp_path):
        assert (code, out) == _golden(name, order, suffix), f"{name}.{order}.{suffix}"


@pytest.mark.parametrize(
    "name, order", [(name, order) for name, case in REDUCTIONS.items() for order in case[3]]
)
def test_reduction_outputs_match_goldens(name, order, tmp_path, monkeypatch):
    test_cli_outputs_match_goldens(name, order, tmp_path, monkeypatch)


@pytest.mark.parametrize("limit_order", ORDERS)
@pytest.mark.parametrize("name", ("curve9", "ci_d2"))
def test_verify_prints_the_same_under_both_orders(name, limit_order, tmp_path, monkeypatch):
    # the report holds ranks, kills, degrees and the dimensions and
    # containments of the meets, none of which depends on the order
    monkeypatch.chdir(tmp_path)
    (tmp_path / "H.lis").write_text(_golden(name, limit_order, "limit.txt")[1], encoding="utf-8")
    want = _golden(name, limit_order, "verify.txt")
    for order in ORDERS:
        assert _run(["verify", "-i", "H.lis", "--order", order]) == want, order


def record():
    """Write every golden file from the current program's outputs."""
    import os
    import tempfile

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            cases = [(name, ORDERS) for name in INSTANCES]
            cases += [(name, case[3]) for name, case in REDUCTIONS.items()]
            for name, orders in cases:
                for order in orders:
                    for suffix, code, out in _outputs(name, order, Path(tmp)):
                        path = GOLDEN / f"{name}.{order}.{suffix}"
                        path.write_text(f"exit {code}\n{out}", encoding="utf-8")
        finally:
            os.chdir(here)


if __name__ == "__main__":
    sys.exit(record())
