"""Byte-for-byte CLI outputs of limit, verify and reconstruct.

Each case runs one command in-process and compares its exit code and stdout
with a file under tests/golden/.  The inputs are the curve example at
--mmax 9 (stable) and --mmax 6 (still unstable) and a graded d = 2 complete
intersection at bound 5, each under grevlex and lex.  verify and reconstruct
read the text limit file of the same case.  Commands run with the golden
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

# name -> (input file, bound)
INSTANCES = {
    "curve9": ("example.ideal", 9),
    "curve6": ("example.ideal", 6),
    "ci_d2": ("ci_d2.ideal", 5),
}
ORDERS = ("grevlex", "lex")
# (output suffix, command, extra flags); verify and reconstruct read the
# text limit file written by the first entry
COMMANDS = (
    ("limit.txt", "limit", ()),
    ("limit.json", "limit", ("--json",)),
    ("verify.txt", "verify", ()),
    ("reconstruct.txt", "reconstruct", ()),
)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _outputs(name, order, workdir):
    """(suffix, exit code, stdout) of every command of one case, run in workdir."""
    source, bound = INSTANCES[name]
    src = GOLDEN / source if (GOLDEN / source).exists() else DATA / source
    shutil.copy(src, workdir / source)
    lis = f"{name}.{order}.lis"
    results = []
    for suffix, command, flags in COMMANDS:
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


def record():
    """Write every golden file from the current program's outputs."""
    import os
    import tempfile

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in INSTANCES:
                for order in ORDERS:
                    for suffix, code, out in _outputs(name, order, Path(tmp)):
                        path = GOLDEN / f"{name}.{order}.{suffix}"
                        path.write_text(f"exit {code}\n{out}", encoding="utf-8")
        finally:
            os.chdir(here)


if __name__ == "__main__":
    sys.exit(record())
