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
F_32003.  limit's text output at d = 3, bound 5 (125 stages, over Q and
F_32003), at the curve's bound 20 and on the rational normal quartic at
bounds 6 and 10 (data/rnc4.ideal, d = 2 and type 3; its top kernel at bound
10 has 42,504 columns) is pinned by its SHA-256 digest alone, and so is
reconstruct's on each of those limit files but the quartic's at bound 10.
perp (text and --json) and rees-check, whose answers do not depend on the
order but which print in --order (perp its basis, rees-check the polynomial
named in a rejection), are pinned by digest under both orders.  Commands run
with the golden directory's input copied into a scratch working directory,
so the file name that --json echoes is the bare input name.  verify and
reconstruct also run on ci_d2_tampered.lis, the ci-d2 limit file under
grevlex with Y0^6*Y1*Z0*Z1 added to H_(2,2) and H_(1,1) replaced by its
contraction Y0^6*Y1 + Y0^2*Y1: compat and (d) fail, so (c) is decided on
the stage modules themselves.

To record the goldens again, when an output is meant to change:

    PYTHONPATH=src python tests/test_golden_cli.py

which also prints the digests of LIMIT_DIGESTS, RECONSTRUCT_DIGESTS and
ORDER_DIGESTS, to be pasted in.
"""

import contextlib
import hashlib
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
# text limit file written by the first entry, and every command but verify,
# which reads no order, runs in the case's order
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
# (input file, bound, extra flags, order) -> SHA-256 of limit's stdout
LIMIT_DIGESTS = {
    ("d3.ideal", 5, (), "grevlex"): "3d66add363da03ece3a8cc97602e7761090f3de160304721372af49f31a264e7",
    ("d3.ideal", 5, (), "lex"): "137350709a949fde10f163f53aaebb104915b07422135b48a4c0d1d5f8b79535",
    ("d3.ideal", 5, ("--field", "fp:32003"), "grevlex"):
        "cc607ae5a8d0c94b2e7de4cdb0ebcdd352b16296b59b6a7012fe758444cb13f2",
    ("d3.ideal", 5, ("--field", "fp:32003"), "lex"):
        "abb077de759fecbfbd927797438905a7ba91704950ca71bb6240f941f3f31508",
    ("example.ideal", 20, (), "grevlex"): "6e41a6ae0ad838c21b916ee3f8dfc26763d6c0fbbed54fb1ab516aca9d5b255c",
    ("example.ideal", 20, (), "lex"): "489a50101e591c19f139c940eff693ab169d91d2b8456acf74887cbd86d72c93",
    ("rnc4.ideal", 6, (), "grevlex"): "a6afe1207c68e131931b65daffe4c0d988e7364d2116c9a95b499d2bf21ae067",
    ("rnc4.ideal", 6, (), "lex"): "b4b120a8a53f2903141e49b4a01d2e41067646dc407858e4c374b5cb84c305a3",
    ("rnc4.ideal", 10, (), "grevlex"): "622faa33e3c4430d04752f766d0b7fe018b4b2ef02fb65ceb5ed69416e298ac0",
    ("rnc4.ideal", 10, (), "lex"): "b30db398c6b0bff51addc4fae8664dd83489c586df77126a40fe406f0be15a23",
}
# the cases above but rnc4 at bound 10 -> SHA-256 of reconstruct's stdout on limit's text output
RECONSTRUCT_DIGESTS = {
    ("d3.ideal", 5, (), "grevlex"): "2811fe1be39c370e60372f999dc0eec83b706266e61e934eb441575d3fbd77e5",
    ("d3.ideal", 5, (), "lex"): "67442a2682b96e6b0c392c312518eb5f7c434b95f24eab01267a84c18772ab16",
    ("d3.ideal", 5, ("--field", "fp:32003"), "grevlex"):
        "6adbe05140a1c7c2229ceafefbcf094de11465216373b4c96e293ea3b245762b",
    ("d3.ideal", 5, ("--field", "fp:32003"), "lex"):
        "7c8055942f5591bf4b55b35e36f2ee9c2fe0bd8d76eb293145929bf4bb275856",
    ("example.ideal", 20, (), "grevlex"): "9b9bfa3a5c0e4c902283f2478f93961f172378689c27513fcaa91dfea623b241",
    ("example.ideal", 20, (), "lex"): "51760c152164420fe2ecb468076d9d43f7aa3d155404bac39faa931b0eaf632e",
    ("rnc4.ideal", 6, (), "grevlex"): "58046a8af1347923067e73eeb7b6d99dfa15ec441089bc64dba1262b7e2653c3",
    ("rnc4.ideal", 6, (), "lex"): "74cd2ba4a32756c36d556d45d6298a2a2f529e17a3acacd010dc6efe5908e437",
}
# the order-reading commands whose answer does not depend on the order:
# perp prints its basis, and rees-check the polynomial named in a
# rejection, in --order.  (argv without --order, order) -> (exit code,
# SHA-256 of stdout); the input is argv[2]
ORDER_DIGESTS = {
    (("perp", "-i", "ci_d2.ideal", "--m", "2,2"), "grevlex"):
        (0, "f2a1769045f26288bba8bd130f12bffb37e69af466dc3d7017965e2c6128adf8"),
    (("perp", "-i", "ci_d2.ideal", "--m", "2,2"), "lex"):
        (0, "9f2b396712150e025b48a242cfcf90272c01f7f21a8fe00112753eaffb926bd4"),
    (("perp", "-i", "ci_d2.ideal", "--m", "2,2", "--json"), "grevlex"):
        (0, "4b142e745cb7ac3f74d77421ffc3fef9759c9d7dfa28783e164a767ef537ac0a"),
    (("perp", "-i", "ci_d2.ideal", "--m", "2,2", "--json"), "lex"):
        (0, "2b24d5371b1c792ff138060342652ca44db9d028489876c523997615fed4a3c8"),
    (("perp", "-i", "example.ideal", "--m", "2"), "grevlex"):
        (0, "7b84b646e7a687e0b207c57f5ad7a183ecd889f83a5643953bdbb0a726c4764f"),
    (("perp", "-i", "example.ideal", "--m", "2"), "lex"):
        (0, "cf75730dbb87f5483ac4c25348e849804124f389a2a7cd2a677b2371102489a4"),
    (("perp", "-i", "example.ideal", "--m", "2", "--json"), "grevlex"):
        (0, "d04a85852b1e29246b41df276d10c4d5d397cd2245cffde21718edc36a873d9a"),
    (("perp", "-i", "example.ideal", "--m", "2", "--json"), "lex"):
        (0, "87bcb28ac60e1b0548f289447ce28944723a66c2b4c4dc9421e374909a9f0667"),
    (("rees-check", "-i", "ci_d2.ideal", "--seq", "z0,z1", "--level", "3"), "grevlex"):
        (0, "81d6bfd31a955f3446446fc2d0a25975b1bd66b234517687115f26be6257184a"),
    (("rees-check", "-i", "ci_d2.ideal", "--seq", "z0,z1", "--level", "3"), "lex"):
        (0, "81d6bfd31a955f3446446fc2d0a25975b1bd66b234517687115f26be6257184a"),
    (("rees-check", "-i", "xy_empty.ideal", "--seq", "x + y^2,x^2 + x*y^2",
      "--level", "2", "--degcap", "2"), "grevlex"):
        (1, "6caf74a9932979af8ee9cc7d748b04264d09e24d562f6a59c2276ed112dcbf07"),
    (("rees-check", "-i", "xy_empty.ideal", "--seq", "x + y^2,x^2 + x*y^2",
      "--level", "2", "--degcap", "2"), "lex"):
        (1, "cfc94f6f5c870ac79352720269bd75510cadd8a7f87d17fdf7a2e559c06f31d3"),
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
        code, out = _run(argv + ([] if command == "verify" else ["--order", order]))
        if suffix == "limit.txt":
            (workdir / lis).write_text(out, encoding="utf-8")
        results.append((suffix, code, out))
    return results


def _limit_run(case, workdir):
    """(exit code, stdout) of the limit run of one LIMIT_DIGESTS case."""
    source, bound, extra, order = case
    _copy_input(source, workdir)
    return _run(["limit", "-i", source, "--mmax", str(bound), *extra, "--order", order])


def _reconstruct_run(case, workdir):
    """(exit code, stdout) of reconstruct on the limit file of one case."""
    _, out = _limit_run(case, workdir)
    (workdir / "H.lis").write_text(out, encoding="utf-8")
    return _run(["reconstruct", "-i", "H.lis", "--order", case[3]])


def _order_run(case, workdir):
    """(exit code, stdout) of one ORDER_DIGESTS case."""
    argv, order = case
    _copy_input(argv[2], workdir)
    return _run([*argv, "--order", order])


def _digest(code, out):
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


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


@pytest.mark.parametrize("case", sorted(LIMIT_DIGESTS), ids=lambda case: "-".join(map(str, case)))
def test_limit_outputs_match_digests(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _digest(*_limit_run(case, tmp_path)) == (0, LIMIT_DIGESTS[case])


@pytest.mark.parametrize("case", sorted(RECONSTRUCT_DIGESTS), ids=lambda case: "-".join(map(str, case)))
def test_reconstruct_outputs_match_digests(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _digest(*_reconstruct_run(case, tmp_path)) == (0, RECONSTRUCT_DIGESTS[case])


@pytest.mark.parametrize("case", sorted(ORDER_DIGESTS), ids=lambda case: "-".join(case[0][:1] + case[0][2:] + case[1:]))
def test_order_outputs_match_digests(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _digest(*_order_run(case, tmp_path)) == ORDER_DIGESTS[case]


TAMPERED = "ci_d2_tampered"


def _tampered_runs(workdir):
    """(suffix, exit code, stdout) of verify and reconstruct on the tampered limit file."""
    _copy_input(f"{TAMPERED}.lis", workdir)
    return [(f"{command}.txt", *_run([command, "-i", f"{TAMPERED}.lis"])) for command in ("verify", "reconstruct")]


def test_tampered_limit_file_outputs_match_goldens(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for suffix, code, out in _tampered_runs(tmp_path):
        assert (code, out) == _golden(TAMPERED, "grevlex", suffix), suffix


@pytest.mark.parametrize("name", ("curve9", "ci_d2"))
def test_verify_prints_the_same_for_both_orders(name, tmp_path, monkeypatch):
    # the report holds ranks, kills, degrees and the dimensions and
    # containments of the meets, none of which depends on the order, so
    # verify takes no --order, and the limit files written in either order
    # give the same report
    monkeypatch.chdir(tmp_path)
    reports = []
    for limit_order in ORDERS:
        (tmp_path / "H.lis").write_text(_golden(name, limit_order, "limit.txt")[1], encoding="utf-8")
        reports.append(_run(["verify", "-i", "H.lis"]))
    assert reports == [_golden(name, order, "verify.txt") for order in ORDERS]
    assert reports[0] == reports[1]


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
            for suffix, code, out in _tampered_runs(Path(tmp)):
                path = GOLDEN / f"{TAMPERED}.grevlex.{suffix}"
                path.write_text(f"exit {code}\n{out}", encoding="utf-8")
            for case in LIMIT_DIGESTS:
                print(case, *_digest(*_limit_run(case, Path(tmp))))
            for case in RECONSTRUCT_DIGESTS:
                print(case, *_digest(*_reconstruct_run(case, Path(tmp))))
            for case in ORDER_DIGESTS:
                print(case, *_digest(*_order_run(case, Path(tmp))))
        finally:
            os.chdir(here)


if __name__ == "__main__":
    sys.exit(record())
