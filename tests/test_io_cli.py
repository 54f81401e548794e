import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from invsys import Ideal, InputSyntaxError, PipelineError, context_from_names
from invsys.cli import _build_parser, main
from invsys.io import (
    load_limit_system,
    lis_from_json,
    lis_to_json,
    parse_ideal_file,
    parse_lis_file,
    render_ideal_file,
    render_lis_file,
)
from invsys.limitsys import (
    artinian_reduction,
    check_z_regularity,
    diag,
    dual_tower,
    section_lift,
)

from conftest import DATA, non_free_family, random_polynomial


def test_parse_example_file(curve):
    ctx, ideal = curve
    assert ctx.mode == "local"
    assert ctx.names == ("x", "y", "z", "w")
    assert ctx.zvars == ("x",)
    assert len(ideal.gens) == 5


def test_parse_minimal_file():
    ctx, ideal = parse_ideal_file("field Q\nring graded vars x\nideal:\nx^2\n")
    assert ctx.names == ("x",)
    assert [g.render() for g in ideal.gens] == ["x^2"]


def test_parse_rejects_unknown_zvar():
    with pytest.raises(InputSyntaxError):
        parse_ideal_file("field Q\nring graded vars x\nzvars q\nideal:\nx\n")


def test_parse_rejects_unknown_variable():
    with pytest.raises(InputSyntaxError) as err:
        parse_ideal_file("field Q\nring graded vars x\nideal:\nx + t\n")
    assert "line" in str(err.value)


def test_ideal_file_roundtrip(curve):
    ctx, ideal = curve
    text = render_ideal_file(ctx, ideal)
    ctx2, ideal2 = parse_ideal_file(text)
    assert ctx.same_as(ctx2)
    assert ideal.gens == ideal2.gens
    assert render_ideal_file(ctx2, ideal2) == text


def test_field_override():
    ctx, ideal = parse_ideal_file(
        "field Q\nring graded vars x\nideal:\nx^2 - 8\n", field_override="fp:7"
    )
    assert ctx.field.name == "F7"
    assert ideal.gens[0].render() == "x^2 + 6"


def make_band_H():
    from invsys import Ideal, context_from_names

    ctx = context_from_names("y,z", zvars="z")
    I = Ideal(ctx, [ctx.variable(0) ** 2])
    return section_lift(dual_tower(I, 3))


def test_lis_file_roundtrip():
    H = make_band_H()
    text = render_lis_file(H)
    H2 = parse_lis_file(text)
    assert (H2.d, H2.r, H2.s, H2.bound) == (H.d, H.r, H.s, H.bound)
    assert H2.family == H.family
    assert render_lis_file(H2) == text


def test_lis_json_roundtrip():
    H = make_band_H()
    doc = lis_to_json(H)
    H2 = lis_from_json(doc)
    assert H2.family == H.family
    H3 = load_limit_system(json.dumps(doc))
    assert H3.family == H.family


def test_lis_parse_rejects_missing_stage():
    H = make_band_H()
    text = render_lis_file(H)
    cut = text.rsplit("m 3:", 1)[0]
    with pytest.raises(InputSyntaxError):
        parse_lis_file(cut)


EXAMPLE = str(DATA / "example.ideal")


def test_cli_socle(capsys):
    assert main(["socle", "-i", EXAMPLE, "--m", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2  # the quotient has type 2


def test_cli_hilbert_profile(capsys):
    assert main(["hilbert", "-i", EXAMPLE, "--m", "1"]) == 0
    out = capsys.readouterr().out
    assert "profile 1,2,2,1" in out
    assert "length 6" in out


def test_cli_json_schema(capsys):
    assert main(["socle", "-i", EXAMPLE, "--m", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"command", "inputs", "ring", "results", "diagnostics"}
    assert doc["command"] == "socle"
    assert doc["ring"]["zvars"] == ["x"]
    assert len(doc["results"]) == 2


def test_cli_reduce(capsys):
    assert main(["reduce", "-i", EXAMPLE, "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "x^2" in out


def test_cli_limit_verify_reconstruct(tmp_path, capsys):
    out = tmp_path / "H.lis"
    assert main(["limit", "-i", EXAMPLE, "--mmax", "3", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "-i", str(out)]) == 0
    text = capsys.readouterr().out
    assert "verdict PASS" in text
    # at this small bound the reconstruction correctly reports instability
    assert main(["reconstruct", "-i", str(out)]) == 1


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize(
    "gens,reason",
    [
        ("y^2\ny*z", "(colon grows); the input is outside the correspondence class"),
        ("z\ny^2", ": regularity test of an element of the ideal"),
    ],
    ids=["zero-divisor", "member"],
)
def test_cli_limit_refuses_a_z_block_that_is_not_regular(tmp_path, capsys, gens, reason, order):
    path = tmp_path / "bad.ideal"
    path.write_text(f"field Q\nring graded vars y,z\nzvars z\nideal:\n{gens}\n")
    out = tmp_path / "H.lis"
    assert main(["limit", "-i", str(path), "--mmax", "3", "--order", order, "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    sep = "" if reason.startswith(":") else " "
    assert captured.err == f"error: variable 'z' is not regular modulo the ideal{sep}{reason}\n"
    assert not out.exists()


LOCAL_AWAY = "field Q\nring local vars x,z\nzvars z\nideal:\nx^2 - x\nx*z\n"
LOCAL_AWAY_H3 = (
    "limit-system\nfield Q\nring local vars x,z\nzvars z\n"
    "d 1\nr 1\ns 0\nbound 3\nm 1:\n1\nm 2:\nZ\nm 3:\nZ^2\n"
)


def test_cli_limit_on_trust_keeps_a_local_input_with_a_component_away(tmp_path, capsys):
    # locally <x^2 - x, x*z> is (x), so z is regular at the origin though the
    # polynomial test refuses it; on trust the tower's length certificate
    # holds and the family is x's
    path = tmp_path / "away.ideal"
    path.write_text(LOCAL_AWAY)
    assert main(["limit", "-i", str(path), "--mmax", "3", "--trust-regular"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (LOCAL_AWAY_H3, "")


@pytest.mark.parametrize("B, short", [(2, 3), (3, 4)])
def test_cli_limit_on_trust_refuses_a_top_stage_short_of_its_length(tmp_path, capsys, B, short):
    # z is a zero divisor modulo <y^2, y*z>: stage one has length 2, and the
    # top reduction falls short of B times that, so the tower is not free
    path = tmp_path / "zd.ideal"
    path.write_text("field Q\nring local vars y,z\nzvars z\nideal:\ny^2\ny*z\n")
    assert main(["limit", "-i", str(path), "--mmax", "1", "--trust-regular"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["m 1:", "Y"]
    assert main(["limit", "-i", str(path), "--mmax", str(B), "--trust-regular"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the reduction at ({B},) has length {short}, short of {B}^1 times the "
        "length 2 at (1,); the z-block is not a regular sequence modulo the ideal\n"
    )


def _checked_random_ideals(count, seed):
    """Small graded and local ideals, d = 1 or 2, whose z-block check passes
    and whose first reduction is Artinian."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d, ny = rng.choice([1, 2]), rng.choice([1, 2])
        names = [f"y{i}" for i in range(ny)] + [f"z{i}" for i in range(d)]
        mode = rng.choice(["graded", "local"])
        ctx = context_from_names(",".join(names), mode=mode, zvars=",".join(names[ny:]))
        gens = [
            ctx.variable(i) ** rng.choice([2, 3])
            + random_polynomial(ctx, rng, 2, terms=rng.choice([0, 1, 2]))
            for i in range(ny)
        ]
        I = Ideal(ctx, gens)
        try:
            check_z_regularity(I)
            artinian_reduction(I, diag(d, 1), ceiling=12)
        except PipelineError:
            continue
        out.append((ctx, I))
    return out


def test_cli_limit_on_trust_matches_the_checked_run(tmp_path):
    # a checked z-block is regular, so its tower is free and the trusted run
    # builds the same tower and prints the same family, or the same refusal
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    path = tmp_path / "r.ideal"
    codes = []
    for ctx, I in _checked_random_ideals(20, seed=5):
        path.write_text(render_ideal_file(ctx, I))
        checked = run(["limit", "-i", str(path), "--mmax", "3"])
        assert run(["limit", "-i", str(path), "--mmax", "3", "--trust-regular"]) == checked
        codes.append(checked[0])
    assert codes.count(0) >= 10


def test_cli_limit_golden_stability(tmp_path):
    a, b = tmp_path / "a.lis", tmp_path / "b.lis"
    assert main(["limit", "-i", EXAMPLE, "--mmax", "2", "-o", str(a)]) == 0
    assert main(["limit", "-i", EXAMPLE, "--mmax", "2", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_verify_fails_on_broken_file(tmp_path, capsys):
    out = tmp_path / "H.lis"
    main(["limit", "-i", EXAMPLE, "--mmax", "2", "-o", str(out)])
    text = out.read_text().replace("Y^3", "Y^3 + Z^9")
    broken = tmp_path / "broken.lis"
    broken.write_text(text)
    capsys.readouterr()
    assert main(["verify", "-i", str(broken)]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("B, dim", [(4, 7), (6, 13)])
def test_cli_verify_flags_non_free_stage(tmp_path, capsys, B, dim):
    # compat, (b) and (d) hold, so (c) is read off stage dimensions; it fails
    # at the top stage alone
    path = tmp_path / "nonfree.lis"
    path.write_text(render_lis_file(non_free_family(B)))
    assert main(["verify", "-i", str(path)]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == [f"FAIL (c) m={B} slot 1: intersection dim {dim} inside W at ({B - 1},)"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["limit", "--mmax", "0"], 2),
        (["limit", "--mmax", "-1"], 2),
        (["rees-check", "--seq", "x", "--level", "-1"], 2),
        (["perp", "--m", "0"], 1),
        (["perp", "--m", "1", "--degbound", "-1"], 2),
        # a negative ceiling is a usage error for every command; a zero
        # ceiling is a mathematical rejection
        (["hilbert", "--m", "1", "--degcap", "-1"], 2),
        (["limit", "--mmax", "2", "--degcap", "-1"], 2),
        (["verify", "--degcap", "-1"], 2),
        (["hilbert", "--m", "1", "--degcap", "0"], 1),
    ],
)
def test_cli_out_of_range_numbers_exit_cleanly(capsys, argv, code):
    assert main(argv[:1] + ["-i", EXAMPLE] + argv[1:]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    if argv[-2:] == ["--degcap", "-1"]:
        # rejected before the input is read (verify's input is no .lis file)
        assert "--degcap -1 must be at least 0" in captured.err


def _set_header(head, **values):
    for key, value in values.items():
        head = re.sub(rf"^{key} -?\d+$", f"{key} {value}", head, flags=re.M)
    return head


def _bad_lis_text(text, case):
    """The curve family with its header out of step with its stage blocks."""
    head, *blocks = re.split(r"\n(?=m )", text.rstrip("\n"))
    if case == "d above the z-variables":
        parts = [_set_header(head, d=2, bound=1), blocks[0].replace("m 1:", "m 1,1:")]
    elif case == "bound 0":
        parts = [_set_header(head, bound=0)] + blocks
    elif case == "bound -1":
        parts = [_set_header(head, bound=-1)] + blocks
    elif case == "repeated stage":
        parts = [head] + blocks + [blocks[1]]
    elif case == "stage 0":
        parts = [head] + blocks + ["m 0:\nX"]
    return "\n".join(parts) + "\n"


def _bad_lis_json(doc, case):
    doc = json.loads(json.dumps(doc))
    if case == "json: d above the z-variables":
        doc.update(d=2, bound=1, family={"1,1": doc["family"]["1"]})
    elif case == "json: bound 0":
        doc["bound"] = 0
    elif case == "json: missing stage":
        del doc["family"]["2"]
    elif case == "json: stage 0":
        doc["family"]["0"] = ["X"]
    elif case == "json: repeated stage":
        return json.dumps(doc).replace('"family": {', '"family": {"2": ["X"], ')
    return json.dumps(doc)


@pytest.fixture(scope="module")
def curve_lis3():
    H = section_lift(dual_tower(parse_ideal_file((DATA / "example.ideal").read_text())[1], 3))
    return render_lis_file(H), lis_to_json(H)


@pytest.mark.parametrize(
    "case",
    [
        "d above the z-variables",
        "bound 0",
        "bound -1",
        "repeated stage",
        "stage 0",
        "json: d above the z-variables",
        "json: bound 0",
        "json: missing stage",
        "json: stage 0",
        "json: repeated stage",
    ],
)
def test_cli_refuses_header_out_of_step_with_stages(tmp_path, capsys, curve_lis3, case):
    text, doc = curve_lis3
    bad = tmp_path / "bad.lis"
    if case.startswith("json: "):
        bad.write_text(_bad_lis_json(doc, case))
    else:
        bad.write_text(_bad_lis_text(text, case))
    for command in ("verify", "reconstruct"):
        assert main([command, "-i", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
    if not case.startswith("json: "):
        assert "(line " in captured.err


@pytest.mark.parametrize(
    "key, spoil",
    # each value int() would have read silently: 3.7 as 3, "2" as 2, true as 1
    [("bound", lambda v: v + 0.7), ("s", str), ("r", lambda v: True)],
    ids=["float", "string", "bool"],
)
def test_cli_refuses_a_json_header_value_that_is_no_json_integer(
    tmp_path, capsys, curve_lis3, key, spoil
):
    _, doc = curve_lis3
    doc = dict(doc, **{key: spoil(doc[key])})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for command in ("verify", "reconstruct"):
        assert main([command, "-i", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed limit-system JSON: ")
        assert f"{key!r} must be an integer" in captured.err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit before 3.10.7"
)
@pytest.mark.parametrize("where", ["r", "bound", "stage"])
def test_cli_names_the_line_of_an_over_long_header_integer(tmp_path, capsys, curve_lis3, where):
    text, _ = curve_lis3
    lines = text.splitlines()
    prefix = "m " if where == "stage" else f"{where} "
    at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[at] = f"m {'1' * 5000}:" if where == "stage" else f"{where} {'1' * 5000}"
    bad = tmp_path / "long.lis"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["verify", "-i", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: an integer of 5000 digits is too long (line {at + 1})\n"


def _with_raw_value(doc, key, numeral, envelope=False):
    """doc as JSON text with numeral, verbatim, as the value of key."""
    doc = dict(doc, **{key: "RAW"})
    text = json.dumps({"limit_system": doc} if envelope else doc)
    return text.replace('"RAW"', numeral)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit before 3.10.7"
)
@pytest.mark.parametrize("key", ["d", "r", "s", "bound"])
@pytest.mark.parametrize("envelope", [False, True], ids=["document", "envelope"])
def test_cli_names_an_over_long_json_header_integer(tmp_path, capsys, curve_lis3, key, envelope):
    _, doc = curve_lis3
    bad = tmp_path / "long.json"
    bad.write_text(_with_raw_value(doc, key, "-" + "1" * 5000, envelope))
    for command in ("verify", "reconstruct"):
        assert main([command, "-i", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: malformed limit-system JSON: {key!r} is an integer of 5000 digits, "
            f"over the limit of {sys.get_int_max_str_digits()} digits\n"
        )


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit before 3.10.7"
)
@pytest.mark.parametrize("where", ["unknown key", "array", "nested object"])
def test_cli_refuses_an_over_long_json_integer_elsewhere(tmp_path, capsys, curve_lis3, where):
    _, doc = curve_lis3
    numeral = "2" * 4400
    if where == "unknown key":
        text = _with_raw_value(doc, "comment", numeral)
    elif where == "array":
        text = _with_raw_value(doc, "comment", f"[1, {numeral}]")
    else:
        # a key named like a header key, but not in the header
        text = _with_raw_value(doc, "comment", f'{{"r": {numeral}}}')
    bad = tmp_path / "long.json"
    bad.write_text(text)
    assert main(["verify", "-i", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: bad JSON: an integer of 4400 digits is over the limit of "
        f"{sys.get_int_max_str_digits()} digits\n"
    )
    assert "set_int_max_str_digits" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["perp", "-h"],
        ["limit", "--help"],
        ["monoid-socle", "-h"],
        ["perp"],
        ["reduce", "-i", "x"],
        ["verify", "-i"],
        ["limit", "-i", "x", "--mmax", "q"],
        ["limit", "-i", "x", "--order", "foo"],
        ["reconstruct", "-i", "x", "--trust-regular"],
        ["hilbert", "-i", "x", "--bogus"],
        ["socle", "-i", "x", "stray"],
        ["perp", "--deg", "1"],
        ["rees-check", "-i", "x", "--seq", "y", "--level", "1.5"],
    ],
)
def test_cli_parser_for_one_command_reads_as_the_full_parser(capsys, argv):
    def parse(command):
        try:
            result = vars(_build_parser(command).parse_args(argv))
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    assert parse(argv[0]) == parse(None)


def test_cli_refuses_the_removed_jobs_flag(capsys):
    # --jobs was accepted and ignored; it is gone, so it is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["limit", "-i", EXAMPLE, "--mmax", "2", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_cli_trust_regular_belongs_to_limit(tmp_path, capsys):
    # only limit reads --trust-regular; any other subcommand refuses it as a
    # usage error rather than running the z-block test anyway
    lis = tmp_path / "H.lis"
    assert main(["limit", "-i", EXAMPLE, "--mmax", "2", "--trust-regular", "-o", str(lis)]) == 0
    capsys.readouterr()
    for argv in (["reconstruct", "-i", str(lis)], ["verify", "-i", str(lis)], ["socle", "-i", EXAMPLE]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--trust-regular"])
        assert exc.value.code == 2, argv
        assert "unrecognized arguments: --trust-regular" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path, capsys):
    # usage errors exit 2 via argparse
    with pytest.raises(SystemExit) as exc:
        main(["socle"])
    assert exc.value.code == 2
    # file syntax errors exit 2
    bad = tmp_path / "bad.ideal"
    bad.write_text("ring graded vars x\nideal:\nx\n")  # missing field line
    assert main(["socle", "-i", str(bad), "--m", "1"]) == 2
    capsys.readouterr()
    # mathematical rejection exits 1: non-Artinian hilbert request
    pos = tmp_path / "pos.ideal"
    pos.write_text("field Q\nring graded vars x,y\nideal:\nx\n")
    assert main(["hilbert", "-i", str(pos), "--degcap", "12"]) == 1


CI_D2 = "field Q\nring graded vars y0,y1,z0,z1\nzvars z0,z1\nideal:\ny0^3 - 2*y1^2*z0 - y1*z0*z1\ny1^2\n"

# an Artinian stage whose bound lies beyond the degree ceiling names the
# stage and the ceiling, stage one included
TRUNCATION_LIMITS = {
    "curve-degcap": (None, ["--mmax", "9", "--degcap", "8"], "(9,)", "degree ceiling 8"),
    "curve-stage-one": (None, ["--mmax", "2", "--degcap", "2"], "(1,)", "degree ceiling 2"),
    "ci-d2-ceiling": (CI_D2, ["--mmax", "300"], "(300, 300)", "degree ceiling 64"),
}


@pytest.mark.parametrize("case", sorted(TRUNCATION_LIMITS))
def test_cli_limit_names_the_truncation_limit(tmp_path, capsys, case):
    text, flags, stage, limit = TRUNCATION_LIMITS[case]
    path = EXAMPLE
    if text is not None:
        path = tmp_path / "input.ideal"
        path.write_text(text)
    assert main(["limit", "-i", str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "not Artinian" not in lines[0]
    assert stage in lines[0] and limit in lines[0]


@pytest.mark.parametrize("B", [14, 20])
def test_cli_curve_round_trip_at_large_bounds(tmp_path, capsys, B):
    # the top stage (B,) is certified by its length at truncation degree
    # B + 3, one below the degree Nakayama would need
    path = tmp_path / f"H{B}.lis"
    assert main(["limit", "-i", EXAMPLE, "--mmax", str(B), "-o", str(path)]) == 0
    assert main(["verify", "-i", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verdict PASS"
    assert main(["reconstruct", "-i", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "stable True"
    ctx, ideal = parse_ideal_file((DATA / "example.ideal").read_text())
    assert Ideal(ctx, [ctx.parse(g) for g in lines[:-2]]).equals(ideal)


def test_cli_hilbert_refuses_the_curve_itself(capsys):
    # the curve is one-dimensional: its leads hold no pure power of x
    assert main(["hilbert", "-i", EXAMPLE]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: quotient has infinitely many standard monomials\n"


def test_cli_limit_blames_a_non_artinian_first_stage(tmp_path, capsys):
    # one z-variable for a two-dimensional quotient: stage one is not Artinian
    path = tmp_path / "short.ideal"
    path.write_text("field Q\nring graded vars a,b,z\nzvars z\nideal:\na^2\n")
    assert main(["limit", "-i", str(path), "--mmax", "3", "--trust-regular"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "at (1,) is not Artinian: the z-block must map to a maximal regular sequence" in lines[0]


def test_cli_denominator_vanishing_mod_p_is_a_syntax_error(tmp_path, capsys):
    # 1/3 has no value in F3: a clean exit 2, not a ZeroDivisionError
    path = tmp_path / "f3.ideal"
    path.write_text("field F3\nring graded vars x,y\nideal:\nx^2\n1/3*y\n")
    assert main(["hilbert", "-i", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


DEEP = {"parentheses": "(" * 3000 + "{v}" + ")" * 3000, "unary-minus": "-" * 3000 + "{v}"}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_cli_deep_nesting_is_a_syntax_error(tmp_path, capsys, shape):
    # a recursion-depth overflow would escape main as RecursionError
    path = tmp_path / "deep.ideal"
    path.write_text("field Q\nring graded vars x,y\nideal:\n" + DEEP[shape].format(v="x") + "\n")
    assert main(["hilbert", "-i", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested deeper" in err


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_cli_verify_deep_nesting_is_a_syntax_error(tmp_path, capsys, shape):
    path = tmp_path / "deep.lis"
    path.write_text(
        "limit-system\nfield Q\nring graded vars y,z\nzvars z\nd 1\nr 1\ns 1\nbound 1\nm 1:\n"
        + DEEP[shape].format(v="Y")
        + "\n"
    )
    assert main(["verify", "-i", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested deeper" in err


def test_python_dash_m_runs_the_cli():
    root = DATA.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "invsys", "hilbert", "-i", str(DATA / "example.ideal"), "--m", "1"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "profile 1,2,2,1"


def test_cli_reconstruct_from_json_recovers_generators(tmp_path, capsys):
    # json export, reconstruction, then membership of all five generators
    out = tmp_path / "H.json"
    assert main(["limit", "-i", EXAMPLE, "--mmax", "9", "--json", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["reconstruct", "-i", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    gens = [l for l in lines if not l.startswith(("stable", "stage"))]
    from invsys import Ideal
    from invsys.io import parse_ideal_file

    ctx, ideal = parse_ideal_file((DATA / "example.ideal").read_text())
    recon = Ideal(ctx, [ctx.parse(g) for g in gens])
    assert all(recon.contains(g) for g in ideal.gens)


def test_cli_monoid_socle(capsys):
    assert main(["monoid-socle", "--gens", "2,0;0,2"]) == 0
    assert capsys.readouterr().out.strip() == "1,1"
    assert main(["monoid-socle", "--gens", "3000,0;0,3000"]) == 0
    assert capsys.readouterr().out.strip() == "2999,2999"


def test_cli_rees_check(capsys):
    assert main(["rees-check", "-i", EXAMPLE, "--seq", "x", "--level", "2", "--degcap", "3"]) == 0
    out = capsys.readouterr().out
    assert "verdict PASS" in out


# rational literals num/den, integral ones such as 6/3, -4/2, 0/5 and 7/1
# among them; each lands on its own monomial
_LITERALS = st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 7)), min_size=1, max_size=6)
_MONOMIALS = ("{0}^2*{1}", "{0}*{1}", "{1}^2", "{0}", "{1}", "")


def _literal_text(lits, x, y):
    return " + ".join(
        f"{num}/{den}" + (f"*{mono.format(x, y)}" if mono else "")
        for (num, den), mono in zip(lits, _MONOMIALS)
    )


def _assert_rendered_in_lowest_terms(text):
    for num, den in re.findall(r"(\d+)/(\d+)", text):
        assert int(den) > 1 and gcd(int(num), int(den)) == 1, text


@settings(max_examples=40, deadline=None)
@given(_LITERALS, _LITERALS, _LITERALS)
def test_rational_literals_round_trip(gen_lits, stage1_lits, stage2_lits):
    text = "field Q\nring graded vars x,y\nzvars y\nideal:\n" + _literal_text(gen_lits, "x", "y") + "\n"
    ctx, ideal = parse_ideal_file(text)
    expected = ctx.zero()
    for (num, den), mono in zip(gen_lits, _MONOMIALS):
        expected = expected + ctx.parse(mono.format("x", "y") or "1") * Fraction(num, den)
    assert [g.terms for g in ideal.gens] == ([expected.terms] if expected else [])
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for g in ideal.gens for c in g.terms.values())
    rendered = render_ideal_file(ctx, ideal)
    _assert_rendered_in_lowest_terms(rendered)
    ctx2, ideal2 = parse_ideal_file(rendered)
    assert [g.terms for g in ideal2.gens] == [g.terms for g in ideal.gens]
    assert render_ideal_file(ctx2, ideal2) == rendered

    lis = "\n".join([
        "limit-system", "field Q", "ring graded vars x,y", "zvars y",
        "d 1", "r 1", "s 2", "bound 2",
        "m 1:", _literal_text(stage1_lits, "X", "Y"),
        "m 2:", _literal_text(stage2_lits, "X", "Y"),
    ]) + "\n"
    H = parse_lis_file(lis)
    rendered = render_lis_file(H)
    _assert_rendered_in_lowest_terms(rendered)
    H2 = parse_lis_file(rendered)
    assert H2.family == H.family
    assert render_lis_file(H2) == rendered


@pytest.mark.parametrize("literal", ["3/0*x", "x + 0/0", "-7/0"])
def test_cli_zero_denominator_is_a_syntax_error(tmp_path, capsys, literal):
    ideal = tmp_path / "zero.ideal"
    ideal.write_text(f"field Q\nring graded vars x,y\nideal:\nx^2\n{literal}\n")
    assert main(["hilbert", "-i", str(ideal)]) == 2
    lis = tmp_path / "zero.lis"
    lis.write_text(
        "limit-system\nfield Q\nring graded vars x,y\nd 0\nr 1\ns 1\nbound 1\nm:\n"
        + literal.replace("x", "X") + "\n"
    )
    assert main(["verify", "-i", str(lis)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line[:7] for line in captured.err.splitlines()] == ["error: "] * 2


@pytest.mark.parametrize(
    "descriptor, message",
    [
        ("fp:7x", "field modulus '7x' is not an integer"),
        ("fp:abc", "field modulus 'abc' is not an integer"),
        ("fp:", "field modulus '' is not an integer"),
        ("fp:40", "40 is not prime"),
        ("F1", "1 is not prime"),
        (f"fp:{2**89 - 1}", f"{2**89 - 1} is too large for an exact primality test"),
        ("qq", "unknown field descriptor 'qq'"),
    ],
)
def test_cli_bad_field_descriptor_names_its_line(tmp_path, capsys, descriptor, message):
    ideal = tmp_path / "bad.ideal"
    ideal.write_text(f"# header\nfield {descriptor}\nring graded vars x,y\nideal:\nx^2\n")
    lis = tmp_path / "bad.lis"
    lis.write_text(f"limit-system\nfield {descriptor}\nring graded vars x,y\nd 0\nr 1\ns 1\nbound 1\nm:\nX\n")
    for argv in (["hilbert", "-i", str(ideal)], ["verify", "-i", str(lis)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.endswith(" (line 2)\n") and captured.err.count("\n") == 1
    # the same descriptor given as an override has no line to name
    assert main(["socle", "-i", EXAMPLE, "--m", "1", "--field", descriptor]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


# Grammar fuzz: texts built from the tokens of the ideal-file and limit-file
# grammars (whole lines, or edits of a valid file), and limit-system JSON
# documents whose values may have any JSON type.  Exponents stay small: the
# parser expands a power of a sum in full.
_WORDS = (
    "field", "ring", "zvars", "ideal:", "limit-system", "d", "r", "s", "bound", "m", "local",
    "graded", "vars", "Q", "q", "QQ", "F7", "f5", "fp:7", "fp:7x", "fp:40", "fp:", "qq", "F",
    "x", "y", "z", "x,y", "y,z", "x,y,z", "x,x", "1x", ",", "0", "1", "2", "-1", "--1", "+1",
    "1,1", "1,", "1:", ":", "m:", "x:", "1,1:", "2:", "#", "1000000000", "²",
)
_POLY_TOKENS = (
    "x", "y", "z", "X", "Y", "Z", "2", "0", "1/2", "3/0", "+", "-", "*", "^", "^2", "(", ")",
    "/", "x^2", "X*Y", "Y^3", "#", " ", "²", "1.5",
)
_IDEAL_FILE = ("field Q", "ring local vars x,y,z", "zvars z", "ideal:", "x^2 - y*z", "y^3")
_LIS_FILE = (
    "limit-system", "field F7", "ring graded vars x,y,z", "zvars z", "d 1", "r 1", "s 1",
    "bound 2", "m 1:", "X*Y", "m 2:", "X*Y*Z + Y^2",
)
_LINE = st.one_of(
    st.sampled_from(_IDEAL_FILE + _LIS_FILE),
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4).map(" ".join),
    st.lists(st.sampled_from(_POLY_TOKENS), min_size=1, max_size=6).map("".join),
)


def _edited(template):
    """The template with each line kept (None), replaced, or replaced by two."""

    def apply(edits):
        out = []
        for line, edit in zip(template, edits):
            out.extend([line] if edit is None else [edit] if isinstance(edit, str) else edit)
        return "\n".join(out) + "\n"

    edit = st.one_of(st.none(), _LINE, st.tuples(_LINE, _LINE))
    return st.lists(edit, min_size=len(template), max_size=len(template)).map(apply)


_JSON_VALUE = st.recursive(
    st.one_of(
        st.sampled_from(_WORDS), st.integers(-3, 10**12), st.booleans(), st.none(),
        st.sampled_from([1.5, float("inf"), float("nan")]),
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["1", "2", "1,1", "", "vars", "mode"]), inner, max_size=3),
    max_leaves=6,
)
_JSON_DOC = st.fixed_dictionaries(
    {},
    optional={
        "field": st.sampled_from(["Q", "F7", "fp:40", "qq"]) | _JSON_VALUE,
        "ring": st.fixed_dictionaries(
            {"mode": st.sampled_from(["graded", "local", "x"]), "vars": st.sampled_from([["x", "y", "z"], "x,z", [1]])},
            optional={"zvars": st.sampled_from([["z"], [], ["q"]])},
        ) | _JSON_VALUE,
        "d": st.integers(0, 2) | _JSON_VALUE,
        "r": st.integers(0, 2) | _JSON_VALUE,
        "s": st.integers(0, 2) | _JSON_VALUE,
        "bound": st.sampled_from([1, 2, 10**9]) | _JSON_VALUE,
        "family": st.dictionaries(
            st.sampled_from(["1", "2", "1,1", "", "a"]), st.lists(st.sampled_from(["X", "Z^2", "X+"]), max_size=2)
        ) | _JSON_VALUE,
    },
)
_TEXTS = st.one_of(
    st.lists(_LINE, max_size=12).map(lambda lines: "\n".join(lines) + "\n"),
    _edited(_IDEAL_FILE),
    _edited(_LIS_FILE),
    _JSON_DOC.map(json.dumps),
    _JSON_DOC.map(lambda doc: json.dumps({"limit_system": doc})),
)


@settings(max_examples=150, deadline=None)
@given(_TEXTS)
def test_grammar_fuzz_parses_or_exits_2_with_one_error_line(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_text(text, encoding="utf-8")
    for parse, command in ((parse_ideal_file, "hilbert"), (load_limit_system, "verify")):
        try:
            parse(text)
        except InputSyntaxError:
            pass
        else:
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "-i", str(path)])
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
