import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from invsys import InputSyntaxError
from invsys.cli import main
from invsys.io import (
    load_limit_system,
    lis_from_json,
    lis_to_json,
    parse_ideal_file,
    parse_lis_file,
    render_ideal_file,
    render_lis_file,
)
from invsys.limitsys import dual_tower, section_lift

from conftest import DATA, non_free_family


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
    H = section_lift(dual_tower(parse_ideal_file(open(EXAMPLE).read())[1], 3))
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

    ctx, ideal = parse_ideal_file(open(EXAMPLE).read())
    recon = Ideal(ctx, [ctx.parse(g) for g in gens])
    assert all(recon.contains(g) for g in ideal.gens)


def test_cli_monoid_socle(capsys):
    assert main(["monoid-socle", "--gens", "2,0;0,2"]) == 0
    assert capsys.readouterr().out.strip() == "1,1"


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
