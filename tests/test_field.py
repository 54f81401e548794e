"""The rational scalar kernel: ints for integral values, Fractions otherwise.

The kernel is checked against plain Fraction arithmetic value by value, and
the whole pipeline against a Fraction-only copy of the field, byte by byte.
The fused row operation of Q and of F_p is checked against their own scalar
sub and mul.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from invsys.cli import main
from invsys.errors import InputSyntaxError
from invsys.field import QQ, PrimeField
from invsys.groebner import ArtinianQuotient, Ideal
from invsys.ring import context_from_names

from conftest import DATA

EXAMPLE = DATA / "example.ideal"

_INTS = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2, 2**64, -(2**64) - 1]),
    st.integers(-50, 50),
    st.integers(),
    st.integers(2**64, 2**200).flatmap(lambda n: st.sampled_from([n, -n])),
)
_NONZERO = _INTS.filter(bool)
_NON_INTEGRAL = st.builds(Fraction, _INTS, _NONZERO).filter(lambda q: q.denominator != 1)
_VALUES = st.one_of(_INTS, _INTS.map(Fraction), _NON_INTEGRAL)

PRIMES = (PrimeField(32003), PrimeField(2**61 - 1))


def _check(got, ref):
    """got equals the exact rational ref, as an int exactly when ref is integral."""
    assert got == ref
    assert type(got) is (int if ref.denominator == 1 else Fraction)
    for F in PRIMES:
        # every value Q returns is something a prime field can take in
        if ref.denominator % F.p:
            assert F.coerce(got) == F.coerce(ref)


@settings(max_examples=300, deadline=None)
@given(_VALUES, _VALUES)
def test_binary_operations_match_fraction_arithmetic(a, b):
    fa, fb = Fraction(a), Fraction(b)
    _check(QQ.add(a, b), fa + fb)
    _check(QQ.sub(a, b), fa - fb)
    _check(QQ.mul(a, b), fa * fb)
    if fb == 0:
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, b)
    else:
        _check(QQ.div(a, b), fa / fb)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_unary_operations_match_fraction_arithmetic(a):
    fa = Fraction(a)
    _check(QQ.neg(a), -fa)
    _check(QQ.coerce(a), fa)
    _check(QQ.parse(str(a)), fa)
    if fa == 0:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(a)
    else:
        _check(QQ.inv(a), 1 / fa)


@settings(max_examples=200, deadline=None)
@given(_INTS, _INTS.map(abs))
def test_parse_of_a_quotient_literal(num, den):
    text = f"{num}/{den}"
    if den == 0:
        with pytest.raises(InputSyntaxError):
            QQ.parse(text)
    else:
        _check(QQ.parse(text), Fraction(num, den))


def test_constants_and_rejected_inputs():
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1
    assert QQ.coerce(True) == 1 and type(QQ.coerce(True)) is int
    for x in (0.5, 2.0, "3"):
        with pytest.raises(TypeError):
            QQ.coerce(x)


_SMALL_Q = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)).map(QQ.coerce),
    _NON_INTEGRAL,
).filter(bool)
_ROW = st.dictionaries(st.integers(0, 5), _SMALL_Q, max_size=6)


def _row_sub_reference(field, dst, coef, src):
    """dst -= coef * src by the scalar sub and mul, zeros deleted."""
    out = dict(dst)
    for c, v in src.items():
        x = field.sub(out.get(c, field.zero), field.mul(coef, v))
        if x == field.zero:
            out.pop(c, None)
        else:
            out[c] = x
    return out


@settings(max_examples=300, deadline=None)
@given(_ROW, _ROW, _SMALL_Q)
def test_row_sub_matches_the_scalar_reference(dst, src, coef):
    want = _row_sub_reference(QQ, dst, coef, src)
    got = dict(dst)
    changed = QQ.row_sub(got, coef, src.items())
    assert got == want
    for c, v in got.items():
        if c in src:
            _check(v, Fraction(v))
    assert sorted(changed) == sorted(c for c in set(dst) | set(want) if (c in dst) != (c in want))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_row_sub_matches_the_scalar_reference_mod_p(data):
    F = data.draw(st.sampled_from([PrimeField(7), PRIMES[0]]), label="F")
    row = st.dictionaries(st.integers(0, 5), st.integers(1, F.p - 1), max_size=6)
    dst, src = data.draw(row, label="dst"), data.draw(row, label="src")
    # a negative coefficient, or one beyond p, stands for its residue
    coef = data.draw(st.integers(-3 * F.p, 3 * F.p).filter(lambda c: c % F.p), label="coef")
    want = _row_sub_reference(F, dst, coef, src)
    got = dict(dst)
    changed = F.row_sub(got, coef, src.items())
    assert got == want
    assert all(0 < v < F.p for v in got.values())
    assert sorted(changed) == sorted(c for c in set(dst) | set(want) if (c in dst) != (c in want))


def test_row_sub_turns_integral_results_into_ints():
    half = Fraction(1, 2)
    row = {0: half, 1: Fraction(1, 3), 2: 5}
    changed = QQ.row_sub(row, -1, [(0, half), (1, Fraction(-1, 3)), (2, 5), (3, Fraction(3, 2))])
    assert row == {0: 1, 2: 10, 3: Fraction(3, 2)} and type(row[0]) is int
    assert changed == [1, 3]
    row = {0: Fraction(2, 3)}
    assert QQ.row_sub(row, Fraction(2, 3), [(1, Fraction(3, 2))]) == [1]
    assert row[1] == -1 and type(row[1]) is int


# ---------------------------------------------------------------------------
# the Fraction-only field as a reference for the whole pipeline


class _FractionOnlyRationals:
    """Rational arithmetic with every value a Fraction, as the field had it
    before integral values became ints: the reference for byte identity."""

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a / b

    def row_sub(self, dst, coef, src):
        changed = []
        for c, v in src:
            if c in dst:
                x = dst[c] - coef * v
                if x:
                    dst[c] = x
                else:
                    del dst[c]
                    changed.append(c)
            else:
                dst[c] = -coef * v
                changed.append(c)
        return changed

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def parse(self, text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputSyntaxError(f"bad rational literal {text!r}") from exc


_KERNEL = ("zero", "one", "coerce", "add", "sub", "mul", "div", "row_sub", "neg", "inv", "parse")

# a d = 2 complete intersection whose inverse systems carry non-integral
# coefficients (the curve's are all integers)
FRACTIONAL_D2 = """\
field Q
ring graded vars y0,y1,z0,z1
zvars z0,z1
ideal:
y0^3 - 2/3*y1*z0*z1 + 1/2*y0*z0^2
y1^2 + 3/5*y0*z1
"""


def _pipeline(ideal_path, bound, order, capsys):
    """limit -> verify -> reconstruct through the CLI; every byte it emits.

    The limit file goes to the working directory under a relative name,
    which the CLI echoes.
    """
    out = []
    for argv in (
        ["limit", "-i", str(ideal_path), "--mmax", str(bound), "-o", "H.lis"],
        ["limit", "-i", str(ideal_path), "--mmax", str(bound), "--json"],
        ["verify", "-i", "H.lis"],
        ["reconstruct", "-i", "H.lis"],
        ["reconstruct", "-i", "H.lis", "--json"],
    ):
        # verify reads no order
        code = main(argv + ([] if argv[0] == "verify" else ["--order", order]))
        captured = capsys.readouterr()
        out.append((argv[0], code, captured.out, captured.err))
    out.append(("file", Path("H.lis").read_bytes()))
    return out


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("instance", ["curve", "fractional-d2"])
def test_pipeline_is_byte_identical_to_the_fraction_only_field(
    tmp_path, monkeypatch, capsys, instance, order
):
    if instance == "curve":
        ideal_path, bound = EXAMPLE, 6
    else:
        ideal_path, bound = tmp_path / "fd2.ideal", 3
        ideal_path.write_text(FRACTIONAL_D2)
    for side in ("int", "ref"):
        (tmp_path / side).mkdir()
    monkeypatch.chdir(tmp_path / "int")
    got = _pipeline(ideal_path, bound, order, capsys)
    with monkeypatch.context() as m:
        m.chdir(tmp_path / "ref")
        for name in _KERNEL:
            m.setattr(type(QQ), name, _FractionOnlyRationals.__dict__[name])
        assert type(QQ.one) is Fraction
        ref = _pipeline(ideal_path, bound, order, capsys)
    assert type(QQ.one) is int
    assert got[0][1] == 0 and "verdict PASS" in got[2][2]
    assert got == ref


def _assert_canonical(values):
    values = list(values)
    assert values
    for c in values:
        assert type(c) in (int, Fraction), c
        assert type(c) is int or c.denominator != 1, c


def test_curve_family_holds_no_integral_fraction(curve_H9):
    _assert_canonical(c for polys in curve_H9.family.values() for F in polys for c in F.terms.values())


def test_quotient_rows_hold_no_integral_fraction():
    ctx = context_from_names("x,y")
    I = Ideal(ctx, [ctx.parse("3*x^2 + 2*x*y - 1/2*y^2"), ctx.parse("x^3 + 5/3*y^3"), ctx.parse("y^4")])
    aq = ArtinianQuotient(I)
    values = [c for row in aq.rows.values() for c in row.values()]
    _assert_canonical(values)
    assert any(type(c) is Fraction for c in values)
