"""The whole pipeline over a prime field, plus the related CLI flags."""

import time

import pytest

from invsys import Ideal, PrimeField, context_from_names, hilbert_data
from invsys.cli import main
from invsys.duality import perp_ideal, perp_module
from invsys.io import parse_lis_file, render_lis_file
from invsys.limitsys import dual_tower, reconstruct, section_lift, verify_lis

from conftest import DATA
from oracles import equal_as_artinian

EXAMPLE = str(DATA / "example.ideal")


def test_duality_roundtrip_over_f7():
    ctx = context_from_names("x,y", field=PrimeField(7))
    x, y = ctx.variable(0), ctx.variable(1)
    I = Ideal(ctx, [x ** 3 + 2 * y ** 2, x * y ** 2, y ** 4])
    W = perp_ideal(I)
    assert W.dim == hilbert_data(I).length
    assert equal_as_artinian(perp_module(W), I)


def test_tower_roundtrip_over_f7():
    ctx = context_from_names("y,z", field=PrimeField(7), zvars="z")
    I = Ideal(ctx, [ctx.variable(0) ** 2])
    H = section_lift(dual_tower(I, 3))
    assert verify_lis(H).passed
    res = reconstruct(H)
    assert res.stable and res.ideal.equals(I)
    # and the file format carries prime-field coefficients
    H2 = parse_lis_file(render_lis_file(H))
    assert H2.family == H.family


def test_curve_socle_over_large_prime(capsys):
    # the curve's coefficients stay nonzero mod 101, so the type is stable
    assert main(["socle", "-i", EXAMPLE, "--m", "1", "--field", "fp:101"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


def test_trust_regular_flag_matches(tmp_path):
    a, b = tmp_path / "a.lis", tmp_path / "b.lis"
    assert main(["limit", "-i", EXAMPLE, "--mmax", "2", "-o", str(a)]) == 0
    assert main(["limit", "-i", EXAMPLE, "--mmax", "2", "--trust-regular", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_d0_limit_file_roundtrip():
    ctx = context_from_names("x,y")
    I = Ideal(ctx, [ctx.parse("x^2"), ctx.parse("x*y"), ctx.parse("y^2")])
    H = section_lift(dual_tower(I, 1))
    assert H.d == 0
    text = render_lis_file(H)
    H2 = parse_lis_file(text)
    assert H2.family == H.family and H2.d == 0
    assert verify_lis(H2).passed


def test_large_prime_accepted_quickly():
    p = 2**61 - 1
    start = time.perf_counter()
    fld = PrimeField(p)
    assert time.perf_counter() - start < 0.5
    assert fld.mul(fld.inv(12345), 12345) == 1


@pytest.mark.parametrize("n", [1, 561, 2**61 + 1, 3825123056546413051, 318665857834031151167461])
def test_composites_and_units_rejected(n):
    # 561 is a Carmichael number; the last two are strong pseudoprimes to
    # the first 9 and the first 12 prime bases
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(n)


def test_prime_beyond_exact_range_is_a_clean_error(capsys):
    with pytest.raises(ValueError, match="too large"):
        PrimeField(2**89 - 1)
    assert main(["socle", "-i", EXAMPLE, "--m", "1", "--field", f"fp:{2**89 - 1}"]) == 2
    assert "too large" in capsys.readouterr().err
