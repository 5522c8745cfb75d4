"""Exact arithmetic in Q(sqrt2, sqrt5): frozen values first, then field axioms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from icosian import (HALF, ONE, SIGMA, SQRT2, SQRT5, TAU, ZERO, FieldElement,
                     NotInGoldenSubfield, field_sqrt)
from icosian.field import SQRT10
from sqrt_oracle import field_sqrt as oracle_field_sqrt


# ---------------------------------------------------------------------------
# frozen oracles


def test_golden_ratio_identities():
    assert TAU * SIGMA == -1
    assert TAU + SIGMA == 1
    assert TAU * TAU == TAU + 1
    assert SIGMA * SIGMA == SIGMA + 1
    assert TAU - SIGMA == SQRT5


def test_radical_products():
    assert SQRT2 * SQRT2 == 2
    assert SQRT5 * SQRT5 == 5
    assert SQRT10 * SQRT10 == 10
    assert SQRT2 * SQRT5 == SQRT10
    assert SQRT2 * SQRT10 == 2 * SQRT5
    assert SQRT5 * SQRT10 == 5 * SQRT2


def test_component_accessors():
    x = FieldElement(Fraction(3, 2), -1, Fraction(1, 3), 0)
    assert (x.a, x.b, x.c, x.d) == (Fraction(3, 2), -1, Fraction(1, 3), 0)
    nums, den = x.raw
    assert den == 6
    assert nums == (9, -6, 2, 0)


def test_structural_equality_and_hash():
    assert FieldElement(Fraction(1, 2)) == HALF
    assert hash(FieldElement(0, 1)) == hash(SQRT2)
    assert HALF + HALF == ONE
    assert FieldElement(2) / 4 == HALF
    assert len({TAU, SIGMA, TAU + 0}) == 2


def test_expansion_oracle():
    lhs = (ONE + SQRT2) * (ONE + SQRT5)
    assert lhs == FieldElement(1, 1, 1, 1)
    assert (TAU * SQRT2) * (TAU * SQRT2) == 2 * TAU + 2


def conjugate_formula_inverse(x):
    """1/x as y / (x y), y the product of x's three Galois conjugates, so x y is rational."""
    y = x.galois("sqrt2") * x.galois("sqrt5") * x.galois("sqrt2").galois("sqrt5")
    return FieldElement(1 / (x * y).to_fraction()) * y


def test_division_and_inverse():
    x = FieldElement(Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5), 1)
    assert x * x.invert() == ONE
    assert (x / x) == ONE
    assert TAU.invert() == TAU - 1
    assert SIGMA.invert() == SIGMA - 1
    # A rational element is inverted directly; the rest by the conjugates.
    for y in (x, FieldElement(Fraction(-3, 7)), FieldElement(5), HALF, SQRT2 * 3):
        assert y.invert() == conjugate_formula_inverse(y)
    assert FieldElement(Fraction(-3, 7)).invert() == FieldElement(Fraction(-7, 3))
    with pytest.raises(ZeroDivisionError, match="field element is zero"):
        ZERO.invert()


def test_galois_automorphisms():
    assert TAU.galois() == SIGMA
    assert SIGMA.galois() == TAU
    assert SQRT2.galois() == SQRT2
    assert SQRT2.galois("sqrt2") == -SQRT2
    assert SQRT10.galois() == -SQRT10
    assert SQRT10.galois("sqrt2") == -SQRT10
    x = FieldElement(1, 2, 3, 4)
    assert x.galois().galois() == x
    assert x.galois("sqrt2").galois("sqrt2") == x
    assert x.galois().galois("sqrt2") == x.galois("sqrt2").galois()
    with pytest.raises(ValueError):
        x.galois("sqrt3")


def test_golden_decompose():
    a, b = TAU.golden_decompose()
    assert (a, b) == (1, -1)
    assert SIGMA.golden_decompose() == (0, 1)
    x = FieldElement(Fraction(5, 2), 0, Fraction(-3, 2), 0)
    u, v = x.golden_decompose()
    assert FieldElement(u) + SIGMA * FieldElement(v) == x
    assert TAU.euclidean_part() == 1
    assert SIGMA.euclidean_part() == 0
    with pytest.raises(NotInGoldenSubfield):
        SQRT2.golden_decompose()


def test_sign_and_ordering():
    assert TAU > 1
    assert SIGMA < 0
    assert (SQRT2 + SQRT5 - SQRT10 - 1).sign() == -1
    assert (SQRT2 * SQRT5 - SQRT10).sign() == 0
    # A tight comparison: tau^10 vs its nearest integer.
    assert TAU ** 10 > 122
    assert TAU ** 10 < 124
    assert abs(SIGMA) == -SIGMA
    assert sorted([TAU, ZERO, SIGMA, ONE]) == [SIGMA, ZERO, ONE, TAU]


def _sign_q(q: Fraction) -> int:
    return (q > 0) - (q < 0)


def _sign_golden(x0: Fraction, x1: Fraction) -> int:
    """sign(x0 + x1 sqrt5): sign(x0) when sign(x0) sign(x1) >= 0, else
    sign(x0) sign(x0^2 - 5 x1^2)."""
    s0, s1 = _sign_q(x0), _sign_q(x1)
    if s0 * s1 >= 0:
        return s0 or s1
    return s0 * _sign_q(x0 * x0 - 5 * x1 * x1)


def exact_sign(x: FieldElement) -> int:
    """The sign of u + v sqrt2, u = a + c sqrt5 and v = b + d sqrt5, by the same
    rule over the tower Q(sqrt5)(sqrt2), on Fractions: no enclosure is taken."""
    a, b, c, d = x.coefficients()
    su, sv = _sign_golden(a, c), _sign_golden(b, d)
    if su * sv >= 0:
        return su or sv
    # u^2 - 2 v^2 = (a^2 + 5 c^2 - 2 b^2 - 10 d^2) + (2 a c - 4 b d) sqrt5
    return su * _sign_golden(a * a + 5 * c * c - 2 * b * b - 10 * d * d, 2 * a * c - 4 * b * d)


def decided_at(x: FieldElement) -> int:
    """The bits at which sign()'s doubling from 32 first decides x."""
    bits = 32
    while True:
        lo, hi = x._enclosure(bits)
        if lo > 0 or hi < 0:
            return bits
        bits *= 2


def test_sign_refines_near_zero():
    # Values tiny against their coefficients: tau^-k, F_(k+1) - F_k tau
    # (built from integers), and near-ties with sqrt2 and sqrt10 parts.
    fib = [0, 1]
    while len(fib) < 202:
        fib.append(fib[-1] + fib[-2])
    cases = [TAU ** -k for k in range(1, 201)]
    cases += [FieldElement(fib[k + 1]) - fib[k] * TAU for k in range(1, 201)]
    pell, ten = SQRT2 - 1, SQRT10 - 3  # units of norm -1: their powers shrink
    for k in range(1, 61):
        cases += [pell ** k, ten ** k, pell ** k * TAU ** -k, ten ** k - pell ** (2 * k)]
    for x in cases + [-x for x in cases]:
        assert x.sign() == exact_sign(x) != 0, x
    assert decided_at(TAU ** -45) == 64
    assert max(map(decided_at, cases)) >= 512


def test_float_enclosure():
    import math
    assert math.isclose(float(TAU), (1 + 5 ** 0.5) / 2, rel_tol=1e-15)
    assert math.isclose(float(SQRT10), 10 ** 0.5, rel_tol=1e-15)


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(-SQRT2 * HALF) == "-1/2√2"
    assert str(TAU) == "1/2+1/2√5"


def test_field_sqrt_pins():
    assert field_sqrt(FieldElement(2)) == SQRT2
    assert field_sqrt(TAU * TAU) == TAU
    assert field_sqrt(HALF) == SQRT2 * HALF
    assert field_sqrt(2 * TAU ** 4) == SQRT2 * TAU ** 2
    assert field_sqrt(SIGMA ** 4 * HALF) == SIGMA ** 2 * SQRT2 * HALF
    assert field_sqrt(ZERO) == ZERO
    assert field_sqrt(FieldElement(3)) is None
    assert field_sqrt(FieldElement(-1)) is None
    assert field_sqrt(SQRT2) is None


# ---------------------------------------------------------------------------
# property-based checks

rationals = st.fractions(
    min_value=-10 ** 4, max_value=10 ** 4, max_denominator=10 ** 3)

elements = st.builds(FieldElement, rationals, rationals, rationals, rationals)


@given(elements, elements, elements)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(elements)
@settings(max_examples=60, deadline=None)
def test_additive_structure(x):
    assert x + ZERO == x
    assert x - x == ZERO
    assert -(-x) == x
    assert x * ONE == x


@given(elements)
@settings(max_examples=60, deadline=None)
def test_multiplicative_inverse(x):
    if x.is_zero():
        return
    assert x * x.invert() == ONE
    assert x.invert() == conjugate_formula_inverse(x)


@given(elements, elements)
@settings(max_examples=60, deadline=None)
def test_galois_is_multiplicative(x, y):
    for which in ("sqrt5", "sqrt2"):
        assert (x * y).galois(which) == x.galois(which) * y.galois(which)
        assert (x + y).galois(which) == x.galois(which) + y.galois(which)


@given(elements)
@settings(max_examples=60, deadline=None)
def test_full_norm_is_rational(x):
    product = (x * x.galois("sqrt2") * x.galois("sqrt5")
               * x.galois("sqrt2").galois("sqrt5"))
    assert product.is_rational()


@given(elements)
@settings(max_examples=40, deadline=None)
def test_sign_matches_float(x):
    value = float(x)
    if abs(value) > 1e-9:
        assert x.sign() == (1 if value > 0 else -1)


@given(elements)
@settings(max_examples=40, deadline=None)
def test_square_roundtrip(x):
    root = field_sqrt(x * x)
    assert root == abs(x)


# Squares times each multiplier, and non-squares: the multipliers cover the
# rational, golden and sqrt2 cases, zero (x == 0) and negative inputs.
multipliers = st.sampled_from([ONE, FieldElement(2), FieldElement(5), FieldElement(10), HALF,
                               FieldElement(3), -ONE, SQRT2, SQRT5, SQRT10, TAU, SIGMA])


@given(elements, multipliers)
@settings(max_examples=60, deadline=None)
def test_field_sqrt_matches_case_analysis_oracle(x, c):
    for y in (x, x * x * c):
        assert field_sqrt(y) == oracle_field_sqrt(y)


def test_reflected_operators_and_truth():
    """A rational on the left of - and /, and the truth of an element: nonzero."""
    assert 1 - TAU == ONE - TAU == SIGMA - TAU + 1 - SIGMA
    assert Fraction(1, 2) - HALF == ZERO
    assert 2 / SQRT2 == SQRT2 and 1 / TAU == TAU - 1
    assert Fraction(5, 2) / SQRT5 == SQRT5 * HALF
    with pytest.raises(TypeError):
        "1" - TAU
    with pytest.raises(TypeError):
        "1" / TAU
    assert not bool(ZERO) and bool(TAU) and bool(SIGMA - TAU)
    assert not (TAU - TAU)
