"""The case-analysis square root that field.field_sqrt must match.

The field's square root before it became one quadratic-extension rule:
rational roots, roots in the golden subfield Q(sqrt5) by their own cases,
and roots with a sqrt2 part solved for over Q(sqrt5).
"""

from fractions import Fraction
from math import isqrt

from icosian.field import ZERO, FieldElement


def _sqrt_fraction(f: Fraction) -> Fraction | None:
    if f < 0:
        return None
    rn, rd = isqrt(f.numerator), isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def _sqrt_golden(u: Fraction, v: Fraction) -> tuple[Fraction, Fraction] | None:
    """Square root of u + v*sqrt5 inside Q(sqrt5), if one exists."""
    if v == 0:
        r = _sqrt_fraction(u)
        if r is not None:
            return (r, Fraction(0))
        r = _sqrt_fraction(u / 5)
        if r is not None:
            return (Fraction(0), r)
        return None
    disc = _sqrt_fraction(u * u - 5 * v * v)
    if disc is None:
        return None
    for t in ((u + disc) / 2, (u - disc) / 2):
        g = _sqrt_fraction(t)
        if g is not None and g != 0:
            h = v / (2 * g)
            if g * g + 5 * h * h == u:
                return (g, h)
    return None


def field_sqrt(x: FieldElement) -> FieldElement | None:
    """Positive square root of x within the field, or None when absent."""
    if x.is_zero():
        return ZERO
    if x.sign() < 0:
        return None
    a, b, c, d = x.coefficients()

    def build(y1, y2):
        cand = FieldElement(y1[0], y2[0], y1[1], y2[1])
        if cand * cand == x:
            return abs(cand)
        return None

    zero2 = (Fraction(0), Fraction(0))
    if b == 0 and d == 0:
        r = _sqrt_golden(a, c)
        if r is not None:
            got = build(r, zero2)
            if got is not None:
                return got
        r = _sqrt_golden(a / 2, c / 2)
        if r is not None:
            got = build(zero2, r)
            if got is not None:
                return got
        return None
    # x = x1 + sqrt2 * x2 with x1, x2 in Q(sqrt5); solve (y1 + sqrt2*y2)^2 = x.
    x1 = (a, c)
    x2 = (b, d)
    du = x1[0] * x1[0] + 5 * x1[1] * x1[1] - 2 * (x2[0] * x2[0] + 5 * x2[1] * x2[1])
    dv = 2 * x1[0] * x1[1] - 4 * x2[0] * x2[1]
    s = _sqrt_golden(du, dv)
    if s is None:
        return None
    for su, sv in ((s[0], s[1]), (-s[0], -s[1])):
        tu, tv = (x1[0] + su) / 2, (x1[1] + sv) / 2
        y1 = _sqrt_golden(tu, tv)
        if y1 is None or y1 == (0, 0):
            continue
        # y2 = x2 / (2*y1) in Q(sqrt5)
        norm = 4 * (y1[0] * y1[0] - 5 * y1[1] * y1[1])
        if norm == 0:
            continue
        y2 = (
            (x2[0] * 2 * y1[0] - 10 * x2[1] * y1[1]) / norm,
            (x2[1] * 2 * y1[0] - 2 * x2[0] * y1[1]) / norm,
        )
        got = build(y1, y2)
        if got is not None:
            return got
    return None
