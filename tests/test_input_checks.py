"""Input checks across the modules, each reached by one refused input."""

import pytest

from icosian import (Q_ONE, Quaternion, binary_tetrahedral, icosian_seed, roots, t_prime)
from icosian.cli import main
from icosian.coxeter import a4xc2, reflection, s4_of, wh3xc2
from icosian.errors import BadParameter, NotInGoldenSubfield, SearchFailed
from icosian.field import SQRT2, FieldElement


def h4_simple_roots_in_the_24_cell(monkeypatch):
    """The 24-cell's scalar products are rational: no pair meets at -tau/2."""
    monkeypatch.setattr(roots, "binary_icosahedral", binary_tetrahedral)
    roots.h4_simple_roots.__wrapped__()


# Each entry: the refused call, the error it raises, and the message that
# error (or, for a usage error, stderr) must carry.
INPUT_CHECKS = {
    "reflection": (lambda mp: reflection(Quaternion(2)), BadParameter,
                   "reflection axis must be a unit quaternion"),
    "wh3xc2": (lambda mp: wh3xc2(t_prime().elements[0]), BadParameter,
               "conjugating point must lie in the binary icosahedral group"),
    "a4xc2": (lambda mp: a4xc2(icosian_seed()), BadParameter,
              "center must lie in the binary tetrahedral group"),
    "s4_of": (lambda mp: s4_of(Q_ONE), BadParameter, "center must lie in T'"),
    "root-count": (lambda mp: roots.RootSystemData("five", binary_tetrahedral().elements[:5]),
                   BadParameter, "unexpected root count 5"),
    "h4-search": (h4_simple_roots_in_the_24_cell, SearchFailed,
                  "no icosian quadruple realizes the H4 diagram"),
    "field-float": (lambda mp: FieldElement(1.5), TypeError, "expected int or Fraction, got float"),
    "to-fraction": (lambda mp: SQRT2.to_fraction(), NotInGoldenSubfield, "is irrational"),
    "digits": (lambda mp: main(["export", "24cell", "--format", "off", "--digits", "abc",
                                "--out", "-"]), SystemExit, "digits must be an integer"),
}


@pytest.mark.parametrize("name", list(INPUT_CHECKS))
def test_input_check_refuses(monkeypatch, capsys, name):
    call, error, message = INPUT_CHECKS[name]
    with pytest.raises(error) as raised:
        call(monkeypatch)
    if error is SystemExit:
        assert raised.value.code == 2
        assert message in capsys.readouterr().err
    else:
        assert message in str(raised.value)
