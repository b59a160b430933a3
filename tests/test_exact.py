"""The exact references of tests/exact.py, checked on cases known in closed form."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np

from boxnodes.well import TwoStateSuperposition, WellConfig
import exact

# y = 0.375 A^2 holds exactly on these floats, so F(2) = 0 and k(2) = 0.375
RATIOS = np.ldexp(1.0, -np.arange(10))
EXACT_LAW = exact.PowerLaw(RATIOS, 0.375 * RATIOS**2)


def test_delta_omega_of_the_unit_well():
    assert exact.delta_omega(1.0, 1.0, 1.0) == Fraction(3, 2) * Fraction(math.pi) ** 2


def test_middle_root_of_the_equal_mix():
    # beta = gamma = 4 alpha makes f(v) = alpha (1 - v^2)(1 + 2 v)^2, whose
    # minimum is the true zero at v = -1/2, x = 2a/3
    c = 1.0 / math.sqrt(2.0)
    [v] = exact.density_minima(WellConfig(), TwoStateSuperposition(c, c), 0.0)
    assert abs(v + Decimal("0.5")) < Decimal("1e-40")
    # the float pi and libm's acos leave position_error itself within about 2e-16 a
    assert exact.position_error(WellConfig(), 2.0 / 3.0, v) <= 2 * math.ulp(2.0 / 3.0)


def test_no_middle_root_without_a_minimum():
    # with gamma = 0 (no interference), v = 0 is a minimum when beta > alpha,
    # as for the equal mix a quarter period on, and the only critical point
    # otherwise: a maximum, as for pure psi_1 (beta = 0)
    assert exact.minimum_v(0.5, 2.0, 0.0) == 0
    assert exact.minimum_v(2.0, 0.5, 0.0) is None
    assert exact.minimum_v(1.0, 0.0, 0.0) is None


def test_power_law_root_of_an_exact_power_law():
    assert EXACT_LAW.root_within(2.0, 1)
    assert not EXACT_LAW.root_within(2.0 + 8 * math.ulp(2.0), 4)
    assert not EXACT_LAW.root_within(2.0 - 8 * math.ulp(2.0), 4)


def test_power_law_coefficient_of_an_exact_power_law():
    assert abs(EXACT_LAW.k(2.0) - Decimal("0.375")) < Decimal("1e-28")
