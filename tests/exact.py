"""Exact references for the accuracy tests, in standard-library arithmetic.

Each reference takes the exact values of its float inputs and works in
Fraction, or in Decimal far past double precision, so its own rounding lies
far below any bound a test asserts against it. One reference per quantity:

- delta_omega: the beat frequency, as a Fraction;
- density: |Psi|^2 at one point from the float modes and the float relative
  phase dw t, through libm's cos and sin, as a Fraction;
- minimum_v, density_minima and position_error: the density minimum, as the
  60-digit middle root of the derivative cubic whose coefficients are exact
  in c1, c2 and the floats cos(dw t) and sin(dw t) (position_error maps it
  to x through the float pi and libm's acos, and so is good to about
  2e-16 a);
- PowerLaw: the least-squares power law's F(p) and k(p) at a given p, in
  30 digits.

An accuracy test compares the library against one of these, never against a
second float implementation of the same quantity.
"""

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np

from boxnodes import well

_ROOT = Context(prec=60)
_FIT = Context(prec=30)


def delta_omega(a, m, hbar) -> Fraction:
    """dw = 1.5 pi^2 hbar / (m a^2) in exact rationals, with the float pi the
    library uses."""
    return (Fraction(3, 2) * Fraction(math.pi) ** 2 * Fraction(hbar)
            / (Fraction(m) * Fraction(a) ** 2))


def density(state, m1: float, m2: float, phase: float) -> Fraction:
    """|c1 m1 + c2 m2 (cos phase - i sin phase)|^2 in exact rationals.

    m1 and m2 are the floats psi_1(x) and psi_2(x) of eigenfunction, phase
    the float dw t, and its cos and sin libm's: the density of the state up
    to its global phase, on the inputs the library rounds to, so the
    library's error against it is the error of its own arithmetic.
    """
    re1, im1, re2, im2 = map(Fraction, (state.c1.real, state.c1.imag,
                                        state.c2.real, state.c2.imag))
    cos, sin, m1, m2 = map(Fraction, (math.cos(phase), math.sin(phase), m1, m2))
    # c2 e^{-i phase} = (re2 cos + im2 sin) + i (im2 cos - re2 sin)
    re = re1 * m1 + m2 * (re2 * cos + im2 * sin)
    im = im1 * m1 + m2 * (im2 * cos - re2 * sin)
    return re * re + im * im


def minimum_v(alpha, beta, gamma):
    """Minimum of f(v) = (1 - v^2)(alpha + gamma v + beta v^2) in (-1, 1).

    Works on the three numbers, floats or Fractions with a power-of-two
    denominator, exactly: the minimum is the middle root
    of f'(v) = -4 beta v^3 - 3 gamma v^2 + 2 (beta - alpha) v + gamma when its
    discriminant is positive (three distinct real roots) and that root lies
    in (-1, 1). Returns it as a Decimal good to about 45 digits, or None.
    """
    # over a common power-of-two denominator, which moves no root
    ratios = [x.as_integer_ratio() for x in (alpha, beta, gamma)]
    den = max(d for _, d in ratios)
    al, be, ga = (n * (den // d) for n, d in ratios)
    a, b, c, d = -4 * be, -3 * ga, 2 * (be - al), ga
    if a == 0 or (18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3
                  - 27 * a * a * d * d) <= 0:
        return None
    with localcontext(_ROOT):
        A, B, C, D = map(Decimal, (a, b, c, d))

        def f1(v):
            return ((A * v + B) * v + C) * v + D

        # f' rises between its two turning points, through the middle root
        s = (B * B - 3 * A * C).sqrt()
        lo, hi = sorted(((-B + s) / (3 * A), (-B - s) / (3 * A)))
        lo, hi = max(lo, Decimal(-1)), min(hi, Decimal(1))
        if not (lo < hi and f1(lo) < 0 < f1(hi)):
            return None
        v = (lo + hi) / 2
        for _ in range(200):  # Newton, kept inside the shrinking bracket
            fv = f1(v)
            if fv < 0:
                lo = v
            else:
                hi = v
            step = fv / ((3 * A * v + 2 * B) * v + C)
            if abs(step) < Decimal("1e-45") or hi - lo < Decimal("1e-45"):
                break
            v = v - step if lo < v - step < hi else (lo + hi) / 2
        return v


def density_minima(cfg, state, ts):
    """minimum_v at every time in ts, on the exact problem the engine's inputs
    pose: alpha = |c1|^2, beta = 4 |c2|^2 and gamma = 4 Re(c1 conj(c2) e^{i dw t})
    in Fractions of the exact c1 and c2 and of numpy's cos and sin of the
    float phase dw t, the floats the engine also takes."""
    re1, im1, re2, im2 = map(Fraction, (state.c1.real, state.c1.imag,
                                        state.c2.real, state.c2.imag))
    alpha, beta = re1 * re1 + im1 * im1, 4 * (re2 * re2 + im2 * im2)
    # c1 conj(c2)
    cross_re, cross_im = re1 * re2 + im1 * im2, im1 * re2 - re1 * im2
    phase = np.atleast_1d(well.delta_omega(cfg) * np.asarray(ts, dtype=float))
    return [minimum_v(alpha, beta, 4 * (cross_re * Fraction(cos) - cross_im * Fraction(sin)))
            for cos, sin in zip(np.cos(phase).tolist(), np.sin(phase).tolist())]


def position_error(cfg, x, v) -> float:
    """|x - (a/pi) arccos(v)| for a Decimal v, arccos taken to first order
    around float(v); the neglected terms are below 1e-30 here.

    pi and arccos(float(v)) are the floats the library maps v through, so the
    reference is itself good to about 2e-16 a, not to 60 digits.
    """
    with localcontext(_ROOT):
        v_f = float(v)
        arccos = Decimal(math.acos(v_f)) + (Decimal(v_f) - v) / (1 - v * v).sqrt()
        return float(abs(Decimal(x) - Decimal(cfg.width_a) / Decimal(math.pi) * arccos))


def _ln(x: float) -> Decimal:
    """log x in the current context: libm's log, then one Newton step on exp.

    libm's log is within an ulp, so the step's own error, about e**3 / 3 for
    e = x exp(-log x) - 1 near 1e-16, is far below 30 digits; this takes a
    third of the time of Decimal.ln.
    """
    log_x = Decimal(math.log(x))
    e = Decimal(x) * (-log_x).exp() - 1
    return log_x + e - e * e / 2


class PowerLaw:
    """The least-squares power law k A**p through the points (A, y).

    With w = A**p and L = log A, the best coefficient at a fixed p is
    k(p) = sum(w y) / sum(w**2), and the optimum p is the root of
    F(p) = sum(w y L) sum(w**2) - sum(w y) sum(w**2 L), which falls through
    it. Both are taken in 30-digit Decimal at the exact value of a float p:
    a few ulps from the root, F is about 1e-15 of its terms, which leaves
    over ten digits to spare. The logs are taken once, when the points are
    given, and each A**p once per p.
    """

    def __init__(self, ratios, amplitudes):
        with localcontext(_FIT):
            self._points = [(Decimal(y), _ln(A)) for A, y in zip(np.asarray(ratios).tolist(),
                                                                np.asarray(amplitudes).tolist())]
        self._powers = {}

    def _at(self, p: float, dp=0):
        """F and k at p + dp, dp a Decimal a few ulps of p wide: A**(p + dp)
        is A**p A**dp."""
        with localcontext(_FIT):
            if p not in self._powers:
                self._powers[p] = [(Decimal(p) * L).exp() for _, L in self._points]
            wy = wyl = ww = wwl = Decimal(0)
            for (y, L), w in zip(self._points, self._powers[p]):
                if dp:
                    w *= (dp * L).exp()
                w_y, w_w = w * y, w * w
                wy += w_y
                wyl += w_y * L
                ww += w_w
                wwl += w_w * L
            return wyl * ww - wy * wwl, wy / ww

    def F(self, p: float, dp=0) -> Decimal:
        return self._at(p, dp)[0]

    def k(self, p: float) -> Decimal:
        return self._at(p)[1]

    def root_within(self, p: float, ulps: int) -> bool:
        """Whether F changes sign within ulps units in the last place of p."""
        with localcontext(_FIT):
            dp = ulps * Decimal(math.ulp(p))
        return self.F(p, -dp) >= 0 >= self.F(p, dp)
