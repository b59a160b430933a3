"""The paper's claim against an independent oracle: a finite-difference solve.

Every reference in tests/exact.py evaluates the library's own closed forms at
higher precision, so it checks the arithmetic. This file checks the physics:
that those formulas are the time evolution of a particle in a box, and that
its node oscillates at (E2 - E1) / hbar. It discretises
H = -(hbar^2 / 2m) d^2/dx^2 with Dirichlet walls on N interior points,
x_j = j h with h = a / (N + 1), diagonalises it with np.linalg.eigh, and
evolves c1 V_1 e^{-i E_1 t / hbar} + c2 V_2 e^{-i E_2 t / hbar} in its two
lowest eigenvectors, their signs fixed and scaled to unit L2 norm. The node
is the interior local minimum of the discrete density, refined by the
parabola through three points. No library formula enters the solve; its
frequencies, the period of its node and the positions of its minimum must
converge at O(h^2) to omega, delta_omega, beat_period and track_trajectory.
Its minimum must appear and vanish where the library's does, within a band
of the instant, and be a zero at the instants of exact_zero_times to
O(h^2) of the density's scale.

Each bound below is a multiple of the worst case measured on these wells and
states, at N = 256 and 512.
"""

import functools
import math

import numpy as np
import pytest

from boxnodes import (NodeKind, TwoStateSuperposition, WellConfig, beat_period, delta_omega,
                      exact_zero_times, node_position, omega, track_trajectory)

WELLS = [WellConfig(1.37, 0.6, 1.9), WellConfig(0.8, 1.6, 0.45)]
SIZES = (256, 512)
# (h_coarse / h_fine)^2 of the two sizes
R2 = ((SIZES[1] + 1) / (SIZES[0] + 1)) ** 2

# Richardson-extrapolated omega_1, omega_2 and dw, relative to the closed
# forms: worst 3.3e-10, dw on both wells
FREQ_REL = 1e-9
# the crossings' period against 2 pi hbar / (E2 - E1): worst 1.2e-15
PERIOD_REL = 1e-12
# (period / T - 1) / (h/a)^2: 4.1124 to 4.1125 at both sizes on both wells
PERIOD_C = 4.2
# |x_FD - x| / a over (h/a)^2 where both have a minimum: worst 9.23 at
# N = 256 and 8.34 at N = 512, for A = 0.9 and A = -0.823 - 0.301i
POSITION_C = 12.0
# the FD minimum appears and vanishes within this many T of the library's:
# worst 6.5e-5 at N = 256 and 2.4e-5 at N = 512 (A = 0.6 and 0.6i). The
# worst falls 2.65 times as h halves, between O(h) and O(h^2), and single
# instants fall 1.3 to 14.8 times, so the band is not scaled with h
FLIP_B = 1e-4
# the FD minimum's depth at k T/2 over the density's maximum, over (h/a)^2:
# worst 0.031 at N = 256 and 0.029 at N = 512 (A = -0.096 and -0.306); a
# single state's depth need not fall with h (A = -0.306: 0.0025 to 0.029)
DEPTH_C = 0.05

# node-ratio states (A, 0.5), for which c1 / (2 c2) = A: real and complex,
# with a minimum at every instant, at some or at none
_RNG = np.random.default_rng(1707)
STATES = [TwoStateSuperposition(A, 0.5) for A in
          [0.6, 0.6j, 0.9, 0.7 + 0.7j, *_RNG.uniform(-1.1, 1.1, 3).tolist(),
           *(_RNG.uniform(0.2, 1.2, 3) * np.exp(1j * _RNG.uniform(0.0, 2.0 * math.pi, 3)))]]
# the real states with 0 < |A| < 1, whose density has a true zero at k T/2
ZERO_STATES = [s for s in STATES if s.c1.imag == 0.0 and 0.0 < abs(s.c1) < 1.0]


@functools.cache
def _laplacian(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two lowest eigenvalues of L_N = tridiag(-1, 2, -1) on N points, and
    their unit eigenvectors as rows, psi_1 > 0 inside the well and psi_2 > 0
    next to x = 0. Every well's FD Hamiltonian is (hbar^2 / 2 m h^2) L_N, so
    one solve per N serves them all."""
    laplacian = np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
    values, vectors = np.linalg.eigh(laplacian)
    vectors = vectors[:, :2].T.copy()
    vectors[0] *= np.sign(vectors[0].sum())
    vectors[1] *= np.sign(vectors[1, 0])
    return values[:2], vectors


class Solve:
    """The two lowest eigenpairs of the FD Hamiltonian of one well on N points."""

    def __init__(self, cfg: WellConfig, n: int) -> None:
        self.h = cfg.width_a / (n + 1)
        self.x = self.h * np.arange(1, n + 1)
        values, vectors = _laplacian(n)
        self.omegas = cfg.hbar / (2.0 * cfg.mass_m * self.h ** 2) * values
        self.modes = vectors / math.sqrt(self.h)

    def density(self, state: TwoStateSuperposition, times: np.ndarray) -> np.ndarray:
        """The discrete density, one row per time."""
        phases = np.exp(-1j * np.multiply.outer(times, self.omegas))
        c1, c2 = state.c1 * phases[:, :1], state.c2 * phases[:, 1:]
        psi = c1 * self.modes[0] + c2 * self.modes[1]
        return psi.real ** 2 + psi.imag ** 2

    def minimum(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The position and the value of each row's interior minimum, refined
        by the parabola through three points; NaN in a row without one."""
        left, mid, right = rho[:, :-2], rho[:, 1:-1], rho[:, 2:]
        is_min = (mid < left) & (mid <= right)
        # |Psi|^2 has one interior minimum or none
        assert (is_min.sum(axis=1) <= 1).all()
        rows = np.arange(len(rho))
        j = is_min.argmax(axis=1)
        l, c, r = left[rows, j], mid[rows, j], right[rows, j]
        curvature = l - 2.0 * c + r
        found = self.x[j + 1] + 0.5 * self.h * (l - r) / curvature
        depth = c - (l - r) ** 2 / (8.0 * curvature)
        none = ~is_min.any(axis=1)
        found[none] = depth[none] = math.nan
        return found, depth

    def nodes(self, state: TwoStateSuperposition, times: np.ndarray) -> np.ndarray:
        """The density minimum at each time, NaN at an instant without one."""
        return self.minimum(self.density(state, times))[0]


@pytest.fixture(scope="module", params=WELLS, ids=["a1.37", "a0.8"])
def well(request):
    """A well and its solve at each size, made once for the module."""
    return request.param, {n: Solve(request.param, n) for n in SIZES}


def test_frequencies_converge_to_the_closed_forms(well):
    cfg, solves = well
    coarse, fine = (solves[n].omegas for n in SIZES)
    # the O(h^2) terms cancel, and O(h^4) is left
    w1, w2 = (R2 * fine - coarse) / (R2 - 1.0)
    dw = (R2 * (fine[1] - fine[0]) - (coarse[1] - coarse[0])) / (R2 - 1.0)
    for got, want in ((w1, omega(cfg, 1)), (w2, omega(cfg, 2)), (dw, delta_omega(cfg))):
        assert abs(got / want - 1.0) <= FREQ_REL
    # each size on its own lies below the closed form, by at most twice the
    # leading term (n pi h / a)^2 / 12 of the FD error (measured: 1.0 times)
    for size in SIZES:
        h_a = solves[size].h / cfg.width_a
        for n, got in enumerate(solves[size].omegas, 1):
            assert -(n * math.pi * h_a) ** 2 / 6.0 <= got / omega(cfg, n) - 1.0 < 0.0


def _bisect(side, lo: float, hi: float) -> float:
    """The last float of [lo, hi) on lo's side of the one change of side(t)
    in that bracket, bisected to the last bit."""
    start = side(lo)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if side(mid) == start else (lo, mid)
    return lo


def _crossings(solve: Solve, state: TwoStateSuperposition, a: float, t_end: float) -> np.ndarray:
    """The times in [0, t_end] at which the FD node crosses a/2, each bisected
    in its bracket on a 65-instant scan."""
    def above(t):
        return solve.nodes(state, np.atleast_1d(t))[0] > 0.5 * a

    ts = np.linspace(0.0, t_end, 65)
    sides = solve.nodes(state, ts) > 0.5 * a
    return np.array([_bisect(above, ts[k], ts[k + 1])
                     for k in np.flatnonzero(sides[:-1] != sides[1:])])


def test_node_period_is_the_beat_period(well):
    # the node crosses a/2 twice per period, and the crossings are not
    # rescaled: their period is 2 pi hbar / (E2 - E1) of the FD energies,
    # and that converges to the closed form's beat period at O(h^2)
    cfg, solves = well
    T = beat_period(cfg)
    errs = []
    for n in SIZES:
        solve = solves[n]
        fd_period = 2.0 * math.pi / (solve.omegas[1] - solve.omegas[0])
        crossings = _crossings(solve, TwoStateSuperposition(0.6, 0.8), cfg.width_a,
                               2.1 * fd_period)
        assert len(crossings) == 4
        periods = crossings[2:] - crossings[:-2]
        assert np.abs(periods / fd_period - 1.0).max() <= PERIOD_REL
        err = fd_period / T - 1.0
        assert 0.0 < err <= PERIOD_C * (solve.h / cfg.width_a) ** 2
        errs.append(err)
    assert errs[0] / errs[1] == pytest.approx(R2, rel=1e-3)


@pytest.mark.parametrize("state", STATES,
                         ids=[f"A={s.c1.real:.3g}{s.c1.imag:+.3g}i" for s in STATES])
def test_density_minima_follow_track_trajectory(well, state):
    # at each of 129 instants of a beat period, the FD minimum at the same
    # beat phase, the FD time scaled by dw / dw_h. Presence must match except
    # within FLIP_B T of an instant at which the library's minimum appears or
    # vanishes, each bisected in its own bracket of the 129, since a presence
    # interval can hold a single instant (A = 0.9, 0.7 + 0.7i). Positions are
    # compared where both have a minimum, except at the two instants around
    # each change of presence, where the FD is off by up to 32 (h/a)^2
    cfg, solves = well
    T = beat_period(cfg)
    track = track_trajectory(cfg, state, NodeKind.DENSITY_MINIMUM, 0.0, T, 129)
    present = ~np.isnan(track.positions)
    changes = np.flatnonzero(present[:-1] != present[1:])

    def absent(t):
        return node_position(cfg, state, NodeKind.DENSITY_MINIMUM, t) is None

    flips = np.array([_bisect(absent, track.times[k], track.times[k + 1]) for k in changes])
    away = ~(np.abs(np.subtract.outer(track.times, flips)) <= FLIP_B * T).any(axis=1)
    far = np.ones(len(present), bool)
    far[changes] = far[changes + 1] = False
    for n in SIZES:
        solve = solves[n]
        scale = delta_omega(cfg) / (solve.omegas[1] - solve.omegas[0])
        fd = solve.nodes(state, track.times * scale)
        assert (~np.isnan(fd) == present)[away].all()
        both = far & present
        err = np.abs(fd[both] - track.positions[both]) / cfg.width_a
        assert (err <= POSITION_C * (solve.h / cfg.width_a) ** 2).all()


@pytest.mark.parametrize("state", ZERO_STATES, ids=[f"A={s.c1.real:.3g}" for s in ZERO_STATES])
def test_minimum_is_the_true_zero_at_half_periods(well, state):
    # at exact_zero_times' instants k T/2, scaled by dw / dw_h to the same
    # beat phase, the FD density's minimum is a zero to O(h^2) of the
    # density's scale
    cfg, solves = well
    zeros = exact_zero_times(cfg, state)
    assert len(zeros) == 3
    for n in SIZES:
        solve = solves[n]
        rho = solve.density(state, zeros * (delta_omega(cfg) / (solve.omegas[1] - solve.omegas[0])))
        _, depth = solve.minimum(rho)
        assert (np.abs(depth) / rho.max(axis=1) <= DEPTH_C * (solve.h / cfg.width_a) ** 2).all()
