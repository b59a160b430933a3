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
O(h^2) of the density's scale, its depth deepest in time at those instants.

The same Hamiltonian is also stepped in time, by Crank-Nicolson (J. Crank and
P. Nicolson, Proc. Camb. Phil. Soc. 43, 50 (1947)), from the state
sqrt(2/a) (c1 sin(pi x/a) + c2 sin(2 pi x/a)) on the grid: no eigenvector and
no phase enters that solve, only one step matrix. Its node's period, from
the upward crossings of a/2, carries the step's known O(dt^2) error on top of
the FD one, and extrapolates to beat_period; its positions follow
track_trajectory.

Each bound below is a multiple of the worst case measured on these wells and
states, at N = 256 and 512.
"""

import functools
import math

import numpy as np
import pytest

from boxnodes import (NodeKind, TwoStateSuperposition, WellConfig, beat_period, delta_omega,
                      exact_zero_times, node_position, omega, track_trajectory)
from peaks import golden_min

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
# the FD depth's minimum in time near k T/2, golden-section searched within
# 1e-3 T, lies off the scaled instant by this many (h/a)^2 T: worst 1.9e-5
# at N = 256 and 3.2e-5 at N = 512 (A = -0.096; 2.9e-10 T and 1.2e-10 T),
# the same to two digits for 36 to 60 steps; instants 4e-5 T off read up to
# 2.6 and 10.5
ZERO_T_C = 1e-4

# node-ratio states (A, 0.5), for which c1 / (2 c2) = A: real and complex,
# with a minimum at every instant, at some or at none
_RNG = np.random.default_rng(1707)
STATES = [TwoStateSuperposition(A, 0.5) for A in
          [0.6, 0.6j, 0.9, 0.7 + 0.7j, *_RNG.uniform(-1.1, 1.1, 3).tolist(),
           *(_RNG.uniform(0.2, 1.2, 3) * np.exp(1j * _RNG.uniform(0.0, 2.0 * math.pi, 3)))]]
# the real states with 0 < |A| < 1, whose density has a true zero at k T/2
ZERO_STATES = [s for s in STATES if s.c1.imag == 0.0 and 0.0 < abs(s.c1) < 1.0]


def _tridiag(n: int) -> np.ndarray:
    """L_N = tridiag(-1, 2, -1) on N points."""
    return np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)


@functools.cache
def _laplacian(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two lowest eigenvalues of L_N on N points, and their unit
    eigenvectors as rows, psi_1 > 0 inside the well and psi_2 > 0 next to
    x = 0. Every well's FD Hamiltonian is (hbar^2 / 2 m h^2) L_N, so one
    solve per N serves them all."""
    values, vectors = np.linalg.eigh(_tridiag(n))
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
    # density's scale. The depth grows only as the square of the time
    # offset, so the instants are also located as the minimum in time of
    # the FD depth, within 1e-3 T of each
    cfg, solves = well
    T = beat_period(cfg)
    zeros = exact_zero_times(cfg, state)
    assert len(zeros) == 3
    for n in SIZES:
        solve = solves[n]
        h2 = (solve.h / cfg.width_a) ** 2
        instants = zeros * (delta_omega(cfg) / (solve.omegas[1] - solve.omegas[0]))
        rho = solve.density(state, instants)
        _, depth = solve.minimum(rho)
        assert (np.abs(depth) / rho.max(axis=1) <= DEPTH_C * h2).all()
        deepest = golden_min(lambda t: solve.minimum(solve.density(state, t))[1],
                             instants - 1e-3 * T, instants + 1e-3 * T, 40)
        assert (np.abs(deepest - instants) <= ZERO_T_C * h2 * T).all()


# Crank-Nicolson time steps of the FD Hamiltonian: (N, steps S per beat
# period), h and dt halving together
CN_SIZES = ((256, 4096), (512, 8192))
# node samples per beat period, over two periods
CN_SAMPLES = 64
CN_STATE = TwoStateSuperposition(0.6, 0.5)
# the CN period over the FD period of the same N, less 1, over (dw_h dt)^2,
# relative to 7/36: worst -2.3e-3 at S = 4096 and +4.3e-4 at S = 8192
CN_DT_REL = 1e-2
# the CN periods Richardson-extrapolated in h and dt, relative to the beat
# period: worst -8.2e-10, of which about -6e-10 is the dt term that h's
# ratio (513/257)^2 leaves uncancelled
CN_PERIOD_REL = 4e-9
# |x_CN - x| / a over (h/a)^2 away from changes of presence: worst 6.2 at
# N = 256 and 6.5 at N = 512
CN_POSITION_C = 10.0


@functools.cache
def _cn_step(n: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """One Crank-Nicolson step U = (I + i dt H / 2 hbar)^-1 (I - i dt H / 2 hbar)
    on N points at S steps per beat period, and U^(S/64), the steps between
    samples. dt H / 2 hbar = (r / 2) L_N with r = hbar dt / (2 m h^2) =
    (2 / (3 pi S)) (N + 1)^2 for every well, so one solve serves them all."""
    half = 1j / (3.0 * math.pi * steps) * (n + 1) ** 2 * _tridiag(n)
    eye = np.eye(n)
    step = np.linalg.solve(eye + half, eye - half)
    return step, np.linalg.matrix_power(step, steps // CN_SAMPLES)


def _crank_nicolson(cfg: WellConfig, solve: Solve, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The CN node at 64 samples per beat period over two periods, and the
    times of its upward crossings of a/2: each bracketed by two samples,
    then stepped to the step before it and interpolated linearly."""
    a, per_sample, dt = cfg.width_a, steps // CN_SAMPLES, beat_period(cfg) / steps
    step, stride = _cn_step(len(solve.x), steps)
    psi = math.sqrt(2.0 / a) * (CN_STATE.c1 * np.sin(math.pi * solve.x / a)
                                + CN_STATE.c2 * np.sin(2.0 * math.pi * solve.x / a))
    samples = [psi.astype(complex)]
    for _ in range(2 * CN_SAMPLES):
        samples.append(stride @ samples[-1])

    def offsets(states):
        """The node's offsets from a/2, and the indices after which they turn
        from negative to non-negative."""
        psi = np.array(states)
        off = solve.minimum(psi.real ** 2 + psi.imag ** 2)[0] - 0.5 * a
        return off, np.flatnonzero((off[:-1] < 0.0) & (off[1:] >= 0.0))

    nodes, upward = offsets(samples)
    crossings = []
    for k in upward:
        states = [samples[k]]
        for _ in range(per_sample):
            states.append(step @ states[-1])
        off, (j, *_) = offsets(states)
        crossings.append((k * per_sample + j + off[j] / (off[j] - off[j + 1])) * dt)
    return nodes + 0.5 * a, np.array(crossings)


@pytest.fixture(scope="module")
def crank_nicolson(well):
    """The CN node and its upward crossings at each (N, S), made once per well."""
    cfg, solves = well
    return {size: _crank_nicolson(cfg, solves[size[0]], size[1]) for size in CN_SIZES}


def test_crank_nicolson_node_period_is_the_beat_period(well, crank_nicolson):
    # CN turns mode n by 2 arctan(omega_n dt / 2) per step, so the node's
    # period exceeds the FD one of the same N by (omega_2^3 - omega_1^3) dt^2
    # / (12 dw) = (7/36) (dw dt)^2, as omega_2 = 4 omega_1; the crossings
    # must measure that coefficient. h and dt halve together from one size
    # to the next, so one Richardson step in h cancels both O(h^2) and
    # O(dt^2), and leaves the beat period
    cfg, solves = well
    T = beat_period(cfg)
    periods = []
    for n, steps in CN_SIZES:
        crossings = crank_nicolson[n, steps][1]
        assert len(crossings) == 2
        periods.append(crossings[1] - crossings[0])
        dw_h = solves[n].omegas[1] - solves[n].omegas[0]
        coefficient = (periods[-1] * dw_h / (2.0 * math.pi) - 1.0) / (dw_h * T / steps) ** 2
        assert abs(coefficient / (7.0 / 36.0) - 1.0) <= CN_DT_REL
    extrapolated = (R2 * periods[1] - periods[0]) / (R2 - 1.0)
    assert abs(extrapolated / T - 1.0) <= CN_PERIOD_REL


def test_crank_nicolson_node_follows_track_trajectory(well, crank_nicolson):
    # the library's density minimum at the same beat phase, the CN sample
    # times scaled by T / T_CN, T_CN the period of the CN crossings: the
    # same presence, and positions within CN_POSITION_C (h/a)^2, except at
    # the two samples around each change of presence
    cfg, solves = well
    T = beat_period(cfg)
    for n, steps in CN_SIZES:
        nodes, crossings = crank_nicolson[n, steps]
        scale = T / (crossings[1] - crossings[0])
        track = track_trajectory(cfg, CN_STATE, NodeKind.DENSITY_MINIMUM, 0.0, 2.0 * T * scale,
                                 2 * CN_SAMPLES + 1)
        present = ~np.isnan(track.positions)
        changes = np.flatnonzero(present[:-1] != present[1:])
        far = np.ones(len(present), bool)
        far[changes] = far[changes + 1] = False
        assert (~np.isnan(nodes) == present)[far].all()
        both = far & present
        err = np.abs(nodes[both] - track.positions[both]) / cfg.width_a
        assert (err <= CN_POSITION_C * (solves[n].h / cfg.width_a) ** 2).all()
