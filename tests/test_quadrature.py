"""Batched and averaged cycle maps against plain per-node loops.

The oracles below build every map one quadrature node (or one time) at a
time, with Kronecker-product rest weights, a fresh einsum per node and the
two parity-sector projectors, so they share no batching or path caching with
the engines.  The engines average over uniform random times in closed form;
a converged Gauss-Legendre rule of the loop oracle must agree with them to
1e-13 relative, or 1e-12 at 4096 nodes, whose serial sum rounds more.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm

from kelvin import analytic as an
from kelvin import cm, fock
from kelvin import protocol as pr
from kelvin.model import (
    BathSpec,
    CouplingScheme,
    ModelParams,
    NoiseSpec,
    block_hamiltonian,
    dispersion,
)
from oracles import noise_transfer, physical_sector, uniform_average

REL_TOL = 1e-13
N_SITES = 8
N2 = N_SITES // 2


def _loop_rest_weights(fb, p, sign=1.0):
    """Rest weights as a Kronecker product, one traced-out mode at a time."""
    n_bath = 1 if fb.block.is_edge else 2
    w = np.ones(1)
    for m in range(fb.n_modes - fb.n_sys_modes):
        if m < n_bath:
            pair = np.array([1.0 - p, sign * p])
        else:
            p_env = (1.0 - fb.block.env.p_e) / 2.0
            pair = np.array([1.0 - p_env, p_env])
        w = np.kron(w, pair)
    return w


def _loop_transfer(fb, u, w):
    ds, dr = fb.d_sys, fb.d_rest
    u4 = u.reshape(ds, dr, ds, dr)
    return np.einsum("ibxm,jbym,m->ijxy", u4, u4.conj(), w).reshape(ds * ds, ds * ds)


def _loop_cycle_map(fb, t, kappa):
    """One cycle at time t; gain/loss noise of rate kappa resolved by sector."""
    u = fb.propagators([t])[0]
    if kappa == 0.0:
        return _loop_transfer(fb, u, _loop_rest_weights(fb, 0.0))
    p = 0.5 * (1.0 - math.exp(-2.0 * kappa * t))
    plus = _loop_transfer(fb, u, _loop_rest_weights(fb, p))
    minus = _loop_transfer(fb, u, _loop_rest_weights(fb, p, sign=-1.0))
    par = np.array([bin(i).count("1") % 2 for i in range(fb.d_sys)])
    p_diag = np.diag(np.equal.outer(par, par).reshape(-1).astype(float))
    p_off = np.eye(fb.d_sys**2) - p_diag
    return (plus @ p_diag + minus @ p_off) @ noise_transfer(fb.n_sys_modes, kappa, t)


def _nodes(t_mean, nodes, panels=1):
    """Composite Gauss-Legendre rule on [0, 2 t_mean]: `panels` equal panels of
    `nodes` nodes each, with weights summing to one."""
    x, w = leggauss(nodes)
    h = 2.0 * t_mean / panels
    ts = np.concatenate([h * (p + (x + 1.0) / 2.0) for p in range(panels)])
    return ts, np.tile(w / (2.0 * panels), panels)


def _loop_averaged_map(fb, t_mean, kappa, nodes, panels=1):
    ts, w = _nodes(t_mean, nodes, panels)
    return sum(w_i * _loop_cycle_map(fb, t_i, kappa) for t_i, w_i in zip(ts, w))


def _loop_averaged_kron(mb, t_mean, kappa, nodes, panels=1):
    ts, w = _nodes(t_mean, nodes, panels)
    e, v = np.linalg.eigh(mb.generator)
    k_s = np.zeros((4, 4), dtype=complex)
    k_sb = np.zeros((4, 4), dtype=complex)
    for w_i, t_i in zip(w, ts):
        u = (v * np.exp(-1j * e * t_i)) @ v.conj().T
        damp = math.exp(-2.0 * kappa * t_i)
        k_s += w_i * damp * np.kron(u[:2, :2], u[:2, :2].conj())
        k_sb += w_i * damp * np.kron(u[:2, 2:4], u[:2, 2:4].conj())
    return k_s, k_sb


def _rel_err(actual, expected):
    return np.max(np.abs(actual - expected)) / np.max(np.abs(expected))


def _assert_rel_close(actual, expected, tol=REL_TOL):
    assert _rel_err(actual, expected) <= tol


def _scheme(g):
    return CouplingScheme(nn=1, lam={-1: 0.3, 0: 1.0, 1: -0.7},
                          mu={-1: 0.2, 0: 0.5, 1: 0.9}, g=g)


def _block(k, dsp=False, env=None):
    return block_hamiltonian(ModelParams(N_SITES, 1.0), _scheme(0.25), BathSpec(1.1, 4.3),
                             k, env=env, dsp=dsp)


# generic pair, both edges, and a generic pair with the splitting removed
_BLOCKS = {"generic": (2, False), "edge0": (0, False), "edgeN2": (N2, False),
           "dsp": (3, True)}
_KAPPAS = [0.0, 1e-9, 1e-3]
# an environment edge and pair, whose maps are defined without gain/loss noise
_ENV = NoiseSpec.finite_env(0.02, 0.7, 0.1)
_ENV_BLOCKS = {"env_edge": (0, False, _ENV), "env_pair": (2, False, _ENV)}
# The oracle splits [0, 2 t_mean] into this many panels.  Each panel gets
# max(6, 96 / panels) nodes, converged to rounding at t_mean = 4.3: the
# closed form must match every subdivision of the interval.
_PANELS = [1, 2, 7, 96]


def _panel_nodes(panels):
    return max(6, -(-96 // panels))


# A long cycle: 2 t_mean max|e_p - e_q| is 811 for the generic pair's Fock
# spectrum and 559 for its generator, so a 96-node rule is off by more than
# 1e-4, while 4096 nodes (64 panels of 64, cheaper to generate than one
# 4096-node rule) converge.
_LONG_T = 96.0


class TestFockMaps:
    @pytest.mark.parametrize("panels", _PANELS)
    @pytest.mark.parametrize("block, kappa", [(b, k) for b in _BLOCKS for k in _KAPPAS]
                             + [(b, 0.0) for b in _ENV_BLOCKS])
    def test_averaged_map_matches_node_loop(self, block, kappa, panels):
        fb = fock.second_quantize(_block(*{**_BLOCKS, **_ENV_BLOCKS}[block]))
        s = fock.averaged_cycle_map(fb, 4.3, kappa=kappa)
        _assert_rel_close(s, physical_sector(
            _loop_averaged_map(fb, 4.3, kappa, _panel_nodes(panels), panels)))

    def test_long_cycle_matches_converged_loop(self):
        fb = fock.second_quantize(_block(2))
        s = fock.averaged_cycle_map(fb, _LONG_T, kappa=1e-3)
        _assert_rel_close(s, physical_sector(_loop_averaged_map(fb, _LONG_T, 1e-3, 64, 64)), 1e-12)
        assert _rel_err(s, physical_sector(_loop_averaged_map(fb, _LONG_T, 1e-3, 96))) > 1e-4

    @pytest.mark.parametrize("kappa", _KAPPAS)
    @pytest.mark.parametrize("block", _BLOCKS)
    def test_zero_mean_time_is_the_map_at_zero(self, block, kappa):
        fb = fock.second_quantize(_block(*_BLOCKS[block]))
        _assert_rel_close(fock.averaged_cycle_map(fb, 0.0, kappa=kappa),
                          fock.exact_cycle_map(fb, 0.0, kappa))

    @pytest.mark.parametrize("t", [0.0, 2.7, 9.1])
    @pytest.mark.parametrize("block", _BLOCKS)
    def test_single_time_maps_match_loop(self, block, t):
        fb = fock.second_quantize(_block(*_BLOCKS[block]))
        for kappa in _KAPPAS:
            _assert_rel_close(fock.exact_cycle_map(fb, t, kappa),
                              physical_sector(_loop_cycle_map(fb, t, kappa)))

    @pytest.mark.parametrize("k", [0, 2])
    def test_finite_environment_map_matches_loop(self, k):
        fb = fock.second_quantize(_block(k, env=NoiseSpec.finite_env(0.02, 0.7, 0.1)))
        _assert_rel_close(fock.exact_cycle_map(fb, 2.7),
                          physical_sector(_loop_cycle_map(fb, 2.7, 0.0)))


class TestCmAveragedKron:
    @pytest.mark.parametrize("panels", _PANELS)
    @pytest.mark.parametrize("kappa", _KAPPAS)
    @pytest.mark.parametrize("block", _BLOCKS)
    def test_matches_node_loop(self, block, kappa, panels):
        mb = _block(*_BLOCKS[block])
        k_s, k_sb = cm.averaged_evolution_kron(mb, 4.3, kappa=kappa)
        ref_s, ref_sb = _loop_averaged_kron(mb, 4.3, kappa, _panel_nodes(panels), panels)
        _assert_rel_close(k_s, ref_s)
        _assert_rel_close(k_sb, ref_sb)

    def test_long_cycle_matches_converged_loop(self):
        mb = _block(2)
        k_s, k_sb = cm.averaged_evolution_kron(mb, _LONG_T, kappa=1e-3)
        ref_s, ref_sb = _loop_averaged_kron(mb, _LONG_T, 1e-3, 64, 64)
        _assert_rel_close(k_s, ref_s, 1e-12)
        _assert_rel_close(k_sb, ref_sb, 1e-12)
        assert _rel_err(k_s, _loop_averaged_kron(mb, _LONG_T, 1e-3, 96)[0]) > 1e-4

    @pytest.mark.parametrize("kappa", _KAPPAS)
    @pytest.mark.parametrize("block", _BLOCKS)
    def test_zero_mean_time_is_the_map_at_zero(self, block, kappa):
        """At t_mean = 0 the averaged transfer is the transfer at t = 0: the
        identity on x = (1, vec gamma) for a pair, and for an edge the
        projector onto the 1 and its physical direction (`cm.cycle_maps`)."""
        mb = _block(*_BLOCKS[block])
        k_s, k_sb = cm.averaged_evolution_kron(mb, 0.0, kappa=kappa)
        k_0 = next(cm.cycle_maps(mb, [0.0], 0.0, 0.0))
        _assert_rel_close(next(cm.cycle_maps(mb, [None], 0.0, kappa)), k_0)
        _assert_rel_close(k_0, cm._EDGE_PROJECTOR if mb.is_edge else np.eye(5))
        _assert_rel_close(k_s, np.eye(4))
        assert np.max(np.abs(k_sb)) <= REL_TOL


    @pytest.mark.parametrize("kind", ["generic", "edge", "dsp"])
    def test_unitarity_survives_the_average(self, kind):
        """K_S vec(I) + K_SB vec(I) = uniform_average(4 kappa t_mean) vec(I).

        The propagator's system rows are orthonormal at every time, A_S A_S^dag
        + A_SB A_SB^dag = I, so their damped random-time average is
        E[e^{-2 kappa t}] I, over seeded random stacks with g log-uniform in
        [1e-6, 1]."""
        rng = np.random.default_rng({"generic": 21, "edge": 22, "dsp": 23}[kind])
        vid = np.eye(2).reshape(-1)
        for _ in range(25):
            n = int(rng.choice([8, 10, 12]))
            ks = np.array([0, n // 2]) if kind == "edge" else rng.integers(1, n // 2, size=3)
            scheme = CouplingScheme(nn=1, lam={j: float(rng.uniform(-1, 1)) for j in (-1, 0, 1)},
                                    mu={j: float(rng.uniform(-1, 1)) for j in (-1, 0, 1)},
                                    g=10.0 ** rng.uniform(-6.0, 0.0))
            stack = block_hamiltonian(ModelParams(n, float(rng.uniform(0.0, math.pi / 2))),
                                      scheme, BathSpec(float(rng.uniform(0.2, 3.0)), 1.0), ks,
                                      dsp=kind == "dsp")
            t_mean = float(rng.uniform(0.1, 40.0))
            for kappa in (0.0, 1e-9, 1e-3, 0.3):
                k_s, k_sb = cm.averaged_evolution_kron(stack, t_mean, kappa=kappa)
                expect = uniform_average(4.0 * kappa * t_mean) * vid
                assert np.max(np.abs(k_s @ vid + k_sb @ vid - expect)) <= 1e-13, (kappa, t_mean)


def _fixed_time_kron(mb, t, kappa):
    """The kron blocks D A_B (x) A_B* (B, 4, 4) of one block at time t, with A_B
    cut from a dense propagator."""
    u = expm(-1j * t * mb.generator)
    return math.exp(-2.0 * kappa * t) * np.stack(
        [np.kron(u[:2, b:b + 2], u[:2, b:b + 2].conj()) for b in range(0, len(u), 2)])


def _unprojected_transfer(kron, mb):
    """The transfer [[1, 0], [c, K]] on x = (1, vec gamma) of kron blocks K_B,
    before `cm.cycle_maps` projects an edge's."""
    injection = kron[1] if mb.env is None else kron[1] + mb.env.p_e * (kron[2] + kron[3])
    t = np.zeros((5, 5), dtype=complex)
    t[0, 0] = 1.0
    t[1:, 1:], t[1:, 0] = kron[0], injection @ cm.vacuum_cm().reshape(-1)
    return t


class TestCmEdgeProjection:
    """An edge's CM transfer leaves the span of the 1 and its physical
    direction invariant, (I - P) T P = 0, so projecting each subcycle's
    transfer (`cm.cycle_maps`) gives the projected product of the transfers,
    P T_2 P P T_1 P = P T_2 T_1 P."""

    @pytest.mark.parametrize("noise", ["none", "depolarizing", "finite_env"])
    @pytest.mark.parametrize("theta", [math.pi / 4, 1.0], ids=["gapless", "generic"])
    def test_edge_transfers_keep_the_physical_span(self, theta, noise):
        kappa = 1e-3 if noise == "depolarizing" else 0.0
        p = cm._EDGE_PROJECTOR
        for k in (0, N2):
            mb = block_hamiltonian(ModelParams(N_SITES, theta), _scheme(0.25), BathSpec(1.1, 4.3),
                                   k, env=_ENV if noise == "finite_env" else None)
            krons = [cm.averaged_evolution_kron(mb, 4.3, kappa=kappa)]
            krons += [_fixed_time_kron(mb, t, kappa) for t in (0.7, 4.3, 11.0)]
            for kron in krons:
                leak = (np.eye(5) - p) @ _unprojected_transfer(kron, mb) @ p
                assert np.max(np.abs(leak)) <= 2e-15, k


def _loop_steady_energies(params, scheme, bath, noise, engine, dsp, nodes):
    """Per-mode E_k of the randomized-time ensemble limit, one node at a time."""
    n2 = params.N // 2
    energies = []
    for k in range(n2 + 1):
        mb = block_hamiltonian(params, scheme, bath, k, dsp=dsp)
        eps = dispersion(params.theta, params.N, k)
        weight = 0.5 if k in (0, n2) else 1.0
        if engine == "fock":
            fb = fock.second_quantize(mb)
            rho, _ = fock.steady_state(physical_sector(
                _loop_averaged_map(fb, bath.cycle_time_mean, noise.kappa, nodes)))
            energies.append(fock.block_energy(rho, eps, weight)[0])
        else:
            k_s, k_sb = _loop_averaged_kron(mb, bath.cycle_time_mean, noise.kappa, nodes)
            inj = k_sb @ cm.vacuum_cm().reshape(-1)
            gamma = np.linalg.solve(np.eye(4) - k_s, inj).reshape(2, 2)
            energies.append(cm.cm_energy(gamma, eps, weight))
    return np.array(energies)


class TestSteadyReportAgainstLoop:
    """Ensemble-limit steady energies against fixed points of the loop maps.

    The fixed point's condition number is ~1/alpha, so E_k may move by a few
    rounding errors of the map over the gap: |dE_k| <= 1e-14 |eps_k| / alpha_k.
    """

    @pytest.mark.parametrize("dsp", [False, True])
    @pytest.mark.parametrize("kappa", _KAPPAS)
    @pytest.mark.parametrize("engine", ["fock", "cm"])
    @pytest.mark.parametrize("theta,g", [(0.3, 0.05), (1.0, 0.05), (1.0, 2e-3)])
    def test_mode_energies_match_loop(self, theta, g, engine, kappa, dsp):
        params = ModelParams(N_SITES, theta)
        scheme = _scheme(g)
        bath = BathSpec(1.1, 4.3)
        noise = an.NoiseSpec.depolarizing(kappa) if kappa else an.NoiseSpec.none()
        rep = pr.steady_report(params, scheme, bath, {"kind": "randomized", "L": 10},
                               noise=noise, engine=engine, dsp=dsp)
        ref = _loop_steady_energies(params, scheme, bath, noise, engine, dsp, 96)
        bound = 1e-14 * np.abs(rep.epsilon) / rep.alpha
        assert np.all(np.abs(rep.mode_energy - ref) <= bound)


def _gain_loss_generator(n_modes):
    """Unit-rate gain/loss Liouvillian on row-major vec, built term by term."""
    d = 2**n_modes
    eye = np.eye(d)
    gen = np.zeros((d * d, d * d), dtype=complex)
    for a in fock.mode_operators(n_modes):
        for o in (a, a.conj().T):
            n_op = o.conj().T @ o
            gen += np.kron(o, o.conj()) - 0.5 * (np.kron(n_op, eye) + np.kron(eye, n_op.T))
    return gen


def _random_block(rng, kind):
    """A seeded random generic pair, edge or dsp pair block."""
    n = int(rng.choice([8, 10, 12]))
    k = {"generic": int(rng.integers(1, n // 2)), "dsp": int(rng.integers(1, n // 2)),
         "edge": int(rng.choice([0, n // 2]))}[kind]
    scheme = CouplingScheme(nn=1, lam={j: float(rng.uniform(-1, 1)) for j in (-1, 0, 1)},
                            mu={j: float(rng.uniform(-1, 1)) for j in (-1, 0, 1)},
                            g=float(rng.uniform(0.01, 1.0)))
    return block_hamiltonian(ModelParams(n, float(rng.uniform(0.0, math.pi / 2))), scheme,
                             BathSpec(float(rng.uniform(0.2, 3.0)), 1.0), k,
                             dsp=kind == "dsp")


class TestPostNoiseIdentity:
    """The noisy cycle is the noiseless one followed by the system noise.

    T_kappa(t) = N_sys(t) T_0(t) C(t), with C = e^{-2 n_bath kappa t} on the
    parity-off-diagonal columns, over random blocks, kappa log-uniform in
    [1e-9, 0.3] and t in [0, 40]: on the whole operator space for the loop
    maps, and on the physical sector, where C = 1, for the engine's.  N_sys
    is exponentiated from the generator built here, independently of
    `oracles.noise_transfer`.
    """

    @pytest.mark.parametrize("kind", ["generic", "edge", "dsp"])
    def test_noisy_map_is_system_noise_after_noiseless_map(self, kind):
        from scipy.linalg import expm

        rng = np.random.default_rng({"generic": 11, "edge": 12, "dsp": 13}[kind])
        for _ in range(100):
            fb = fock.second_quantize(_random_block(rng, kind))
            kappa = 10.0 ** rng.uniform(-9.0, math.log10(0.3))
            t = float(rng.uniform(0.0, 40.0))
            n_sys = fb.n_sys_modes
            par = np.array([bin(i).count("1") % 2 for i in range(fb.d_sys)])
            diag = np.equal.outer(par, par).reshape(-1)
            n_sys_map = expm(kappa * t * _gain_loss_generator(n_sys))
            _assert_rel_close(noise_transfer(n_sys, kappa, t), n_sys_map)
            damp = np.where(diag, 1.0, math.exp(-2.0 * n_sys * kappa * t))
            loop = _loop_cycle_map(fb, t, kappa)
            _assert_rel_close(loop, n_sys_map @ (_loop_cycle_map(fb, t, 0.0) * damp))
            noisy = fock.exact_cycle_map(fb, t, kappa)
            _assert_rel_close(noisy, physical_sector(n_sys_map) @ fock.exact_cycle_map(fb, t))
            _assert_rel_close(noisy, physical_sector(loop))


class TestStackedCycleMaps:
    """Each row of `fock.cycle_maps` over a chunk of blocks is exactly the
    single-block map, so a chunked steady report solves the same maps."""

    T_MEAN = 4.3
    TIMES = [0.0, 2.7, 9.1, None]

    def _check(self, ks, kappa, t_mean, single, dsp):
        maps = dict(zip(self.TIMES,
                        fock.cycle_maps(_block(np.array(ks), dsp=dsp), self.TIMES, t_mean, kappa)))
        assert set(maps) == set(self.TIMES)
        for t, k_s in maps.items():
            assert k_s.shape[0] == len(ks)
            for row, k in zip(k_s, ks):
                assert np.array_equal(row, single(_block(k, dsp=dsp), t)), t

    @pytest.mark.parametrize("t_mean", [1, 2, 7, 96])
    @pytest.mark.parametrize("kappa", _KAPPAS)
    @pytest.mark.parametrize("ks, dsp", [([1, 2, 3], False), ([1, 3], True), ([0, N2], False)],
                             ids=["pairs", "dsp", "edges"])
    def test_rows_equal_single_block_maps(self, ks, dsp, kappa, t_mean):
        def single(blk, t):
            if t is None:
                return fock.averaged_cycle_map(blk, t_mean, kappa)
            return fock.exact_cycle_map(blk, t, kappa)

        self._check(ks, kappa, t_mean, single, dsp)

    @pytest.mark.parametrize("kappa", _KAPPAS)
    @pytest.mark.parametrize("ks, dsp", [([1, 2, 3], False), ([1, 3], True), ([0, N2], False)],
                             ids=["pairs", "dsp", "edges"])
    def test_averaged_map_broadcasts_over_modes(self, ks, dsp, kappa):
        """One `averaged_cycle_map` call on the stacked eigenbases gives the
        per-mode maps `cycle_maps` stacks, bit for bit."""
        blk = _block(np.array(ks), dsp=dsp)
        fb = fock.FockBlock(fock._hamiltonians(blk), blk)
        assert np.array_equal(fock.averaged_cycle_map(fb, self.T_MEAN, kappa),
                              next(fock.cycle_maps(blk, [None], self.T_MEAN, kappa)))

    @pytest.mark.parametrize("ks", [[1, 2], [0, N2]], ids=["pairs", "edges"])
    def test_finite_environment_rows(self, ks):
        env = NoiseSpec.finite_env(0.02, 0.7, 0.1)
        k_s = next(fock.cycle_maps(_block(np.array(ks), env=env), [2.7], self.T_MEAN, 0.0))
        for row, k in zip(k_s, ks):
            assert np.array_equal(row, fock.exact_cycle_map(_block(k, env=env), 2.7))
