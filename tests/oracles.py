"""Reference helpers that only the tests use.

`phase_average` is the one-theta-at-a-time phase integral that the package's
stacked `objective_phase_averaged` must reproduce bit for bit, and
`phase_averaged_on` evaluates that objective on a grid of any size.  The
Choi helpers check complete positivity of the exact engines' cycle maps.

The four steady-energy formulas (`general_ss_energy`, `noisy_ss_energy`,
`dsp_ss_energy`, `finite_env_ss_energy`) are the per-case closed forms that
`analytic.steady_energy` replaces, kept word for word so that the
closed-form grid tests can compare the package with them under `==`;
`lorentzian_rates` is the Lorentzian line shape that approximates
`analytic.averaged_rates`.

The rest are independent references for the exact engines: `vec` and
`apply_transfer` step a density through a transfer matrix, and
`physical_sector` cuts a transfer matrix down to the sector the Fock
engine's `cycle_maps` yields; `full_space_averaged_map`, the Fock
random-time average built on the whole operator space from a Fock-basis
eigenbasis and its own gain/loss projectors, which
`fock.averaged_cycle_map`'s sector builder must match; the CM
conversions `density_to_cm` and `cm_to_density`; the Dyson blocks of the
quadrature-basis propagator (`quadrature_couplings`, `perturbative_blocks`,
`omega_basis_generator`); the Majorana-picture noise check
(`bravyi_noise_matrices`, `majorana_damping_check`, with the block
propagators `propagators`); the joint-Lindbladian
check of the Fock engine's noise factorization (`noise_factorization_gap`);
`maximally_mixed_density`; the physical-state checks of per-mode blocks
(`check_cm_blocks`, `check_density_blocks`); `steady_blocks`, the per-mode
steady states that `protocol.steady_report` reduces; and the decay-rate
fit and product-state distance of small chains (`rate_from_decay`, which
raises `FitQualityError`, and `product_state_distance`).  `mode_values` reads one mode's eps, phi, A and
B from the grids a block is built from.
"""

import functools
import itertools
import math
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from kelvin import optimize
from kelvin import protocol as pr
from kelvin._linalg import HERMITICITY_ATOL, hermitize, trace_norm, uniform_average
from kelvin.analytic import GAMMA0_SQ_FACTOR
from kelvin.errors import KelvinError, ResonantDenominator, UndefinedSteadyState
from kelvin.fock import _vec_sectors, exact_cycle_map, mode_operators, second_quantize
from kelvin.model import ModeBlock, NoiseSpec, coupling_arrays, mode_grid
from kelvin.optimize import PHASE_NODES, phase_grid


def mode_values(params, scheme, k: int) -> tuple[float, float, complex, complex]:
    """(eps_k, phi_k, A_k, B_k) of mode k as Python scalars: row k of
    `mode_grid` and `coupling_arrays`, which `block_hamiltonian` builds the
    block of k from."""
    _, eps, phi, _ = mode_grid(params)
    a, b = coupling_arrays(scheme, params)
    return eps[k].item(), phi[k].item(), a[k].item(), b[k].item()


def propagators(generators: np.ndarray, ts) -> np.ndarray:
    """e^{-iGt} for every time in `ts` and every stacked generator G, shape
    (len(ts),) + generators.shape, from one batched eigendecomposition."""
    e, v = np.linalg.eigh(generators)
    phases = np.exp(-1j * np.asarray(ts, dtype=float).reshape((-1,) + (1,) * e.ndim) * e)
    return (v * phases[..., None, :]) @ v.conj().swapaxes(-1, -2)


def phase_average(evaluator, phase: str, n_nodes: int = PHASE_NODES) -> float:
    """Composite-trapezoid integral of evaluator(theta) over the phase."""
    thetas = phase_grid(phase, n_nodes)
    vals = np.array([evaluator(float(th)) for th in thetas])
    return float(np.trapezoid(vals, thetas))


def phase_averaged_on(n_nodes: int, pv, phase: str, n_sites: int,
                      noise: NoiseSpec = NoiseSpec.none(), *, dsp: bool = False) -> float:
    """`optimize.objective_phase_averaged` on an n_nodes-point phase grid: the
    objective takes its nodes from `optimize.phase_grid(phase)`, which is
    rebound to the n_nodes grid for this one call."""
    optimize.phase_grid = lambda ph: phase_grid(ph, n_nodes)
    try:
        return optimize.objective_phase_averaged(pv, phase, n_sites, noise, dsp=dsp)
    finally:
        optimize.phase_grid = phase_grid


def choi_from_transfer(t: np.ndarray) -> np.ndarray:
    """Choi matrix (unnormalized) of a transfer matrix in row-major vec.

    C[(m,i),(n,j)] = S(|m><n|)_{ij} = T[(i,j),(m,n)].
    """
    d2 = t.shape[0]
    d = int(round(np.sqrt(d2)))
    t4 = t.reshape(d, d, d, d)  # (i, j, m, n)
    c = np.transpose(t4, (2, 0, 3, 1))  # (m, i, n, j)
    return c.reshape(d2, d2)


def choi_min_eig(t: np.ndarray) -> float:
    c = choi_from_transfer(t)
    return float(np.linalg.eigvalsh(hermitize(c)).min())


# ---------------------------------------------------------------------------
# the per-case steady-energy closed forms
# ---------------------------------------------------------------------------

def general_ss_energy(epsilon, a_k, b_k, x, y):
    """Noiseless per-pair steady energy eps (|By|^2 - |Ax|^2)/(|Ax|^2 + |By|^2)."""
    ax2 = np.abs(np.asarray(a_k) * np.asarray(x)) ** 2
    by2 = np.abs(np.asarray(b_k) * np.asarray(y)) ** 2
    denom = ax2 + by2
    if np.any(denom <= 0):
        raise UndefinedSteadyState("|Ax|^2 + |By|^2 vanishes")
    return np.asarray(epsilon, dtype=float) * (by2 - ax2) / denom


def noisy_ss_energy(epsilon, a_k, b_k, x, y, kappa: float, t: float):
    """Depolarizing-noise steady energy; 2 kappa t pads the denominator."""
    ax2 = np.abs(np.asarray(a_k) * np.asarray(x)) ** 2
    by2 = np.abs(np.asarray(b_k) * np.asarray(y)) ** 2
    return np.asarray(epsilon, dtype=float) * (by2 - ax2) / (ax2 + by2 + 2.0 * kappa * t)


def dsp_ss_energy(epsilon, a_k, b_k):
    """Steady energy with the system Hamiltonian switched off during cycles."""
    a2 = np.abs(np.asarray(a_k)) ** 2
    b2 = np.abs(np.asarray(b_k)) ** 2
    denom = a2 + b2
    if np.any(denom <= 0):
        raise UndefinedSteadyState("|A|^2 + |B|^2 vanishes")
    return np.asarray(epsilon, dtype=float) * (b2 - a2) / denom


def finite_env_ss_energy(epsilon, bath_terms, env_terms, p_e: float):
    """Steady energy with one engineered bath and one uncontrolled environment.

    Each of bath_terms and env_terms is (A, x, B, y); the bath carries
    polarization 1, the environment p_e.
    """
    a_b, x_b, b_b, y_b = bath_terms
    a_e, x_e, b_e, y_e = env_terms
    axb = np.abs(np.asarray(a_b) * np.asarray(x_b)) ** 2
    byb = np.abs(np.asarray(b_b) * np.asarray(y_b)) ** 2
    axe = np.abs(np.asarray(a_e) * np.asarray(x_e)) ** 2
    bye = np.abs(np.asarray(b_e) * np.asarray(y_e)) ** 2
    denom = axb + byb + axe + bye
    if np.any(denom <= 0):
        raise UndefinedSteadyState("total overlap weight vanishes")
    num = 1.0 * (byb - axb) + p_e * (bye - axe)
    return np.asarray(epsilon, dtype=float) * num / denom


def lorentzian_rates(epsilon, delta, t: float, g: float, a2, b2):
    """Lorentzian approximation of `analytic.averaged_rates`: cooling line
    2 g^2 A2 / ((eps - delta)^2 + gamma_0^2) with gamma_0^2 = 3/(2 t^2), and
    heating 2 g^2 B2 / (eps + delta)^2 without gamma_0 (cooling limit)."""
    epsilon = np.asarray(epsilon, dtype=float)
    g0sq = GAMMA0_SQ_FACTOR / (t * t)
    gc = 2.0 * g * g * np.asarray(a2, dtype=float) / ((epsilon - delta) ** 2 + g0sq)
    gh = 2.0 * g * g * np.asarray(b2, dtype=float) / (epsilon + delta) ** 2
    return gc, gh


# ---------------------------------------------------------------------------
# vectorized densities
# ---------------------------------------------------------------------------

def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho).reshape(-1)


def apply_transfer(t: np.ndarray, rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    return (t @ vec(rho)).reshape(d, d)


def physical_sector(t: np.ndarray) -> np.ndarray:
    """A transfer matrix on row-major vec(rho) restricted to the physical
    (parity-diagonal) sector, in the order of `fock.cycle_maps`."""
    sector = _vec_sectors(math.isqrt(len(t)))[0]
    return t[np.ix_(sector, sector)]


# ---------------------------------------------------------------------------
# correlation matrices and Dyson blocks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=2)
def _pair_moment_ops():
    a1, a2 = mode_operators(2)
    return a1.conj().T @ a1, a2.conj().T @ a2, a1 @ a2


def density_to_cm(rho: np.ndarray) -> np.ndarray:
    """System CM of a block density matrix (generic 4x4 or edge 2x2)."""
    if rho.shape[0] == 2:
        n = rho[1, 1].real
        return np.diag([0.5 - n, n - 0.5]).astype(complex)
    n1_op, n2_op, pair_op = _pair_moment_ops()
    n1 = np.trace(rho @ n1_op).real
    n2 = np.trace(rho @ n2_op).real
    c = np.trace(rho @ pair_op)
    return np.array([[0.5 - n1, c], [np.conj(c), n2 - 0.5]], dtype=complex)


def cm_to_density(gamma: np.ndarray, edge: bool) -> np.ndarray:
    """Reconstruct the Gaussian block density matrix from its system CM.

    Wick's theorem fixes the double occupancy: <n_+ n_-> = n_+ n_- + |c|^2
    with c = <a_+ a_->; parity-even Gaussian blocks have no other freedom.
    """
    if edge:
        n = 0.5 + gamma[1, 1].real
        m = np.diag([1.0 - n, n]).astype(complex)
        return np.clip(m.real, 0, None).astype(complex)
    n1 = 0.5 - gamma[0, 0].real
    n2 = 0.5 + gamma[1, 1].real
    c = complex(gamma[0, 1])
    r = n1 * n2 + abs(c) ** 2
    q = n1 - r
    p = n2 - r
    m0 = 1.0 - p - q - r
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = m0, p, q, r
    rho[0, 3] = -np.conj(c)
    rho[3, 0] = -c
    return rho


def quadrature_couplings(params, scheme, k: int) -> tuple[complex, complex]:
    """Coupling combinations (f_k, p_k) used by the quadrature-basis expansion."""
    _, phi, a, b = mode_values(params, scheme, k)
    # f = -e^{i phi} sum (lam_j + mu_j) e^{-i 2 pi j k / N} and
    # p = e^{-i phi} sum (lam_j - mu_j) e^{-i 2 pi j k / N}; recover the sums
    # from (A, B): lam-sum = cos(phi)A - sin(phi)B parts.
    c, s = math.cos(phi), math.sin(phi)
    lam_sum = c * a - s * b        # sum lam_j e^{-i phi_k j}
    mu_sum = (s * a + c * b) / 1j  # sum mu_j e^{-i phi_k j}
    f = -np.exp(1j * phi) * (lam_sum + mu_sum)
    p = np.exp(-1j * phi) * (lam_sum - mu_sum)
    return complex(f), complex(p)


def perturbative_blocks(epsilon: float, g: float, delta: float, t: float,
                        f_k: complex, p_k: complex):
    """Closed-form Dyson blocks (A_S^0, A_SB^1, A_S^2, Q) at internal time T = 2t.

    The blocks expand the quadrature-basis propagator P(T) = exp(+i h T):
    P_SS = A_S^0 + g^2 A_S^2 + O(g^4) and P_SB = g A_SB^1 + O(g^3).  Only
    |A_SB^1| enters steady-state energies, so the overall sign of the odd
    block is a convention.  Valid away from the resonant denominator
    eps^2 = delta^2; callers hitting it must use the exact engines.
    """
    if abs(epsilon**2 - delta**2) < 1e-9:
        raise ResonantDenominator(f"eps^2 - delta^2 = {epsilon**2 - delta**2:.2e}")
    T = 2.0 * t
    ce, se = math.cos(epsilon * T), math.sin(epsilon * T)
    cd, sd = math.cos(delta * T), math.sin(delta * T)
    x1 = (epsilon * p_k - delta * f_k) / (epsilon**2 - delta**2)
    x2 = -1j * (epsilon * f_k - delta * p_k) / (epsilon**2 - delta**2)

    a_s0 = np.array([[ce, se], [-se, ce]], dtype=complex)
    a_sb1 = -np.array(
        [[x1 * (cd - ce), x1 * sd + 1j * x2 * se],
         [x1 * se + 1j * x2 * sd, -1j * x2 * (cd - ce)]], dtype=complex)

    cross = 1j * f_k * np.conj(x2) - p_k * np.conj(x1)
    mag = abs(x1) ** 2 + abs(x2) ** 2
    im_term = (delta / epsilon) * se * np.imag(1j * x1 * np.conj(x2)) if epsilon != 0 else 0.0
    a11 = abs(x1) ** 2 * (cd - ce) + 0.5 * T * se * cross
    a12 = (1j * x1 * np.conj(x2) * sd - 0.5 * se * mag
           - 1j * im_term - cross * 0.5 * T * ce)
    a21 = (1j * x2 * np.conj(x1) * sd + 0.5 * se * mag
           - 1j * im_term + cross * 0.5 * T * ce)
    a22 = abs(x2) ** 2 * (cd - ce) + 0.5 * T * se * cross
    a_s2 = np.array([[a11, a12], [a21, a22]], dtype=complex)

    q = 2.0 * mag * (1.0 - cd * ce) + 4.0 * sd * se * np.imag(x1 * np.conj(x2))
    return a_s0, a_sb1, a_s2, float(np.real(q))


def omega_basis_generator(epsilon: float, g: float, delta: float,
                          f_k: complex, p_k: complex) -> np.ndarray:
    """Single-particle generator in the quadrature basis the Dyson blocks use."""
    return 1j * np.array(
        [[0, -epsilon, 0, g * f_k],
         [epsilon, 0, g * p_k, 0],
         [0, -g * np.conj(p_k), 0, -delta],
         [-g * np.conj(f_k), 0, delta, 0]], dtype=complex)


def bravyi_noise_matrices(n_modes: int, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """(M, Y) for uniform gain/loss noise in the Majorana covariance equation.

    In the convention d rho/dt = sum_mu (2 L rho L^dag - {L^dag L, rho}) with
    L linear in Majoranas, our rate-kappa gain/loss channel has M =
    (kappa/4) I and therefore Y = 4i(M* - M) = 0: the noise is pure damping.
    """
    m = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    for j in range(n_modes):
        for sign in (+1.0, -1.0):
            l = np.zeros(2 * n_modes, dtype=complex)
            l[2 * j] = 0.5 * math.sqrt(kappa / 2.0)
            l[2 * j + 1] = sign * 0.5j * math.sqrt(kappa / 2.0)
            m += np.outer(l, l.conj())
    y = 4j * (m.conj() - m)
    return m, y


def majorana_damping_check(block: ModeBlock, kappa: float, t: float,
                           gamma0: np.ndarray) -> np.ndarray:
    """Propagate a joint CM one noisy interval and confirm pure damping.

    Verifies M proportional to the identity (so Y = 0) and returns
    exp(-2 kappa t) U gamma0 U^dag, the damped unitary evolution of the full
    block CM.
    """
    n_modes = block.n_modes
    m, y = bravyi_noise_matrices(n_modes, kappa)
    if np.max(np.abs(m - m[0, 0] * np.eye(2 * n_modes))) > 1e-14:
        raise RuntimeError("noise M-matrix not proportional to identity")
    if np.max(np.abs(y)) > 1e-14:
        raise RuntimeError("noise Y-matrix does not vanish")
    u = propagators(block.generator, [t])[0]
    return math.exp(-2.0 * kappa * t) * (u @ gamma0 @ u.conj().T)


# ---------------------------------------------------------------------------
# Fock-space references
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _full_noise_projectors(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Rates r and projectors Pi_r = sum vec(c_S) vec(c_S)^dag / d (d^2 x d^2)
    of the unit-rate gain/loss generator, over the Majorana monomials c_S of
    rate r (q for an even degree q, 2n - q for an odd one)."""
    majoranas = [c for a in mode_operators(n_modes) for c in (a + a.conj().T, 1j * (a.conj().T - a))]
    proj: dict[int, np.ndarray] = {}
    for subset in itertools.product((False, True), repeat=2 * n_modes):
        mono = functools.reduce(np.matmul, itertools.compress(majoranas, subset),
                                np.eye(2**n_modes)).reshape(-1)
        q = sum(subset)
        rate = q if q % 2 == 0 else 2 * n_modes - q
        proj[rate] = proj.get(rate, 0) + np.outer(mono, mono.conj()) / 2**n_modes
    rates = np.array(sorted(proj))
    return rates, np.stack([proj[r] for r in rates])


def full_space_averaged_map(fb, t_mean: float, kappa: float = 0.0) -> np.ndarray:
    """Random-time average of a noiseless-bath Fock cycle on the whole
    operator space, the reference for `fock.averaged_cycle_map`.

    The parity eigenbasis is placed on the Fock basis (each eigenvector
    labelled by a Fock state of its parity), L_b[(i,x), a] = V[(i,b), a]
    V*[(x,0), a], and the map is sum_b L_b G L_b^dag with G_ab = (1 - e^{-z})
    / z, z = 2 t_mean (c kappa + i (E_a - E_b)), formed once per noise rate
    r: c = r on the even (parity-diagonal) columns and r + 2 n_bath on the
    odd ones, and the rate's projector applied after.
    """
    e_blocks, v_blocks = fb.eig()
    d = 2 * e_blocks.shape[-1]
    par = np.array([bin(f).count("1") % 2 for f in range(d)])
    classes = np.stack([np.flatnonzero(par == 0), np.flatnonzero(par == 1)])
    e = np.empty(d)
    e[classes] = e_blocks
    v = np.zeros((d, d), dtype=complex)
    v[classes[:, :, None], classes[:, None, :]] = v_blocks
    ds, dr = fb.d_sys, fb.d_rest
    v4 = v.reshape(ds, dr, -1)
    l_b = (v4[:, None] * v4[None, :, :1].conj()).reshape(ds * ds, dr, -1)
    if kappa > 0:
        rates, proj = _full_noise_projectors(fb.n_sys_modes)
    else:
        rates, proj = np.zeros(1), None
    odd = rates % 2 == 1
    c = (rates + 2 * fb.n_sys_modes * odd)[:, None, None]
    g = uniform_average(2.0 * t_mean * (c * kappa + 1j * np.subtract.outer(e, e)))
    # T[(i,j),(x,y)] = sum_k A[(i,x),k] B*[(j,y),k], A = L_b G and B = L_b
    maps = ((l_b @ g[:, None]).reshape(len(g), ds * ds, -1)
            @ l_b.reshape(ds * ds, -1).conj().T).reshape((len(g),) + (ds,) * 4)
    maps = maps.swapaxes(-3, -2).reshape(len(g), ds * ds, ds * ds)
    if proj is None:
        return maps[0]
    even = np.zeros(ds * ds, dtype=bool)
    even[_vec_sectors(ds)[0]] = True
    return (proj @ (maps * (even != odd[:, None])[:, None, :])).sum(axis=0)


def maximally_mixed_density(edge: bool) -> np.ndarray:
    d = 2 if edge else 4
    return np.eye(d, dtype=complex) / d


def check_density_blocks(blocks) -> None:
    """Raise ValueError unless `blocks` are physical densities of k = 0..len - 1:
    2x2 at the edges (k = 0 and the last), 4x4 elsewhere, each hermitian, of
    unit trace, positive semidefinite and without parity-violating coherence
    (an entry between basis states |n_k n_-k> of different parity)."""
    n2 = len(blocks) - 1
    for k, m in enumerate(blocks):
        d = 2 if k in (0, n2) else 4
        if m.shape != (d, d):
            raise ValueError(f"Fock block k={k} has shape {m.shape}, need ({d}, {d})")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_ATOL:
            raise ValueError(f"density block k={k} not hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise ValueError(f"density block k={k} trace {np.trace(m)!r} != 1")
        if np.linalg.eigvalsh(hermitize(m)).min() < -1e-10:
            raise ValueError(f"density block k={k} not positive semidefinite")
        parity = np.array([bin(i).count("1") % 2 for i in range(d)])
        if np.max(np.abs(m[parity[:, None] != parity]), initial=0.0) > 1e-12:
            raise ValueError(f"density block k={k} carries parity-violating coherence")


def check_cm_blocks(blocks) -> None:
    """Raise ValueError unless `blocks` are CMs of k = 0..len - 1: hermitian 2x2
    with spectrum in [-1/2, 1/2], the edges (first and last) diag(1/2 - n, n - 1/2)."""
    n2 = len(blocks) - 1
    for k, b in enumerate(blocks):
        if b.shape != (2, 2):
            raise ValueError(f"CM block k={k} has shape {b.shape}, need (2, 2)")
        if np.max(np.abs(b - b.conj().T)) > 1e-10:
            raise ValueError(f"CM block k={k} not hermitian")
        ev = np.linalg.eigvalsh(hermitize(b))
        if ev.min() < -0.5 - 1e-10 or ev.max() > 0.5 + 1e-10:
            raise ValueError(f"CM block k={k} spectrum {ev} outside [-1/2, 1/2]")
        if k in (0, n2) and max(abs(b[0, 1]), abs(b[1, 0]), abs(np.trace(b))) > 1e-10:
            raise ValueError(f"CM edge block k={k} is not diag(1/2 - n, n - 1/2)")


def steady_blocks(params, scheme, bath, descriptor: dict, noise: NoiseSpec = NoiseSpec.none(),
                  engine: str = "fock") -> list[np.ndarray]:
    """Per-mode steady blocks (d x d) over k = 0..N/2, solved as
    `protocol.steady_report` solves them before reducing: the schedule's
    global-cycle maps from `protocol._global_maps`, then the engine's stacked
    `fixed_points`, one call per group of its `mode_groups`, read through
    the engine's `matrices`."""
    eng = pr.ENGINES[engine]
    n2 = params.N // 2
    t_m = bath.cycle_time_mean if descriptor.get("kind", "single") == "single" else None
    subcycles = [(d, t_m) for d in pr.schedule_frequencies(descriptor, params, bath)]
    blocks = [None] * (n2 + 1)
    for ks in eng.mode_groups(n2):
        k_tot = pr._global_maps(params, scheme, noise, False, eng, ks,
                                bath.cycle_time_mean, subcycles)
        x = eng.fixed_points(k_tot, (ks == 0) | (ks == n2))[0]
        for k, block in zip(ks, eng.matrices(x)):
            blocks[k] = block
    return blocks


def noise_factorization_gap(block: ModeBlock, kappa: float, t: float) -> float:
    """Max 1-norm gap between the factorized noisy cycle and the joint Lindbladian.

    Propagates d rho/dt = -i[H, rho] + L_E(rho) on the full system+bath space
    by dense exponentiation, traces out the bath, and compares channel outputs
    on all matrix units of the system block.  Should vanish because the noise
    generator commutes with the quadratic unitary.
    """
    fb = second_quantize(block)
    d = 2**fb.n_modes
    ds, dr = fb.d_sys, fb.d_rest
    ops = mode_operators(fb.n_modes)
    eye = np.eye(d)
    liou = -1j * (np.kron(fb.hamiltonian, eye) - np.kron(eye, fb.hamiltonian.T))
    for a in ops:
        for o in (a, a.conj().T):
            n_op = o.conj().T @ o
            liou += kappa * (np.kron(o, o.conj())
                             - 0.5 * (np.kron(n_op, eye) + np.kron(eye, n_op.T)))
    prop = expm(liou * t)

    factorized = exact_cycle_map(fb, t, kappa)
    rho_b = np.zeros((dr, dr), dtype=complex)
    rho_b[0, 0] = 1.0
    gap = 0.0
    for m in range(ds):
        for n in range(ds):
            unit = np.zeros((ds, ds), dtype=complex)
            unit[m, n] = 1.0
            joint = np.kron(unit, rho_b)
            out = (prop @ vec(joint)).reshape(d, d)
            out_s = np.trace(out.reshape(ds, dr, ds, dr), axis1=1, axis2=3)
            gap = max(gap, trace_norm(out_s - apply_transfer(factorized, unit)))
    return gap


# ---------------------------------------------------------------------------
# decay rates and distances of small chains
# ---------------------------------------------------------------------------

class FitQualityError(KelvinError):
    """Exponential fit of a decay trace rejected; carries residual diagnostics."""

    def __init__(self, residual: float, message: str | None = None):
        self.residual = residual
        super().__init__(message or f"decay fit rejected (residual {residual:.3e})")


def rate_from_decay(cycles, distances, floor: float = 1e-13) -> float:
    """Least-squares slope of log(distance) vs cycle index.

    Raises FitQualityError when the tail is non-monotone beyond noise or the
    residual of the linear fit is large.
    """
    cyc = np.asarray(cycles, dtype=float)
    dist = np.asarray(distances, dtype=float)
    keep = dist > floor
    cyc, dist = cyc[keep], dist[keep]
    if len(cyc) < 3:
        raise FitQualityError(math.inf, "fewer than 3 usable points in decay trace")
    logd = np.log(dist)
    a, b = np.polyfit(cyc, logd, 1)
    resid = float(np.sqrt(np.mean((logd - (a * cyc + b)) ** 2)))
    if a >= 0 or resid > 0.1:
        raise FitQualityError(resid, f"decay fit slope {a:.3e}, residual {resid:.3e}")
    return -a


def product_state_distance(blocks_a, blocks_b) -> float:
    """Trace-norm distance between two product chain states (small chains)."""
    rho_a = np.array([[1.0]], dtype=complex)
    rho_b = np.array([[1.0]], dtype=complex)
    for a, b in zip(blocks_a, blocks_b):
        rho_a = np.kron(rho_a, a)
        rho_b = np.kron(rho_b, b)
    return trace_norm(rho_a - rho_b)
