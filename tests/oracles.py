"""Reference helpers that only the tests use.

`phase_average` is the one-theta-at-a-time phase integral that the package's
stacked `objective_phase_averaged` must reproduce bit for bit, and the Choi
helpers check complete positivity of the exact engines' cycle maps.
"""

import numpy as np

from kelvin._linalg import hermitize
from kelvin.optimize import PHASE_NODES, phase_grid


def phase_average(evaluator, phase: str, n_nodes: int = PHASE_NODES) -> float:
    """Composite-trapezoid integral of evaluator(theta) over the phase."""
    thetas = phase_grid(phase, n_nodes)
    vals = np.array([evaluator(float(th)) for th in thetas])
    return float(np.trapezoid(vals, thetas))


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
