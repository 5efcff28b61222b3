"""Built-in identity suite: verifies the series operator's algebraic
relations and the discretizer against independent oracles
(scipy's Pade/scaling-squaring exponential and composite Gauss-Legendre
quadrature). Used by the `validate` CLI command.

Each oracle reaches scipy through one stacked `expm` call per batch (the
panel width and node offsets of one integral, all matrices of the
exponential check, all periods of the discretize check); scipy runs the
same per-slice code for a stack as for a single matrix, so every slice has
the bits of the single call. The quadrature's panels share one width w, so
each node is tau = p w + c_j and e^(M tau) = E^p e^(M c_j) with E = e^(M w):
an integral needs 11 exponentials and one power sum of E, not 10 per
panel, and a default run asks scipy for 411 slices in 30 calls. scipy is
imported by the first oracle call, so the commands that never validate do
not pay for loading it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretizer import discretize_periods
from .matseries import DEFAULT_TOL, phi
from .plant import MotorParams, continuous_matrices


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def expm(a: np.ndarray) -> np.ndarray:
    """scipy's exponential of a matrix or a (k, n, n) stack: the oracle."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def _max_norms(S: np.ndarray) -> np.ndarray:
    """The max-norm of each matrix in a (k, n, m) stack."""
    return np.abs(S).max(axis=(1, 2))


def _rel_errs(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """The relative max-norm error of each matrix in a (k, n, m) stack; a
    NaN in any slice stays NaN, so the check that reduces it fails."""
    return _max_norms(got - want) / np.maximum(_max_norms(want), 1e-300)


# the 10-node Gauss-Legendre rule on [-1, 1] that every panel uses
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def power_sum(E: np.ndarray, n: int) -> np.ndarray:
    """sum_{p<n} E^p for n >= 1 by binary doubling over n's bits,
    S_2k = S_k + E^k S_k and S_(k+1) = S_k + E^k: about 2 log2(n) products."""
    S, P = np.eye(len(E)), E  # S_k and E^k for k = 1
    for bit in bin(n)[3:]:
        S = S + P @ S
        P = P @ P
        if bit == "1":
            S = S + P
            P = P @ E
    return S


def integral_oracle(M, h: float) -> np.ndarray:
    """Composite Gauss-Legendre evaluation of the ZOH integral of e^(M tau).

    Panel count scales with ||M h|| so the fast transient of a stiff M is
    resolved; 10 nodes per panel. The panels share one width w, so node j
    of panel p sits at tau = p w + c_j (c_j the node's offset in its panel)
    and the composite sum factors exactly:
    sum_p sum_j w_j e^(M(p w + c_j)) half
        = (sum_p E^p) (half sum_j w_j e^(M c_j)),  E = e^(M w).
    E and every e^(M c_j) come from one stacked `expm` call; the panel
    starts' sum is `power_sum(E, panels)`. No `phi` enters the oracle.
    """
    panels = max(4, int(np.ceil(np.abs(M).max() * h / 2.0)))
    width = h / panels
    half = 0.5 * width
    offsets = half * (1.0 + _GL_NODES)
    exps = expm(M * np.concatenate([[width], offsets])[:, None, None])
    inner = (_GL_WEIGHTS[:, None, None] * exps[1:]).sum(axis=0) * half
    return power_sum(exps[0], panels) @ inner


def run_identity_checks(seed: int = 0, trials: int = 50,
                        tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Run the full identity suite on `trials` random matrices (>= 0) plus
    the reference cases; `tol` lets a degraded series tolerance be injected
    to confirm the checks can actually fail."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    p = MotorParams()
    A, B = continuous_matrices(p)
    # the motor's A at three periods follows the random matrices in every check
    refs = A * np.array([0.05, 0.11, 0.2])[:, None, None]
    rng = np.random.Generator(np.random.PCG64(seed))
    S = np.concatenate([rng.uniform(-5.0, 5.0, size=(trials, 3, 3)), refs])
    n_half = max(trials // 2, 1)
    # every draw comes before any evaluation, in the order of the checks
    T = _well_conditioned(rng, n_half)
    integ_mats = np.concatenate([S[:n_half], refs])
    hs = [float(rng.uniform(0.01, 0.5)) if norm <= 5.0 else 1.0
          for norm in _max_norms(integ_mats)]

    ph = phi(S, tol)
    commut = float((_max_norms(S @ ph - ph @ S) / (1.0 + _max_norms(S) ** 2)).max())
    expo = float(_rel_errs(np.eye(3) + S @ ph, expm(S)).max())

    lhs = phi(np.linalg.solve(T, S[:n_half] @ T), tol)
    rhs = np.linalg.solve(T, ph[:n_half] @ T)
    simil = float(_rel_errs(lhs, rhs).max())

    H = np.array(hs)[:, None, None]
    hphi = H * phi(integ_mats * H, tol)
    oracle = np.stack([integral_oracle(M, h) for M, h in zip(integ_mats, hs)])
    integ = float(_rel_errs(oracle, hphi).max())

    aug = np.zeros((4, 4))
    aug[:3, :3] = A
    aug[:3, 3] = B
    periods = np.linspace(0.01, 0.3, 50).tolist()
    bigs = expm(aug * np.array(periods)[:, None, None])
    stack = discretize_periods(p, periods, tol)
    disc = float(np.maximum(_rel_errs(stack.F, bigs[:, :3, :3]),
                            _rel_errs(stack.G[:, :, None], bigs[:, :3, 3:])).max())

    return [
        CheckResult("commutation M*phi(M) = phi(M)*M", commut, 1e-10),
        CheckResult("exponential e^M = I + M*phi(M)", expo, 1e-8),
        CheckResult("integral of e^(M tau) = h*phi(M h)", integ, 1e-7),
        CheckResult("similarity phi(T^-1 M T) = T^-1 phi(M) T", simil, 1e-8),
        CheckResult("discretize matches augmented exponential", disc, 1e-8),
    ]


def _well_conditioned(rng: np.random.Generator, k: int) -> np.ndarray:
    """k matrices I + U(-0.5, 0.5)^(3x3) with cond < 100, drawn as a batch
    of k candidates and topped up for each rejected one: the same draws in
    the same order as one-at-a-time rejection, so rng ends where that loop
    leaves it."""
    kept = np.empty((0, 3, 3))
    while len(kept) < k:
        T = np.eye(3) + rng.uniform(-0.5, 0.5, size=(k - len(kept), 3, 3))
        kept = np.concatenate([kept, T[np.linalg.cond(T) < 100.0]])
    return kept
