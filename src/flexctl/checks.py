"""Built-in identity suite: verifies the series operator's algebraic
relations and the discretizer against independent oracles
(scipy's Pade/scaling-squaring exponential and composite Gauss-Legendre
quadrature). Used by the `validate` CLI command.

Each oracle reaches scipy through one stacked `expm` call per batch (the
panel starts and node offsets of one integral, all matrices of the
exponential check, all periods of the discretize check); scipy runs the
same per-slice code for a stack as for a single matrix, so every slice has
the bits of the single call. The quadrature's panels share one width, so
each node is tau = t_p + c_j and e^(M tau) = e^(M t_p) e^(M c_j): an
integral needs panels + 10 exponentials, not 10 per panel, and a default
run asks scipy for 718 slices in 30 calls. scipy is imported by the first
oracle call, so the commands that never validate do not pay for loading it.
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


def integral_oracle(M, h: float) -> np.ndarray:
    """Composite Gauss-Legendre evaluation of the ZOH integral of e^(M tau).

    Panel count scales with ||M h|| so the fast transient of a stiff M is
    resolved; 10 nodes per panel. The panels share one width, so node j of
    panel p sits at tau = t_p + c_j (t_p the panel's start, c_j the node's
    offset in it) and the composite sum factors exactly:
    sum_p sum_j w_j e^(M(t_p + c_j)) half
        = (sum_p e^(M t_p)) (half sum_j w_j e^(M c_j)).
    Every e^(M t_p) and e^(M c_j) comes from one stacked `expm` call.
    """
    panels = max(4, int(np.ceil(np.abs(M).max() * h / 2.0)))
    edges = np.linspace(0.0, h, panels + 1)
    half = 0.5 * (h / panels)
    offsets = half * (1.0 + _GL_NODES)
    exps = expm(M * np.concatenate([edges[:-1], offsets])[:, None, None])
    starts, inner = exps[:panels], exps[panels:]
    return starts.sum(axis=0) @ ((_GL_WEIGHTS[:, None, None] * inner).sum(axis=0) * half)


def run_identity_checks(seed: int = 0, trials: int = 50,
                        tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Run the full identity suite on `trials` random matrices (>= 0) plus
    the reference cases; `tol` lets a degraded series tolerance be injected
    to confirm the checks can actually fail."""
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
    Ts = [_well_conditioned(rng) for _ in range(n_half)]
    integ_mats = np.concatenate([S[:n_half], refs])
    hs = [float(rng.uniform(0.01, 0.5)) if norm <= 5.0 else 1.0
          for norm in _max_norms(integ_mats)]

    ph = phi(S, tol)
    commut = float((_max_norms(S @ ph - ph @ S) / (1.0 + _max_norms(S) ** 2)).max())
    expo = float(_rel_errs(np.eye(3) + S @ ph, expm(S)).max())

    T = np.stack(Ts)
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


def _well_conditioned(rng: np.random.Generator) -> np.ndarray:
    while True:
        T = np.eye(3) + rng.uniform(-0.5, 0.5, size=(3, 3))
        if np.linalg.cond(T) < 100.0:
            return T
