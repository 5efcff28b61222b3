"""Maclaurin-series matrix operator phi(M) = sum_i M^i/(i+1)! and the
matrix exponential e^M = I + M*phi(M) built on top of it.

phi is the workhorse behind exact zero-order-hold discretization:
F = e^(A h) and G = h*phi(A h)*B both reduce to it. Large arguments go
through scaling and phi-doubling, which never inverts M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-12
DEFAULT_MAX_TERMS = 60

# scale M down to this max-norm before running the series
_SERIES_NORM_LIMIT = 0.5


class SeriesConvergenceError(RuntimeError):
    """Raised when the term budget runs out before the term norm drops below tol."""


@dataclass(frozen=True)
class SeriesOptions:
    """Truncation policy for the matrix series."""

    tol: float = DEFAULT_TOL
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_terms < 2:
            raise ValueError(f"max_terms must be >= 2, got {self.max_terms}")


def _as_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    return M


def _max_norm(M: np.ndarray) -> float:
    return float(np.abs(M).max())


def _phi_series(M: np.ndarray, tol: float, max_terms: int) -> np.ndarray:
    """Direct evaluation of sum_i M^i/(i+1)!, truncated on term max-norm."""
    n = M.shape[0]
    term = np.eye(n)  # i = 0 term
    total = term.copy()
    for i in range(1, max_terms):
        term = term @ M / (i + 1)
        total += term
        if _max_norm(term) < tol:
            return total
    raise SeriesConvergenceError(
        f"series did not converge within {max_terms} terms "
        f"(last term norm {_max_norm(term):.3e} >= tol {tol:.3e})"
    )


def phi(M, options: SeriesOptions | None = None) -> np.ndarray:
    """Evaluate phi(M) = I + M/2! + M^2/3! + ...

    Large arguments are scaled to X = M/2^s with max-norm <= 0.5, summed
    as P = phi(X), E = I + X*P, then doubled back s times with
    phi(2X) = phi(X)*(e^X + I)/2 and e^(2X) = (e^X)^2 (Skaflestad & Wright,
    Appl. Numer. Math. 59, 2009; scaling as in Higham, SIAM J. Matrix Anal.
    Appl. 26, 2005). Each halving is exact; doing it inside the loop keeps
    P at the scale of phi rather than 2^s times it, which could overflow.
    """
    opts = options if options is not None else SeriesOptions()
    M = _as_square(M)
    norm = _max_norm(M)
    if norm <= _SERIES_NORM_LIMIT:
        return _phi_series(M, opts.tol, opts.max_terms)

    s = int(np.ceil(np.log2(norm / _SERIES_NORM_LIMIT)))
    eye = np.eye(M.shape[0])
    X = M / 2.0**s
    P = _phi_series(X, opts.tol, opts.max_terms)
    E = eye + X @ P
    with np.errstate(over="ignore", invalid="ignore"):  # overflow detected below
        for _ in range(s):
            P = P @ (E + eye)
            P *= 0.5
            E = E @ E
    if not (np.isfinite(P).all() and np.isfinite(E).all()):
        raise OverflowError("e^M overflows the float range; phi(M) is not representable")
    return P


def expm_via_phi(M, options: SeriesOptions | None = None) -> np.ndarray:
    """Matrix exponential through the series operator: e^M = I + M*phi(M)."""
    M = _as_square(M)
    return np.eye(M.shape[0]) + M @ phi(M, options)
