"""Maclaurin-series matrix operator phi(M) = sum_i M^i/(i+1)! and the
matrix exponential e^M = I + M*phi(M) built on top of it.

phi is the workhorse behind exact zero-order-hold discretization:
F = e^(A h) and G = h*phi(A h)*B both reduce to it. Large arguments go
through scaling and phi-doubling, which never inverts M.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-12
# terms the series may take before SeriesConvergenceError
_MAX_TERMS = 60

# scale M down to this max-norm before running the series
_SERIES_NORM_LIMIT = 0.5


class SeriesConvergenceError(RuntimeError):
    """Raised when the term budget runs out before the term norm drops below tol."""


def _phi_series(X: np.ndarray, tol: float) -> np.ndarray:
    """Direct evaluation of sum_i X^i/(i+1)! over a (k, n, n) stack, each
    matrix truncated on its own term max-norm. A converged matrix's term is
    zeroed, so it adds exact zeros until the last matrix converges."""
    term = np.broadcast_to(np.eye(X.shape[-1]), X.shape).copy()  # i = 0 terms
    total = term.copy()
    for i in range(1, _MAX_TERMS):
        term = term @ X / (i + 1)
        total += term
        norms = np.abs(term).max(axis=(1, 2))
        done = norms < tol
        if done.all():
            return total
        term[done] = 0.0
    raise SeriesConvergenceError(
        f"series did not converge within {_MAX_TERMS} terms "
        f"(last term norm {norms.max():.3e} >= tol {tol:.3e})"
    )


def phi(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Evaluate phi(M) = I + M/2! + M^2/3! + ... for an (n, n) matrix or a
    (k, n, n) stack of them, truncating each series once its term max-norm
    drops below tol.

    Large arguments are scaled to X = M/2^s with max-norm <= 0.5, summed
    as P = phi(X), E = I + X*P, then doubled back s times with
    phi(2X) = phi(X)*(e^X + I)/2 and e^(2X) = (e^X)^2 (Skaflestad & Wright,
    Appl. Numer. Math. 59, 2009; scaling as in Higham, SIAM J. Matrix Anal.
    Appl. 26, 2005). Each halving is exact; doing it inside the loop keeps
    P at the scale of phi rather than 2^s times it, which could overflow.

    In a stack every matrix keeps its own s, its own truncation point and
    its own number of doublings, so each slice of the result has the bits
    of the call on that matrix alone.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2] or 0 in M.shape:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")

    stack = M.reshape(-1, *M.shape[-2:])
    norms = np.abs(stack).max(axis=(1, 2))
    with np.errstate(over="ignore"):  # an infinite ratio fails the check below
        s = np.ceil(np.log2(np.maximum(norms, _SERIES_NORM_LIMIT) / _SERIES_NORM_LIMIT))
    if s.max() >= np.finfo(float).maxexp:
        raise OverflowError("the scaling 2^s that M needs is not representable")
    s = s.astype(int)
    # most doublings first, so the matrices still doubling are a leading slice
    order = np.argsort(-s, kind="stable")
    s = s[order]
    X = stack[order] / (2.0 ** s)[:, None, None]
    P = _phi_series(X, tol)
    eye = np.eye(M.shape[-1])
    E = eye + X @ P
    with np.errstate(over="ignore", invalid="ignore"):  # overflow detected below
        for r in range(s[0]):
            m = int(np.count_nonzero(s > r))
            P[:m] = P[:m] @ (E[:m] + eye) * 0.5
            E[:m] = E[:m] @ E[:m]
    if not (np.isfinite(P).all() and np.isfinite(E).all()):
        raise OverflowError("e^M overflows the float range; phi(M) is not representable")
    out = np.empty_like(P)
    out[order] = P
    return out.reshape(M.shape)


def expm_via_phi(M) -> np.ndarray:
    """Matrix exponential through the series operator: e^M = I + M*phi(M),
    for an (n, n) matrix or a (k, n, n) stack."""
    P = phi(M)
    return np.eye(P.shape[-1]) + np.asarray(M, dtype=float) @ P
