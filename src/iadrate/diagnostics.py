"""Convergence-rate diagnostics for the aggregation/disaggregation solver.

The central object is the error propagation operator J(mu); its spectral
radius is the asymptotic rate of the solver near the steady state. The
module computes that radius directly, through an exact resolvent-based
spectrum formula, and through two interpretable upper bounds (a norm
bound and an angle bound built from the dominant eigenvectors of P* P).
"""

import numpy as np
import scipy.linalg

from . import linalg
from .chain import (
    ProbabilityVector,
    deviation,
    is_reversible,
    pstar_p_spectrum,
    steady_state,
    time_reversal,
)
from .coarse import coarse_projection, is_refinement, orthogonal_projection
from .errors import ReducibleMatrixError, RefinementError

from dataclasses import dataclass, field


@dataclass
class RateReport:
    rho_J: float
    rho_exact_formula: float
    norm_bound: float
    angle_bounds: dict  # k -> (sin^2 theta, bound on rho)
    sqrt_lambda2: float
    rho_hatP: float
    reversible: bool


@dataclass(frozen=True)
class ProjectionPair:
    Pi: np.ndarray
    Q_k: np.ndarray


def error_operator(P, mu, part):
    """J(mu) = (P - mu 1^T)(I - S(mu)), the linearization of one solver
    step around the steady state."""
    S = coarse_projection(P, mu, mu, part)
    return deviation(P, mu) @ (np.eye(P.n) - S)


def rho_J_direct(J):
    """Spectral radius as the largest eigenvalue modulus of J."""
    ev = linalg.general_eigenvalues(J)
    return float(np.abs(ev[0]))


def rho_J_exact_formula(P, mu, part, drop_tol=1e-9):
    """Spectrum of J(mu) from the projected resolvent.

    With K = (I - Pi)(I - P_hat)^{-1}(I - Pi), the nonzero part of the
    spectrum of J is {1 - 1/lambda : lambda in sigma(K), lambda != 0},
    with 0 adjoined. Numerically-zero eigenvalues of the rank-deficient
    K (modulus below drop_tol) are discarded before the map.
    """
    N = P.n
    I = np.eye(N)
    Pi = orthogonal_projection(mu, part)
    R = linalg.lu_solve(I - deviation(P, mu), I - Pi)
    K = (I - Pi) @ R
    lam = linalg.general_eigenvalues(K)
    lam = lam[np.abs(lam) >= drop_tol]
    vals = 1.0 - 1.0 / lam
    return np.concatenate([vals, [0.0]])


def norm_bound(P, mu, part):
    """Norm upper bound on rho(J).

    Reversible case: 1 - 1/||(I-Pi)(I-P_hat)^{-1}(I-Pi)||_{1/mu}, which
    equals rho(J) exactly. General case: the same construction with
    P_hat* P_hat inside the resolvent bounds rho^2, so the square root
    is returned.
    """
    N = P.n
    I = np.eye(N)
    m = mu.probs
    w = 1.0 / m
    Pi = orthogonal_projection(mu, part)
    Phat = deviation(P, mu)
    if is_reversible(P, mu):
        K = (I - Pi) @ linalg.lu_solve(I - Phat, I - Pi)
        return 1.0 - 1.0 / linalg.spectral_radius_symmetric_psd(K, w)
    Phat_star = (m[:, None] * Phat.T) * w[None, :]
    K = (I - Pi) @ linalg.lu_solve(I - Phat_star @ Phat, I - Pi)
    return float(np.sqrt(1.0 - 1.0 / linalg.spectral_radius_symmetric_psd(K, w)))


def spectral_projector(sd, k):
    """l2(1/mu)-orthogonal projector onto the k leading eigenvectors of
    P* P (the steady state itself is the first)."""
    V = sd.right_vectors[:, :k]
    W = sd.left_vectors[:, :k]
    return V @ W.T


def projection_pair(P, mu, part, k, sd=None):
    if sd is None:
        sd = pstar_p_spectrum(P, mu)
    return ProjectionPair(Pi=orthogonal_projection(mu, part),
                          Q_k=spectral_projector(sd, k))


def sin_theta(P, mu, part, k, sd=None):
    """Sine of the angle between the span of the k leading eigenvectors
    of P* P and the range of the coarse interpolation, measured in
    l2(1/mu); computed as ||Q (I - Pi)||_{1/mu} and clamped to [0, 1]."""
    N = P.n
    if not 2 <= k < N:
        raise ValueError(f"sin_theta: k must satisfy 2 <= k < {N}, got {k}")
    pair = projection_pair(P, mu, part, k, sd=sd)
    M = pair.Q_k @ (np.eye(N) - pair.Pi)
    s = linalg.weighted_operator_norm(M, 1.0 / mu.probs)
    return float(min(max(s, 0.0), 1.0))


def angle_bound(lambdas, sin2theta, k, reversible):
    """Upper bound on rho(J) from the angle and the spectrum of P* P.

    Reversible: 1 - 1/(sin^2/(1-sqrt(l2)) + cos^2/(1-sqrt(l_{k+1}))).
    General: the analogous expression with the lambdas themselves bounds
    rho^2, so its square root is returned.
    """
    l2, lk1 = float(lambdas[1]), float(lambdas[k])
    if l2 >= 1.0:
        raise ReducibleMatrixError(
            "angle_bound: lambda_2 >= 1, the chain composed with its "
            "reversal is not irreducible"
        )
    cos2 = 1.0 - sin2theta
    if reversible:
        denom = sin2theta / (1.0 - np.sqrt(l2)) + cos2 / (1.0 - np.sqrt(lk1))
        return float(1.0 - 1.0 / denom)
    denom = sin2theta / (1.0 - l2) + cos2 / (1.0 - lk1)
    return float(np.sqrt(1.0 - 1.0 / denom))


def full_report(P, part, k_list=(2,), mu=None):
    """All rate quantities for one chain and one aggregation."""
    if mu is None:
        mu = steady_state(P)
    rev = is_reversible(P, mu)
    sd = pstar_p_spectrum(P, mu)
    sqrt_l2 = float(np.sqrt(max(sd.lambdas[1], 0.0)))
    rho_hat = float(np.abs(linalg.general_eigenvalues(deviation(P, mu))[0]))
    J = error_operator(P, mu, part)
    rho = rho_J_direct(J)
    exact = rho_J_exact_formula(P, mu, part)
    nb = norm_bound(P, mu, part)
    bounds = {}
    for k in k_list:
        s = sin_theta(P, mu, part, k, sd=sd)
        s2 = s * s
        if sqrt_l2 < 1.0:
            bounds[int(k)] = (s2, angle_bound(sd.lambdas, s2, k, rev))
        else:
            bounds[int(k)] = (s2, float("nan"))
    return RateReport(
        rho_J=rho,
        rho_exact_formula=float(np.max(np.abs(exact))),
        norm_bound=float(nb),
        angle_bounds=bounds,
        sqrt_lambda2=sqrt_l2,
        rho_hatP=rho_hat,
        reversible=bool(rev),
    )


def refinement_compare(P, coarse_part, refined_part, mu=None):
    """(rho_coarse, rho_refined) for a nested pair of aggregations.

    For reversible chains refining the coarse states can only shrink the
    rate; a rate that grows raises RefinementError.
    """
    if not is_refinement(refined_part, coarse_part):
        raise ValueError("refinement_compare: second partition does not "
                         "refine the first")
    if mu is None:
        mu = steady_state(P)
    rho_c = rho_J_direct(error_operator(P, mu, coarse_part))
    rho_r = rho_J_direct(error_operator(P, mu, refined_part))
    if is_reversible(P, mu) and rho_r > rho_c + 1e-10:
        raise RefinementError(
            f"refinement_compare: rate increased under refinement "
            f"({rho_c:.12g} -> {rho_r:.12g}) for a reversible chain"
        )
    return float(rho_c), float(rho_r)


def epsilon_norm(M, mu, part, eps):
    """Operator norm of M in the epsilon-inner product
    <x, y>_eps = <x, (I - Pi) y>_{1/mu} + eps <x, Pi y>_{1/mu}.

    For small eps > 0 the error operator is a strict contraction in this
    norm even when its l2(1/mu) norm exceeds one.
    """
    if eps <= 0:
        raise ValueError("epsilon_norm: eps must be positive")
    N = M.shape[0]
    w = 1.0 / mu.probs
    Pi = orthogonal_projection(mu, part)
    G = w[:, None] * (np.eye(N) - Pi + eps * Pi)
    G = 0.5 * (G + G.T)  # symmetric up to roundoff by self-adjointness of Pi
    vals = scipy.linalg.eigh(M.T @ G @ M, G, eigvals_only=True)
    return float(np.sqrt(max(vals[-1], 0.0)))
