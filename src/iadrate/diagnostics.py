"""Convergence-rate diagnostics for the aggregation/disaggregation solver.

The central object is the error propagation operator J(mu); its spectral
radius is the asymptotic rate of the solver near the steady state. The
module computes that radius directly, through an exact resolvent-based
spectrum formula, and through two interpretable upper bounds (a norm
bound and an angle bound built from the dominant eigenvectors of P* P).
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .chain import (
    deviation,
    is_reversible,
    pstar_p_spectrum,
    steady_state,
    time_reversal,
)
from .coarse import coarse_projection, is_refinement, orthogonal_projection
from .errors import ReducibleMatrixError, RefinementError, SingularMatrixError

# Eigenvalues of K the exact formula maps back above linalg.ARPACK_MIN_N.
_EXACT_FORMULA_K = 6
# Eigenvalues of K below this times its largest modulus count as zero.
_DROP_TOL = 1e-9


@dataclass
class RateReport:
    rho_J: float
    rho_exact_formula: float
    norm_bound: float
    angle_bounds: dict  # k -> (sin^2 theta, bound on rho)
    sqrt_lambda2: float
    rho_hatP: float
    reversible: bool


def error_operator(P, mu, part):
    """J(mu) = (P - mu 1^T)(I - S(mu)), the linearization of one solver
    step around the steady state, as a LinearOperator."""
    S = coarse_projection(P, mu, mu, part)
    Phat = deviation(P, mu)
    return linalg.block_operator(P.n, lambda X: Phat @ (X - S @ X))


def rho_J_direct(J):
    """Spectral radius as the largest eigenvalue modulus of J, an array or
    a LinearOperator."""
    return float(np.abs(linalg.leading_eigs(J, 1).values[0]))


def rho_hatP(P, mu):
    """rho(P - mu 1^T), the asymptotic rate of the power method."""
    return rho_J_direct(deviation(P, mu))


def _projected_resolvent(Q, mu, part):
    """(I - Pi)(I - Q + mu 1^T)^{-1}(I - Pi) as a LinearOperator."""
    Pi = orthogonal_projection(mu, part)
    R = linalg.resolvent(Q, mu.probs)

    def apply(X):
        Y = R @ (X - Pi @ X)
        return Y - Pi @ Y

    return linalg.block_operator(Q.shape[0], apply)


def rho_J_exact_formula(P, mu, part):
    """Spectrum of J(mu) from the projected resolvent.

    With K = (I - Pi)(I - P_hat)^{-1}(I - Pi), the nonzero part of the
    spectrum of J is {1 - 1/lambda : lambda in sigma(K), lambda != 0},
    with 0 adjoined. Numerically-zero eigenvalues of the rank-deficient
    K (modulus below _DROP_TOL times K's largest) are discarded before
    the map. Below linalg.ARPACK_MIN_N every eigenvalue of K is mapped;
    above, its _EXACT_FORMULA_K leading ones, which give the eigenvalues
    of J nearest 1 (for a reversible chain, rho(J) among them). Singleton
    strata (Pi = I) give K = 0, so the spectrum is {0}.
    """
    if part.n == P.n:
        return np.zeros(1)
    K = _projected_resolvent(P.mat, mu, part)
    k = None if P.n < linalg.ARPACK_MIN_N else _EXACT_FORMULA_K
    lam = linalg.leading_eigs(K, k).values
    lam = lam[np.abs(lam) > _DROP_TOL * np.abs(lam[0])]
    return np.concatenate([1.0 - 1.0 / lam, [0.0]])


def norm_bound(P, mu, part):
    """Norm bound on rho(J): 1 - 1/||K||_{1/mu}, K the projected
    resolvent of Q = P for a reversible chain, where it is the largest
    eigenvalue of J (rho(J) only if that has the largest modulus: on
    reducible_coarse J has the spectrum {0, 0, -1/3}). Otherwise Q = P* P
    puts P_hat* P_hat inside K, which bounds rho^2, and the square root
    is returned. ||K||_{1/mu} is the largest eigenvalue of the symmetric
    diag(1/sqrt(mu)) K diag(sqrt(mu)). Singleton strata give K = 0: 0.
    """
    if part.n == P.n:
        return 0.0
    rev = is_reversible(P, mu)
    Q = P.mat if rev else time_reversal(P, mu).mat @ P.mat
    try:
        K = _projected_resolvent(Q, mu, part)
    except SingularMatrixError as exc:
        if rev:
            raise
        raise SingularMatrixError("norm_bound: P* P is reducible (lambda_2 = 1); "
                                  "the non-reversible norm bound is undefined") from exc
    sw = np.sqrt(1.0 / mu.probs)[:, None]
    T = linalg.block_operator(P.n, lambda X: sw * (K @ (X / sw)))
    nb = 1.0 - 1.0 / float(linalg.leading_eigs(T, 1, symmetric=True).values[0])
    return nb if rev else float(np.sqrt(nb))


def sin_theta(P, mu, part, k, sd=None):
    """Sine of the angle between the span of the k leading eigenvectors
    of P* P and the range of the coarse interpolation, measured in
    l2(1/mu), clamped to [0, 1].

    With V_k the eigenvectors (orthonormal in l2(1/mu)), sin^2 is the
    largest eigenvalue of the k x k Gram matrix of (I - Pi) V_k in
    l2(1/mu), i.e. of U_k^T (I - Pi~) U_k in plain coordinates.
    """
    N = P.n
    if not 2 <= k < N:
        raise ValueError(f"sin_theta: k must satisfy 2 <= k < {N}, got {k}")
    if sd is None:
        sd = pstar_p_spectrum(P, mu, k)
    if sd.right_vectors.shape[1] < k:
        raise ValueError(f"sin_theta: sd holds {sd.right_vectors.shape[1]} "
                         f"eigenvectors, k = {k} needs k")
    V = sd.right_vectors[:, :k]
    E = V - orthogonal_projection(mu, part) @ V
    G = E.T @ (E / mu.probs[:, None])
    s2 = float(linalg.leading_eigs(G, 1, symmetric=True).values[0])
    return float(min(np.sqrt(max(s2, 0.0)), 1.0))


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
    sd = pstar_p_spectrum(P, mu, min(max(k_list, default=1) + 1, P.n))
    sqrt_l2 = float(np.sqrt(sd.lambdas[1]))
    rho_hat = rho_hatP(P, mu)
    rho = rho_J_direct(error_operator(P, mu, part))
    exact = rho_J_exact_formula(P, mu, part)
    nb = norm_bound(P, mu, part)
    bounds = {}
    for k in k_list:
        s = sin_theta(P, mu, part, k, sd=sd)
        s2 = s * s
        bound = angle_bound(sd.lambdas, s2, k, rev) if sqrt_l2 < 1.0 else float("nan")
        bounds[int(k)] = (s2, bound)
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

