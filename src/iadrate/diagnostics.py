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
from .coarse import (aggregate, coarse_projection, is_refinement,
                     orthogonal_projection)
from .errors import (PartitionError, ReducibleMatrixError, RefinementError,
                     SingularMatrixError)

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


class ChainRates:
    """The rate quantities of one chain for any number of its partitions.

    What depends on the chain alone is computed at most once: the
    reversibility test here, and when first needed the resolvent factor
    of P, for a non-reversible chain that of P* P, below
    linalg.ARPACK_MIN_N the dense scaled resolvent Rs, above it for a
    reversible chain the floor of the rho_J certificate, the leading
    P* P eigenpairs and rho(P_hat). The spectrum of the projected
    resolvent is kept for the last partition, which rho_J, the exact
    formula and a reversible chain's norm bound share. mu defaults to
    the steady state of P.
    """

    def __init__(self, P, mu=None):
        self.P = P
        self.mu = steady_state(P) if mu is None else mu
        self.reversible = bool(is_reversible(P, self.mu))
        self._sd = self._rho_hatP = self._Rs = self._floor = None
        self._factors = {}
        self._last = (None, None)

    def _resolvent(self, pstar_p):
        """The resolvent factor of P, or of P* P, built on first use."""
        if pstar_p not in self._factors:
            Q = (time_reversal(self.P, self.mu).mat @ self.P.mat if pstar_p
                 else self.P.mat)
            self._factors[pstar_p] = linalg.resolvent(Q, self.mu.probs)
        return self._factors[pstar_p]

    def pairs(self, k):
        """At least k leading eigenpairs of P* P, solved again only for more."""
        if self._sd is None or len(self._sd.lambdas) < k:
            self._sd = pstar_p_spectrum(self.P, self.mu, k)
        return self._sd

    def rho_hatP(self):
        """rho(P - mu 1^T), the asymptotic rate of the power method. For a
        reversible chain from linalg.ARPACK_MIN_N on it is sqrt(lambda_2)
        of P* P = P^2, from the cached pairs; otherwise the eigensolve of
        P_hat (rho_J_direct)."""
        if self._rho_hatP is None:
            if self.reversible and self.P.n >= linalg.ARPACK_MIN_N:
                self._rho_hatP = float(np.sqrt(self.pairs(2).lambdas[1]))
            else:
                self._rho_hatP = rho_J_direct(deviation(self.P, self.mu))
        return self._rho_hatP

    def _projected(self, R, part):
        """(I - Pi) R (I - Pi) as a LinearOperator."""
        Pi = orthogonal_projection(self.mu, part)
        E = lambda X: X - Pi @ X
        return linalg.block_operator(self.P.n, lambda X: E(R @ E(X)))

    def _scaled(self, K):
        """diag(1/sqrt(mu)) K diag(sqrt(mu)) as a LinearOperator, symmetric
        when K is self-adjoint in l2(1/mu)."""
        sw = np.sqrt(1.0 / self.mu.probs)[:, None]
        return linalg.block_operator(self.P.n, lambda X: sw * (K @ (X / sw)))

    def _rho_floor(self):
        """max(0, 1 - 2 min_j P_jj), computed once: for a reversible chain
        no eigenvalue of J lies below minus it. R has the eigenvalues 1 and
        1/(1 - p), p in sigma(P), so by Courant-Fischer every eigenvalue
        of J is at least min(0, p_min), and Gershgorin on the columns of P
        gives p_min >= 2 min_j P_jj - 1."""
        if self._floor is None:
            self._floor = max(0.0, 1.0 - 2.0 * float(self.P.mat.diagonal().min()))
        return self._floor

    def _spectrum(self, part):
        """The nonzero eigenvalues of K = (I - Pi) R (I - Pi), R the
        resolvent of P (none for singleton strata, where Pi = I and K = 0);
        kept for the last partition asked about.

        Below linalg.ARPACK_MIN_N all of them, from the dense
        M = (I - Pi~) Rs (I - Pi~) = diag(1/sqrt(mu)) K diag(sqrt(mu)), with
        Rs = diag(1/sqrt(mu)) R diag(sqrt(mu)) built once per chain and
        Pi~ = U U^T for the unit sqrt(mu)-weighted stratum indicators U:
        M is symmetric for a reversible chain, which takes eigvalsh. Above,
        the _EXACT_FORMULA_K leading eigenvalues of the operator K; for a
        reversible chain the largest of the symmetric
        diag(1/sqrt(mu)) K diag(sqrt(mu)), which are K's largest moduli
        too, R being positive definite in l2(1/mu). Eigenvalues below
        _DROP_TOL times the largest modulus count as zero.
        """
        if part.n == self.P.n:
            return np.zeros(0)
        key = part.assignment.tobytes()
        if self._last[0] == key:
            return self._last[1]
        if self.P.n < linalg.ARPACK_MIN_N:
            m, a = self.mu.probs, part.assignment
            if self._Rs is None:
                sm = np.sqrt(m)
                self._Rs = (self._resolvent(False) @ np.diag(sm)) / sm[:, None]
            u = np.sqrt(m / aggregate(m, part)[a])[:, None]
            E = lambda X: X - u * aggregate(u * X, part)[a]
            M = E(E(self._Rs).T).T
            if self.reversible:
                # the projections cancel the large entries of Rs; what they
                # leave of its roundoff can exceed leading_eigs' symmetry
                # tolerance, which is relative to the much smaller M
                M = 0.5 * (M + M.T)
            lam = linalg.leading_eigs(M, None, symmetric=self.reversible).values
        else:
            K = self._projected(self._resolvent(False), part)
            if self.reversible:
                lam = linalg.leading_eigs(self._scaled(K), _EXACT_FORMULA_K,
                                          symmetric=True).values
            else:
                lam = linalg.leading_eigs(K, _EXACT_FORMULA_K).values
        lam = lam[np.abs(lam) > _DROP_TOL * np.abs(lam).max()]
        self._last = (key, lam)
        return lam

    def rho_J(self, part):
        """rho(J(mu)), the largest eigenvalue modulus of the error operator:
        0 for singleton strata (J = 0); below linalg.ARPACK_MIN_N from the
        exact formula. Above, for a reversible chain the norm bound
        1 - 1/lambda_max of K when that is at least _rho_floor(), which
        then no eigenvalue of J undercuts; otherwise, and for a
        non-reversible chain, by ARPACK on J (rho_J_direct)."""
        if part.n == self.P.n:
            return 0.0
        if self.P.n < linalg.ARPACK_MIN_N:
            return float(np.max(np.abs(self.exact_formula(part))))
        if self.reversible:
            rho = self.norm_bound(part)
            if rho >= self._rho_floor():
                return rho
        return rho_J_direct(error_operator(self.P, self.mu, part))

    def exact_formula(self, part):
        """Spectrum of J(mu) from the projected resolvent.

        With K = (I - Pi)(I - P_hat)^{-1}(I - Pi), the nonzero part of the
        spectrum of J is {1 - 1/lambda : lambda in sigma(K), lambda != 0},
        with 0 adjoined. Below linalg.ARPACK_MIN_N every eigenvalue of J;
        above, the images of K's _EXACT_FORMULA_K leading eigenvalues,
        which are the eigenvalues of J nearest 1 (for a reversible chain,
        rho(J) among them when rho_J certifies it). Singleton strata give
        the spectrum {0}.
        """
        return np.concatenate([1.0 - 1.0 / self._spectrum(part), [0.0]])

    def norm_bound(self, part):
        """Norm bound on rho(J).

        Reversible chain (K self-adjoint in l2(1/mu), J's spectrum real),
        from the spectrum rho_J reads: below linalg.ARPACK_MIN_N,
        max(1 - 1/lambda_max, 1/lambda_min - 1) over the nonzero
        eigenvalues of K, which is rho(J); above, 1 - 1/||K||, the largest
        eigenvalue of J. That bounds rho(J), and equals it, when it is at
        least max(0, 1 - 2 min_j P_jj), the certificate rho_J checks: no
        eigenvalue of J then lies below -(1 - 1/||K||). Non-reversible
        chain: K is built from Q = P* P, which puts P_hat* P_hat inside it
        and bounds rho^2, and sqrt(1 - 1/||K||) is returned. ||K|| in
        l2(1/mu) is the largest eigenvalue of the symmetric
        diag(1/sqrt(mu)) K diag(sqrt(mu)). Singleton strata give K = 0: 0.
        """
        if part.n == self.P.n:
            return 0.0
        if self.reversible:
            lam = self._spectrum(part)
            nb = 1.0 - 1.0 / float(lam.max())
            if self.P.n < linalg.ARPACK_MIN_N:
                nb = max(nb, 1.0 / float(lam.min()) - 1.0)
            return nb
        try:
            K = self._projected(self._resolvent(True), part)
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                "norm_bound: P* P is reducible (lambda_2 = 1); the non-reversible "
                "norm bound is undefined") from exc
        T = self._scaled(K)
        nb = 1.0 - 1.0 / float(linalg.leading_eigs(T, 1, symmetric=True).values[0])
        return float(np.sqrt(nb))

    def angle(self, part, k):
        """(sin^2 theta, angle bound) for the k leading eigenvectors of
        P* P; the bound is NaN when lambda_2 = 1, where it is undefined."""
        sd = self.pairs(min(k + 1, self.P.n))
        s = sin_theta(self.P, self.mu, part, k, sd)
        if sd.lambdas[1] >= 1.0:
            return s * s, float("nan")
        return s * s, angle_bound(sd.lambdas, s * s, k, self.reversible)

    def report(self, part, k_list=(2,)):
        """All rate quantities for one aggregation."""
        sd = self.pairs(min(max(k_list, default=1) + 1, self.P.n))
        return RateReport(
            sqrt_lambda2=float(np.sqrt(sd.lambdas[1])),
            rho_hatP=self.rho_hatP(),
            rho_J=self.rho_J(part),
            rho_exact_formula=float(np.max(np.abs(self.exact_formula(part)))),
            norm_bound=float(self.norm_bound(part)),
            angle_bounds={int(k): self.angle(part, k) for k in k_list},
            reversible=self.reversible,
        )

    def nested_rates(self, parts):
        """rho(J) for each partition of a sequence in which each refines
        the one before, one eigensolve each. For reversible chains refining
        the coarse states can only shrink the rate; a rate that grows
        raises RefinementError."""
        if not all(map(is_refinement, parts[1:], parts[:-1])):
            raise PartitionError("nested_rates: each partition must refine the one before")
        rhos = [self.rho_J(part) for part in parts]
        for rho_c, rho_r in zip(rhos, rhos[1:]):
            if self.reversible and rho_r > rho_c + 1e-10:
                raise RefinementError(
                    f"nested_rates: rate increased under refinement ({rho_c:.12g} "
                    f"-> {rho_r:.12g}) for a reversible chain")
        return rhos


def norm_bound(P, mu, part):
    """ChainRates(P, mu).norm_bound(part), for one partition."""
    return ChainRates(P, mu).norm_bound(part)


def sin_theta(P, mu, part, k, sd):
    """Sine of the angle between the span of the k leading eigenvectors
    of P* P, taken from sd (chain.pstar_p_spectrum), and the range of the
    coarse interpolation, measured in l2(1/mu), clamped to [0, 1].

    With V_k the eigenvectors (orthonormal in l2(1/mu)), sin^2 is the
    largest eigenvalue of the k x k Gram matrix of (I - Pi) V_k in
    l2(1/mu), i.e. of U_k^T (I - Pi~) U_k in plain coordinates.
    """
    if not 2 <= k < P.n:
        raise ValueError(f"sin_theta: k must satisfy 2 <= k < {P.n}, got {k}")
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
    """ChainRates(P, mu).report(part, k_list), for one partition."""
    return ChainRates(P, mu).report(part, k_list)
