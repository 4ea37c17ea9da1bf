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
from .chain import is_irreducible, is_reversible, pstar_p, pstar_p_spectrum, steady_state
from .coarse import (coarse_projection, complement, is_refinement,
                     trivial_partition)
from .errors import PartitionError, ReducibleMatrixError, RefinementError

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
    step around the steady state, as a LinearOperator: P (I - S(mu)), as
    1^T S(nu) = 1^T. With one stratum S(mu) = mu 1^T and J = P - mu 1^T."""
    S = coarse_projection(P, mu, mu, part)
    return linalg.block_operator(P.n, lambda X: P.mat @ (X - S @ X))


def rho_J_direct(J):
    """Spectral radius as the largest eigenvalue modulus of J, an array or
    a LinearOperator."""
    return float(np.abs(linalg.leading_eigs(J, 1).lambdas[0]))


class ChainRates:
    """The rate quantities of one chain for any number of its partitions.

    P must be irreducible: the steady state mu defaults to refuses a
    reducible P, and a given mu is checked on the graph of P, both with
    ReducibleMatrixError; chain.time_reversal checks that a given mu is a
    steady state. Computed at most once: the reversibility test and
    rho_J's Gershgorin floor here, and when first needed the verdict on
    P* P's irreducibility, the scaled resolvent of P, for a
    non-reversible chain that of P* P, the leading P* P eigenpairs and
    rho(P_hat). Kept for the last partition asked about: the spectra of
    the projected resolvents, which rho_J, the exact formula and the
    norm bound read, and rho_J.
    """

    def __init__(self, P, mu=None):
        if mu is None:
            mu = steady_state(P)
        elif not is_irreducible(P):
            raise ReducibleMatrixError("ChainRates: P is reducible, mu is not unique")
        self.P, self.mu = P, mu
        self.reversible = bool(is_reversible(P, mu))
        self.floor = max(0.0, 1.0 - 2.0 * float(P.mat.diagonal().min()))
        self._sd = self._rho_hatP = self._pstar_p_verdict = None
        self._Rs = {}
        self._last = (None, {})

    def _irreducible_pstar_p(self, Q=None):
        """Whether P* P (Q, if the caller formed it) is irreducible, decided
        on first use: lambda_2 = 1 exactly when it is not (chain.pstar_p)."""
        if self._pstar_p_verdict is None:
            self._pstar_p_verdict = is_irreducible(Q or pstar_p(self.P, self.mu))
        return self._pstar_p_verdict

    def _scaled_resolvent(self, composed):
        """Rs = diag(1/sqrt(mu)) R diag(sqrt(mu)), R the resolvent of P, or
        of P* P when composed, built on first use as an operator on the
        sparse LU factor and materialized below linalg.ARPACK_MIN_N (80 KB
        at N = 100). Rs is symmetric when R is self-adjoint in l2(1/mu),
        as for a reversible P and for P* P."""
        if composed not in self._Rs:
            Q = pstar_p(self.P, self.mu) if composed else self.P
            if composed and not self._irreducible_pstar_p(Q):
                raise ReducibleMatrixError(
                    "norm_bound: P* P is reducible (lambda_2 = 1); the "
                    "non-reversible norm bound is undefined")
            R = linalg.resolvent(Q.mat, self.mu.probs)
            smc = np.sqrt(self.mu.probs)[:, None]
            Rs = linalg.block_operator(self.P.n, lambda X: (R @ (smc * X)) / smc)
            if self.P.n < linalg.ARPACK_MIN_N:
                Rs = Rs @ np.eye(self.P.n)
            self._Rs[composed] = Rs
        return self._Rs[composed]

    def pairs(self, k):
        """The P* P eigenpairs computed so far, solved again only when k
        exceeds their number: all of them below linalg.ARPACK_MIN_N. From
        there on, for a reversible chain those of Rs (_resolvent_pairs)
        where they are certified, otherwise chain.pstar_p_spectrum."""
        if self._sd is None or len(self._sd.lambdas) < k:
            self._sd = self._resolvent_pairs(k) or pstar_p_spectrum(self.P, self.mu, k)
        return self._sd

    def _resolvent_pairs(self, k):
        """Every P* P pair, at least the k leading ones, of a reversible
        chain from linalg.ARPACK_MIN_N on, from the leading eigenpairs of
        the Rs that rho_J factors; None for any other chain and where they
        are not certified.

        P* P = P^2, and Rs has the eigenvalue 1 on sqrt(mu) and 1/(1 - p)
        for every other eigenvalue p of P, with the eigenvector u of the
        symmetric similarity of P: the right vector sqrt(mu) u, unit in
        l2(1/mu), has the P* P eigenvalue p^2. The leading lambda of Rs
        give the largest p; their squares lead P* P when the smallest p
        kept exceeds the floor, which bounds |p| of every negative p. The
        inequality is strict, and p at or below _DROP_TOL counts as zero,
        so that Rs's eigenvalue 1 with its roundoff is never a pair.
        """
        if not (self.reversible and self.P.n >= linalg.ARPACK_MIN_N):
            return None
        eig = linalg.leading_eigs(self._scaled_resolvent(False), k - 1,
                                  symmetric=True, vectors=True)
        p = 1.0 - 1.0 / eig.lambdas
        if not p.min() > max(_DROP_TOL, self.floor):
            return None
        m = self.mu.probs
        return linalg.EigenPairs(
            lambdas=np.concatenate([[1.0], p * p]),
            vectors=np.column_stack([m, np.sqrt(m)[:, None] * eig.vectors]))

    def rho_hatP(self):
        """rho(P - mu 1^T), the asymptotic rate of the power method: for a
        reversible chain sqrt(lambda_2) of P* P = P^2, from the cached
        pairs, otherwise rho_J of one stratum, whose J is P - mu 1^T."""
        if self._rho_hatP is None:
            if self.reversible:
                self._rho_hatP = float(np.sqrt(self.pairs(2).lambdas[1]))
            else:
                self._rho_hatP = self.rho_J(trivial_partition(self.P.n))
        return self._rho_hatP

    def _memo(self, part):
        """The per-partition cache, emptied when another partition comes;
        a partition of another chain raises PartitionError."""
        if part.fine_n != self.P.n:
            raise PartitionError("ChainRates: chain size does not match partition")
        key = part.assignment.tobytes()
        if self._last[0] != key:
            self._last = (key, {})
        return self._last[1]

    def _spectrum(self, part, composed=False):
        """The nonzero eigenvalues of K = (I - Pi) R (I - Pi), R the
        resolvent of P, or of P* P when composed (none for singleton
        strata, where Pi = I and K = 0).

        They are those of M = (I - Pi~) Rs (I - Pi~) =
        diag(1/sqrt(mu)) K diag(sqrt(mu)), I - Pi~ = coarse.complement,
        which is symmetric when Rs is: every one linalg.leading_eigs
        computes, all of them from a dense Rs, and from the operator M at
        least six (for a symmetric M its largest, which are its largest
        moduli too, R being positive definite in l2(1/mu)).
        Eigenvalues below _DROP_TOL times the largest modulus count as zero.
        """
        memo = self._memo(part)
        if part.n == self.P.n:
            return np.zeros(0)
        if composed not in memo:
            Rs = self._scaled_resolvent(composed)
            symmetric = self.reversible or composed
            E = complement(self.mu.probs, part)
            if isinstance(Rs, np.ndarray):
                M = E(E(Rs).T).T
                if symmetric:
                    # the projections cancel the large entries of Rs; what
                    # they leave of its roundoff can exceed leading_eigs'
                    # symmetry tolerance, which is relative to the much
                    # smaller M
                    M = 0.5 * (M + M.T)
            else:
                M = linalg.block_operator(self.P.n, lambda X: E(Rs @ E(X)))
            lam = linalg.leading_eigs(M, 1, symmetric=symmetric).lambdas
            memo[composed] = lam[np.abs(lam) > _DROP_TOL * np.abs(lam).max()]
        return memo[composed]

    def rho_J(self, part):
        """rho(J(mu)), the largest eigenvalue modulus of the error operator:
        0 for singleton strata (J = 0); below linalg.ARPACK_MIN_N from the
        exact formula, which is then J's whole spectrum. Above, for a
        reversible chain 1 - 1/lambda_max of K when that is at least
        max(0, 1 - 2 min_j P_jj): R has the eigenvalues 1 and 1/(1 - p),
        p in sigma(P), so by Courant-Fischer every eigenvalue of J is at
        least min(0, p_min), and Gershgorin on the columns of P gives
        p_min >= 2 min_j P_jj - 1. Otherwise, and for a non-reversible
        chain, ARPACK on J (rho_J_direct). Kept for the last partition."""
        memo = self._memo(part)
        if part.n == self.P.n:
            return 0.0
        if "rho_J" not in memo:
            if self.P.n < linalg.ARPACK_MIN_N:
                rho = float(np.max(np.abs(self.exact_formula(part))))
            else:
                # a non-reversible chain has no certificate: -1 fails it
                rho = (1.0 - 1.0 / float(self._spectrum(part).max())
                       if self.reversible else -1.0)
                if rho < self.floor:
                    rho = rho_J_direct(error_operator(self.P, self.mu, part))
            memo["rho_J"] = rho
        return memo["rho_J"]

    def exact_formula(self, part):
        """Spectrum of J(mu) from the projected resolvent.

        With K = (I - Pi)(I - P_hat)^{-1}(I - Pi), the nonzero part of the
        spectrum of J is {1 - 1/lambda : lambda in sigma(K), lambda != 0},
        with 0 adjoined. Below linalg.ARPACK_MIN_N every eigenvalue of J;
        above, the images of K's leading eigenvalues from _spectrum,
        which are the eigenvalues of J nearest 1: rho(J) is among them
        for a reversible chain whose rho_J is certified, and can be
        missing otherwise. Singleton strata give the spectrum {0}.
        """
        return np.concatenate([1.0 - 1.0 / self._spectrum(part), [0.0]])

    def norm_bound(self, part):
        """Norm bound on rho(J).

        Reversible chain: J is self-adjoint in l2(1/mu), so its norm is
        rho(J), and rho_J is returned. Non-reversible chain: K built from
        Q = P* P puts P_hat* P_hat inside it and bounds rho^2 by
        1 - 1/||K||, with ||K|| in l2(1/mu) the largest eigenvalue of the
        symmetric M of _spectrum; its square root is returned, and a
        reducible P* P (lambda_2 = 1) raises ReducibleMatrixError. Singleton
        strata give J = 0: 0.
        """
        if self.reversible or part.n == self.P.n:
            return self.rho_J(part)
        lam = self._spectrum(part, composed=True)
        return float(np.sqrt(1.0 - 1.0 / float(lam.max())))

    def angle(self, part, k):
        """(sin^2 theta, angle bound) for the k leading eigenvectors of
        P* P; the bound is NaN when lambda_2 = 1, where it is undefined.
        Roundoff leaves a computed lambda_2 on either side of 1, so where
        it is within 1e-8 of 1 the chain's one P* P verdict decides."""
        sd = self.pairs(min(k + 1, self.P.n))
        s = sin_theta(self.P, self.mu, part, k, sd)
        if sd.lambdas[1] > 1.0 - 1e-8 and not self._irreducible_pstar_p():
            return s * s, float("nan")
        return s * s, angle_bound(sd.lambdas, s * s, k, self.reversible)

    def report(self, part, k_list=(2,)):
        """All rate quantities for one aggregation. rho_exact_formula is
        NaN when it falls short of rho_J by more than 1e-8, as the partial
        spectrum of exact_formula above linalg.ARPACK_MIN_N can."""
        sd = self.pairs(min(max(k_list, default=1) + 1, self.P.n))
        # first: a non-reversible rho_hatP takes the per-partition cache
        hat = self.rho_hatP()
        rho = self.rho_J(part)
        formula = float(np.max(np.abs(self.exact_formula(part))))
        return RateReport(
            sqrt_lambda2=float(np.sqrt(sd.lambdas[1])),
            rho_hatP=hat,
            rho_J=rho,
            rho_exact_formula=formula if formula >= rho - 1e-8 else float("nan"),
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
    of P* P, taken from sd (ChainRates.pairs or chain.pstar_p_spectrum),
    and the range of the coarse interpolation, measured in l2(1/mu),
    clamped to [0, 1].

    With V_k the eigenvectors (orthonormal in l2(1/mu)), sin^2 is the
    largest eigenvalue of the k x k Gram matrix of (I - Pi) V_k in
    l2(1/mu), i.e. of F^T F in plain coordinates, F = (I - Pi~) U_k,
    U_k = diag(1/sqrt(mu)) V_k and I - Pi~ = coarse.complement.
    """
    if not 2 <= k < P.n:
        raise ValueError(f"sin_theta: k must satisfy 2 <= k < {P.n}, got {k}")
    if sd.vectors.shape[1] < k:
        raise ValueError(f"sin_theta: sd holds {sd.vectors.shape[1]} "
                         f"eigenvectors, k = {k} needs k")
    F = complement(mu.probs, part)(sd.vectors[:, :k]
                                   / np.sqrt(mu.probs)[:, None])
    s2 = float(linalg.leading_eigs(F.T @ F, 1, symmetric=True).lambdas[0])
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
