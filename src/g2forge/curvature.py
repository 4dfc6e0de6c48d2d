"""Curvature of left-invariant metrics on Lie algebras.

The Levi-Civita connection comes from the Koszul formula on invariant
fields; curvature uses R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_[X,Y] Z and Ric(Y,Z) = trace of X -> R(X,Y)Z.  These choices are
anchored to the worked nilsoliton example (see the test suite).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from . import linalg
from .exterior import Vector
from .liealg import MetricLieAlgebra, is_derivation, is_nilpotent, \
    derivation_space
from .scalars import Scalar, is_zero


@dataclass(frozen=True)
class ConnectionCoeffs:
    """gamma[i][j][k]: coefficient of e_k in nabla_{e_i} e_j (0-based)."""

    gamma: Tuple[Tuple[Tuple[Scalar, ...], ...], ...]


@dataclass(frozen=True)
class CurvatureTensors:
    riemann: dict          # (i,j,k,l) -> R_ijkl = g(R(e_i,e_j)e_k, e_l), 1-based
    ricci: linalg.Matrix
    scal: Scalar


def levi_civita(m: MetricLieAlgebra) -> ConnectionCoeffs:
    """Koszul formula 2 g(nabla_i e_j, e_k) = g([e_i,e_j],e_k)
    - g([e_j,e_k],e_i) + g([e_k,e_i],e_j) on left-invariant fields."""
    algebra, g = m.algebra, m.metric
    n = algebra.dim
    if not g.is_positive_definite(1e-12):
        raise ValueError("metric must be positive definite")
    ginv = g.inverse
    brackets = [[algebra.bracket_basis(i + 1, j + 1) for j in range(n)]
                for i in range(n)]

    def pair(v: Vector, idx: int) -> Scalar:
        # g(v, e_idx), 0-based idx
        total: Scalar = Fraction(0)
        for a, va in enumerate(v.components):
            if not is_zero(va):
                total = total + va * g.matrix[a][idx]
        return total

    gamma = []
    for i in range(n):
        gi = []
        for j in range(n):
            w = []
            for k in range(n):
                val = (pair(brackets[i][j], k)
                       - pair(brackets[j][k], i)
                       + pair(brackets[k][i], j))
                w.append(val / 2)
            # raise the index with the inverse metric
            gi.append(tuple(
                sum((ginv[kk][m_] * w[m_] for m_ in range(n)), Fraction(0))
                for kk in range(n)))
        gamma.append(tuple(gi))
    return ConnectionCoeffs(tuple(gamma))


def _nabla(coeffs: ConnectionCoeffs, i: int, v: Vector) -> Vector:
    """nabla_{e_i} v for constant-coefficient v (0-based i)."""
    n = v.dim
    out = [Fraction(0)] * n
    for j, vj in enumerate(v.components):
        if is_zero(vj):
            continue
        for k in range(n):
            gk = coeffs.gamma[i][j][k]
            if not is_zero(gk):
                out[k] = out[k] + vj * gk
    return Vector(n, tuple(out))


def curvature_tensors(m: MetricLieAlgebra,
                      coeffs: Optional[ConnectionCoeffs] = None
                      ) -> CurvatureTensors:
    algebra, g = m.algebra, m.metric
    n = algebra.dim
    if coeffs is None:
        coeffs = levi_civita(m)
    basis = [Vector.basis(n, i) for i in range(1, n + 1)]
    # R(e_i, e_j) e_k as vectors, for i < j
    rvec = {}
    for i in range(n):
        for j in range(i + 1, n):
            bij = algebra.bracket_basis(i + 1, j + 1)
            for k in range(n):
                term1 = _nabla(coeffs, i, _nabla(coeffs, j, basis[k]))
                term2 = _nabla(coeffs, j, _nabla(coeffs, i, basis[k]))
                term3 = [Fraction(0)] * n
                for mm, cm in enumerate(bij.components):
                    if is_zero(cm):
                        continue
                    nb = _nabla(coeffs, mm, basis[k])
                    for t in range(n):
                        term3[t] = term3[t] + cm * nb.components[t]
                comps = tuple(a - b - c for a, b, c in
                              zip(term1.components, term2.components, term3))
                rvec[(i, j, k)] = comps

    def rcomp(i, j, k):
        if i == j:
            return None
        if i < j:
            return rvec[(i, j, k)]
        return tuple(-x for x in rvec[(j, i, k)])

    riemann = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(n):
                comps = rcomp(i, j, k)
                for l in range(n):
                    val: Scalar = Fraction(0)
                    for a, ca in enumerate(comps):
                        if not is_zero(ca):
                            val = val + ca * g.matrix[a][l]
                    if not is_zero(val):
                        riemann[(i + 1, j + 1, k + 1, l + 1)] = val
    # Ric(e_j, e_k) = sum_i e^i(R(e_i, e_j) e_k); the sums start from a
    # zero of the inputs' ring, so an entry no term reaches is 0.0 in floats
    float_ring = algebra.is_float_ring() or any(
        isinstance(x, float) for row in g.matrix for x in row)
    zero: Scalar = 0.0 if float_ring else Fraction(0)
    ricci_rows = []
    for j in range(n):
        row = []
        for k in range(n):
            total = zero
            for i in range(n):
                if i == j:
                    continue
                total = total + rcomp(i, j, k)[i]
            row.append(total)
        ricci_rows.append(row)
    ricci = linalg.mat(ricci_rows)
    ginv = g.inverse
    scal = zero
    for j in range(n):
        for k in range(n):
            if not is_zero(ricci[j][k]):
                scal = scal + ginv[j][k] * ricci[j][k]
    return CurvatureTensors(riemann=riemann, ricci=ricci, scal=scal)


def ricci_operator(m: MetricLieAlgebra,
                   tensors: Optional[CurvatureTensors] = None) -> linalg.Matrix:
    """Ricci endomorphism g^{-1} Ric."""
    if tensors is None:
        tensors = curvature_tensors(m)
    return linalg.mat_mul(m.metric.inverse, tensors.ricci)


def einstein_constant(m: MetricLieAlgebra,
                      tensors: Optional[CurvatureTensors] = None,
                      tol: float = 1e-10) -> Optional[Scalar]:
    """lambda with Ric = lambda g, or None."""
    if tensors is None:
        tensors = curvature_tensors(m)
    g = m.metric
    n = g.dim
    # candidate from the first diagonal entry
    lam = tensors.ricci[0][0] / g.matrix[0][0]
    for i in range(n):
        for j in range(n):
            if not is_zero(tensors.ricci[i][j] - lam * g.matrix[i][j], tol):
                return None
    return lam


@dataclass(frozen=True)
class NilsolitonWitness:
    constant: Scalar
    derivation: linalg.Matrix


def nilsoliton_check(m: MetricLieAlgebra, tol: float = 1e-10,
                     tensors: Optional[CurvatureTensors] = None
                     ) -> Optional[NilsolitonWitness]:
    """Solve Ric = c I + D with D a derivation of the nilpotent algebra.

    Linear feasibility in (c, coordinates of D in the derivation space),
    solved by ``linalg.solve``: exact over rationals, least squares with a
    residual threshold over floats.  ``tensors`` reuses the curvature of m
    when the caller has it.
    """
    algebra = m.algebra
    nilp, _ = is_nilpotent(algebra)
    if not nilp:
        raise ValueError("nilsoliton criterion needs a nilpotent algebra")
    n = algebra.dim
    ric_op = ricci_operator(m, tensors)
    basis = derivation_space(algebra)
    rows = []
    rhs = []
    for p in range(n):
        for q in range(n):
            row = [Fraction(1) if p == q else Fraction(0)]
            for b in basis:
                row.append(b[p][q])
            rows.append(row)
            rhs.append(ric_op[p][q])
    sol = linalg.solve(linalg.mat(rows), rhs, tol)
    if sol is None:
        return None
    c_val = sol[0]
    d = tuple(tuple(ric_op[p][q] - c_val if p == q else ric_op[p][q]
                    for q in range(n)) for p in range(n))
    if not is_derivation(algebra, d, tol=max(tol, 1e-8)):
        return None
    return NilsolitonWitness(constant=c_val, derivation=d)


def connection_satisfies_invariants(m: MetricLieAlgebra,
                                    coeffs: Optional[ConnectionCoeffs] = None,
                                    tol: float = 0.0) -> bool:
    """Metric compatibility and torsion-freeness of the Koszul connection."""
    algebra, g = m.algebra, m.metric
    n = algebra.dim
    if coeffs is None:
        coeffs = levi_civita(m)
    basis = [Vector.basis(n, i) for i in range(1, n + 1)]
    for i in range(n):
        for j in range(n):
            nij = _nabla(coeffs, i, basis[j])
            for k in range(n):
                nik = _nabla(coeffs, i, basis[k])
                # g(nabla_i e_j, e_k) + g(e_j, nabla_i e_k) = 0
                val: Scalar = Fraction(0)
                for a in range(n):
                    val = val + nij.components[a] * g.matrix[a][k]
                    val = val + nik.components[a] * g.matrix[a][j]
                if not is_zero(val, tol):
                    return False
    for i in range(n):
        for j in range(i + 1, n):
            nij = _nabla(coeffs, i, basis[j])
            nji = _nabla(coeffs, j, basis[i])
            br = algebra.bracket_basis(i + 1, j + 1)
            for a in range(n):
                if not is_zero(nij.components[a] - nji.components[a]
                               - br.components[a], tol):
                    return False
    return True
