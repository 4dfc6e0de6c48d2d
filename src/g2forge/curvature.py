"""Curvature of left-invariant metrics on Lie algebras.

The Levi-Civita connection comes from the Koszul formula on invariant
fields, as n matrices over one denominator: N_i is the matrix of
nabla_{e_i}, whose column j is nabla_{e_i} e_j.  Curvature is then
R(e_i, e_j) = [N_i, N_j] - N_[e_i,e_j], the matrix of
Z -> nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z, and
Ric(e_j, e_k) = sum_i e^i(R(e_i, e_j) e_k) = (t N_j)_k
- sum_{x,y} (N_j[x][y] + c^x_yj) N_x[y][k], t_a = sum_i N_i[i][a], with no
product N_i N_j.  riemann reads R_ijkl = P[l][k] - P[k][l] - sum_m c^m_ij
M_m[l][k], P = M_i N_j, at i < j and k < l, from the antisymmetric
M_i = g N_i (Milnor 1976): (M_j N_i)[l][k] = (M_i N_j)[k][l].  These
choices are anchored to the worked nilsoliton example (see the test suite).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple, Optional, Tuple

from . import linalg
from .exterior import scaled
from .liealg import (MetricLieAlgebra, derivation_defect, is_nilpotent,
                     structure_rows)
from .scalars import Scalar, is_zero


class ConnectionCoeffs(NamedTuple):
    """stacked[i*n + a][b] = den N_i[a][b] (0-based); matrices are the N_i.
    lowered[i*n + l][k] = dk M_i[l][k] = dk g(nabla_i e_k, e_l)."""

    den: int
    stacked: Tuple[tuple, ...]
    dk: int
    lowered: Tuple[tuple, ...]

    @property
    def matrices(self) -> Tuple[linalg.Matrix, ...]:
        n = len(self.stacked[0])
        return tuple(tuple(tuple(linalg.over(x, self.den) for x in row)
                           for row in self.stacked[i * n:(i + 1) * n])
                     for i in range(n))


class CurvatureTensors:
    """ricci, scal and riemann, (i,j,k,l) -> g(R(e_i,e_j)e_k, e_l) 1-based,
    in its four signs from lowered = (den, den * R_ijkl) at i<j and k<l only,
    integer sums on exact input, which lower() returns on first read."""

    def __init__(self, lower, ricci: linalg.Matrix, scal: Scalar):
        self._lower, self.ricci, self.scal = lower, ricci, scal

    @cached_property
    def lowered(self) -> Tuple[int, dict]:
        """(den, {(i, j, k, l): den R_ijkl}) at i < j and k < l, nonzero."""
        return self._lower()

    @cached_property
    def riemann(self) -> dict:
        (den, sums), full = self.lowered, {}
        for (i, j, k, l), x in sums.items():
            r = linalg.over(x, den)
            full[i, j, k, l] = full[j, i, l, k] = r
            full[j, i, k, l] = full[i, j, l, k] = -r
        return full


def levi_civita(m: MetricLieAlgebra) -> ConnectionCoeffs:
    """Koszul formula 2 g(nabla_i e_j, e_k) = g([e_i,e_j],e_k)
    - g([e_j,e_k],e_i) + g([e_k,e_i],e_j) on left-invariant fields: den N_i
    and dk M_i, integers on exact input; on float input den = dk = 2."""
    algebra, g = m.algebra, m.metric
    n = algebra.dim
    if not g.is_positive_definite(scaled(1e-12, g.matrix)):
        raise ValueError("metric must be positive definite")
    dc, c = structure_rows(algebra)
    dg, gs = linalg.clear_rows(g.matrix)
    # low[k][a*n + b] = g([e_a, e_b], e_k) dg dc: every bracket in one product
    low = linalg.mat_mul(gs, c)
    # koszul[k][i*n + j] = 2 g(nabla_i e_j, e_k) dg dc
    koszul = [[low[k][i * n + j] - low[i][j * n + k] + low[j][k * n + i]
               for i in range(n) for j in range(n)] for k in range(n)]
    # raising k: flat[a][i*n + b] = N_i[a][b] den
    di, ginv = linalg.clear_rows(g.inverse)
    flat, den = linalg.mat_mul(ginv, koszul), 2 * dg * dc * di
    nab, low = (tuple(row[i * n:(i + 1) * n] for i in range(n) for row in x)
                for x in (flat, koszul))
    return ConnectionCoeffs(den, nab, 2 * dg * dc, low)


def curvature_tensors(m: MetricLieAlgebra) -> CurvatureTensors:
    """Ricci in two products, on integers over dc dn^2 on exact input (N_i
    over dn, c over dc); riemann is built on its first read."""
    algebra, g = m.algebra, m.metric
    n = algebra.dim
    dn, stacked, dk, lowered = levi_civita(m)
    nab = [stacked[i * n:(i + 1) * n] for i in range(n)]
    dc, c = structure_rows(algebra)
    zero = linalg.ring_zero(stacked)     # Polynomial() in that ring
    # Ricci: t = sum_i N_i[i] times side[a][j*n + b] = N_j[a][b], and the
    # N_x[y] summed against coupled[j][x*n + y] = N_j[x][y] + c^x_yj
    side = [[x for nm in nab for x in nm[a]] for a in range(n)]
    trace = [list(map(sum, zip(*stacked[::n + 1])))]
    coupled = [[dc * nab[j][x][y] + dn * c[x][y * n + j] for x in range(n)
                for y in range(n)] for j in range(n)]
    (tn,), sq = linalg.mat_mul(trace, side), linalg.mat_mul(coupled, stacked)
    ricci = [[zero + (dc * tn[j * n + k] - sq[j][k]) for k in range(n)]
             for j in range(n)]
    den = dc * dn * dn

    def lower() -> Tuple[int, dict]:
        # R_ijkl dc dk dn = dc (P[l][k] - P[k][l]) - dn sum_m c^m_ij M_m[l][k]
        sums, low = {}, [lowered[i * n:(i + 1) * n] for i in range(n)]
        for i in range(n - 1):
            # prod[l][(j - i - 1) n + k] = (M_i N_j)[l][k] dk dn for all j > i
            prod = linalg.mat_mul(low[i], [r[(i + 1) * n:] for r in side])
            for j in range(i + 1, n):
                q = (j - i - 1) * n
                terms = [(c[mm][i * n + j], low[mm]) for mm in range(n)
                         if c[mm][i * n + j]]
                for k, l in combinations(range(n), 2):
                    x = dc * (prod[l][q + k] - prod[k][q + l]) - dn * sum(
                        cm * lm[l][k] for cm, lm in terms)
                    if x:
                        sums[(i + 1, j + 1, k + 1, l + 1)] = x
        return dc * dk * dn, sums
    di, ginv = linalg.clear_rows(g.inverse)
    scal = sum((ginv[j][k] * ricci[j][k] for j in range(n) for k in range(n)
                if ricci[j][k]), zero)
    ricci = tuple(tuple(linalg.over(x, den) for x in row) for row in ricci)
    return CurvatureTensors(lower, ricci, linalg.over(scal, di * den))


def ricci_operator(m: MetricLieAlgebra,
                   tensors: Optional[CurvatureTensors] = None) -> linalg.Matrix:
    """Ricci endomorphism g^{-1} Ric."""
    if tensors is None:
        tensors = curvature_tensors(m)
    return linalg.mat_mul(m.metric.inverse, tensors.ricci)


def einstein_constant(m: MetricLieAlgebra,
                      tensors: Optional[CurvatureTensors] = None,
                      tol: float = 1e-10) -> Optional[Scalar]:
    """lambda with Ric = lambda g, or None.  A float entry of Ric - lambda g
    is zero within scaled(tol, g, g^-1, c, c) = kappa tol max|c|^2, c the
    coefficients of the de^k and kappa = max|g| max|g^-1|: Ric is quadratic
    in c, so the verdict does not change with the scale of c or of g."""
    if tensors is None:
        tensors = curvature_tensors(m)
    g = m.metric
    n = g.dim
    # candidate from the first diagonal entry
    lam = tensors.ricci[0][0] / g.matrix[0][0]
    c = [f.coeffs.values() for f in m.algebra.d_coframe]
    bound = scaled(tol, g.matrix, g.inverse, c, c)
    for i in range(n):
        for j in range(n):
            if not is_zero(tensors.ricci[i][j] - lam * g.matrix[i][j], bound):
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

    Ric - cI is a derivation exactly when L(Ric) = c L(I), for the L of
    ``liealg.derivation_defect``: solved by ``linalg.solve`` on the rows
    where either side is nonzero, exactly over rationals, by least squares
    over floats with a residual bound of ``scaled(tol, Ric)``.  D = Ric - cI.
    ``tensors`` reuses the curvature of m when the caller has it.
    """
    algebra = m.algebra
    nilp, _ = is_nilpotent(algebra)
    if not nilp:
        raise ValueError("nilsoliton criterion needs a nilpotent algebra")
    n = algebra.dim
    ric_op = ricci_operator(m, tensors)
    # entry (i<j, k) of L(I) = -[e_i, e_j] is the e^ij coefficient of de^k
    li = (f.coeffs.get(p, 0) for p in combinations(range(1, n + 1), 2)
          for f in algebra.d_coframe)
    # with no nonzero row (abelian), 0 = c 0 keeps c = 0 in the ring of Ric
    rows = [(x, y) for x, y in zip(derivation_defect(algebra, ric_op), li)
            if x or y] or [(linalg.ring_zero(ric_op),) * 2]
    sol = linalg.solve(tuple((y,) for _, y in rows), [x for x, _ in rows],
                       scaled(tol, ric_op))
    if sol is None:
        return None
    (c_val,) = sol
    d = tuple(tuple(ric_op[p][q] - c_val if p == q else ric_op[p][q]
                    for q in range(n)) for p in range(n))
    return NilsolitonWitness(constant=c_val, derivation=d)

