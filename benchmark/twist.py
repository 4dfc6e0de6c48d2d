"""Fixed integer changes of coframe for the ``twisted`` workload.

A catalog structure lives on a coframe e^1..e^n.  The twisted input is the
same structure written on the coframe f = P e, where P is a fixed dense
integer matrix of determinant +1 (so P^-1 = Q is integral too and the
orientation is kept).  Substituting e^j = sum_i Q[j][i] f^i rewrites every
form; the metric becomes Q^T g Q.  det g and det B are unchanged, so the
program's exact ring stays exact on the twisted input.

Forms here are plain dicts {sorted index tuple: Fraction}; nothing in this
module calls the program, so the checks that rewrite the program's outputs
back into the catalog coframe are computed apart from it.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

Form = Dict[Tuple[int, ...], Fraction]
Matrix = List[List[Fraction]]

# f = P7 e on the 7-dimensional extension n28_ext.  Every entry of the
# inverse Q7 = P7^-1 (which rewrites the inputs) is nonzero.
P7: Tuple[Tuple[int, ...], ...] = (
    (1, 0, -1, 0, 1, 0, -1),
    (-1, 1, 0, 0, -1, 0, 1),
    (1, -1, 1, 0, 1, -1, -1),
    (1, -1, -1, 1, 2, 1, -1),
    (1, 1, -2, -1, 1, -1, 0),
    (0, 0, -1, 1, 1, 2, 1),
    (-1, 1, 1, 1, -1, 1, 2),
)

# f = P6 e on the 6-dimensional n28; Q6 = P6^-1 has every entry nonzero.
P6: Tuple[Tuple[int, ...], ...] = (
    (1, -1, -1, 0, 0, -1),
    (1, 0, -2, -1, 1, -2),
    (0, 0, 1, 1, 0, 0),
    (-1, 1, 2, 2, 1, 1),
    (1, -2, -1, -1, -1, 1),
    (0, 0, 1, 1, 1, 2),
)


def det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for k in range(c, n):
                    a[r][k] -= f * a[c][k]
    return out


def inverse(m: Sequence[Sequence[Fraction]]) -> Matrix:
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def matmul(a, b) -> Matrix:
    return [[sum((Fraction(a[i][k]) * b[k][j] for k in range(len(b))),
                 Fraction(0)) for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a) -> Matrix:
    return [list(col) for col in zip(*a)]


def substitute(form: Form, m, dim: int) -> Form:
    """Rewrite a form given on e^1..e^n in a coframe f with e^j = sum_i m[j][i] f^i.

    e^I = sum_J det(m[I, J]) f^J for every increasing multi-index J.
    """
    out: Form = {}
    for idx, c in form.items():
        for tgt in combinations(range(1, dim + 1), len(idx)):
            minor = det([[m[i - 1][j - 1] for j in tgt] for i in idx])
            if minor:
                out[tgt] = out.get(tgt, Fraction(0)) + c * minor
    return {k: v for k, v in out.items() if v}


class Twist:
    """The change of coframe f = P e and its inverse Q, both integral."""

    def __init__(self, p):
        self.p = [[Fraction(x) for x in row] for row in p]
        self.dim = len(p)
        if det(self.p) != 1:
            raise ValueError("a twist must have determinant +1")
        self.q = inverse(self.p)
        if any(x.denominator != 1 for row in self.q for x in row):
            raise ValueError("the inverse of a twist must be integral")

    def form(self, form: Form) -> Form:
        """A catalog-coframe form, written on the twisted coframe."""
        return substitute(form, self.q, self.dim)

    def untwist_form(self, form: Form) -> Form:
        """A twisted-coframe form, written back on the catalog coframe."""
        return substitute(form, self.p, self.dim)

    def structure(self, d_coframe: Sequence[Form]) -> List[Form]:
        """df^i = sum_j P[i][j] de^j, each written on the twisted coframe."""
        out = []
        for i in range(self.dim):
            acc: Form = {}
            for j in range(self.dim):
                if self.p[i][j]:
                    for idx, c in d_coframe[j].items():
                        acc[idx] = acc.get(idx, Fraction(0)) + self.p[i][j] * c
            out.append(self.form({k: v for k, v in acc.items() if v}))
        return out

    def metric(self, g) -> Matrix:
        """The bilinear form g (on catalog vectors) on the twisted frame: Q^T g Q."""
        return matmul(transpose(self.q), matmul(g, self.q))

    def untwist_metric(self, g) -> Matrix:
        return matmul(transpose(self.p), matmul(g, self.p))


# ---------------------------------------------------------------------------
# text in the program's grammar
# ---------------------------------------------------------------------------

_TERM = re.compile(r"([+-]?)\s*(?:(\d+)(?:/(\d+))?\*?)?e(\d+)")


def parse(text: str) -> Form:
    """Sums like ``e13-2*e24+1/2*e56``; enough for catalog inputs and outputs."""
    text = text.replace(" ", "")
    if text in ("", "0"):
        return {}
    out: Form = {}
    pos = 0
    for m in _TERM.finditer(text):
        if m.start() != pos:
            raise ValueError("cannot parse %r at %d" % (text, pos))
        pos = m.end()
        sign, num, den, digits = m.groups()
        c = Fraction(int(num) if num else 1, int(den) if den else 1)
        if sign == "-":
            c = -c
        idx = tuple(int(ch) for ch in digits)
        if list(idx) != sorted(set(idx)):
            raise ValueError("unsorted monomial in %r" % text)
        out[idx] = out.get(idx, Fraction(0)) + c
    if pos != len(text):
        raise ValueError("cannot parse %r at %d" % (text, pos))
    return {k: v for k, v in out.items() if v}


def parse_structure(text: str) -> List[Form]:
    inner = text.strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise ValueError("structure equations must be parenthesized")
    return [parse(piece) for piece in inner[1:-1].split(",")]


def render(form: Form) -> str:
    if not form:
        return "0"
    parts = []
    for idx in sorted(form):
        c = form[idx]
        mag = abs(c)
        body = "e" + "".join(str(i) for i in idx)
        coeff = "" if mag == 1 else "%s*" % mag
        parts.append(("-" if c < 0 else "+") + coeff + body)
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


def render_structure(d_coframe: Sequence[Form]) -> str:
    return "(%s)" % ",".join(render(f) for f in d_coframe)


def render_metric(g) -> str:
    """Rows separated by ';', entries by ',' as ``metric analyze --metric`` reads."""
    return ";".join(",".join(str(Fraction(x)) for x in row) for row in g)
