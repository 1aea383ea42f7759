"""Exact linear algebra: one sparse LU modulo a prime, a characteristic
polynomial, and dense elimination for the tests; nothing here touches
floating point.

lu_factor/lu_solve take sparse columns and right-hand sides as (row label,
int value) pairs, for k <= n independent columns solved many times modulo a
prime q; lu_solve checks the residual on every row and returns residues.
genfun._solve, the package's one solve, factorises modulo the first prime of
LU_PRIMES that keeps the columns independent and lifts the answer q-adically.
char_poly clears denominators and works modulo a Mersenne prime above twice
Hadamard's bound on the coefficients: Hessenberg form, then Cohen's
recurrence (Alg. 2.2.9), O(n^3) in all.  The package itself calls only
lu_factor/lu_solve, char_poly and poly_from_roots; the dense routines (rref,
rank, invert, null_space) serve the tests as references, and rref's pivot
choice affects only the amount of arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, prod
from typing import Hashable, Iterable, Sequence

from .errors import SingularMatrixError

Matrix = list[list[Fraction]]
Vector = list[Fraction]

_MERSENNE_EXPONENTS = (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281,
                       3217, 4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497)


def identity(n: int) -> Matrix:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def transpose(rows: Sequence[Sequence[Fraction]]) -> Matrix:
    return [list(col) for col in zip(*rows)] if rows else []


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Matrix:
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vector:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _pivot_size(q: Fraction) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (as a copy) and the pivot column indices."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        best = None
        for i in range(r, nrows):
            if m[i][c]:
                size = _pivot_size(m[i][c])
                if best is None or size < best[0]:
                    best = (size, i)
        if best is None:
            continue
        i = best[1]
        m[r], m[i] = m[i], m[r]
        piv = m[r][c]
        m[r] = [v / piv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def invert(rows: Sequence[Sequence[Fraction]]) -> Matrix:
    """Exact inverse of a square matrix; raises SingularMatrixError."""
    n = len(rows)
    aug = [list(row) + ident_row for row, ident_row in zip(rows, identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrixError(f"matrix of size {n} is singular")
    return [row[n:] for row in red]


# One step per pivot, in elimination order: (row, col, 1/pivot, upper, lower),
# with the pivot entry at (row, col), the rest of that row as (col, value)
# pairs, and the multipliers (other row, factor) that cleared col from the
# rows still unpivoted.  Rows are named by their labels, columns by position.
# Values are residues in [0, q).
SparseEntries = tuple[tuple[Hashable, int], ...]
LUFactors = tuple[tuple[Hashable, int, int, SparseEntries, SparseEntries], ...]

# The primes tried in turn for a factorisation: the first modulo which the columns are independent is kept.
LU_PRIMES = tuple(2**e - 1 for e in _MERSENNE_EXPONENTS if e >= 61)


def lu_factor(columns: Iterable[Iterable[tuple[Hashable, int]]], modulus: int) -> LUFactors:
    """Sparse LU factorisation modulo a prime q of n rows and k <= n
    columns, each column given as (row label, int value) pairs; raises
    SingularMatrixError unless the columns are linearly independent modulo
    q, which implies independence over Q.

    Each step pivots on the remaining column with the fewest nonzeros, then on
    that column's shortest row, ties going to the lower index or label, so the
    pivot order depends only on the sparsity pattern.  It stops after k
    pivots; the rows left unpivoted are where lu_solve checks its residual.
    """
    q = modulus
    labels: dict = {}  # one copy of each label, so the steps keep no column's own
    live: dict[Hashable, dict[int, int]] = {}
    col_rows: dict[int, set] = {}
    for j, column in enumerate(columns):
        col_rows[j] = set()
        for i, v in column:
            v %= q
            if v:
                i = labels.setdefault(i, i)
                live.setdefault(i, {})[j] = v
                col_rows[j].add(i)
    steps = []
    while col_rows:
        c = min(col_rows, key=lambda j: (len(col_rows[j]), j))
        candidates = col_rows.pop(c)
        if not candidates:
            raise SingularMatrixError(f"column {c} lies in the span of the columns pivoted before it")
        r = min(candidates, key=lambda i: (len(live[i]), i))
        prow = live.pop(r)
        inverse = pow(prow.pop(c), -1, q)
        for j in prow:
            col_rows[j].discard(r)
        candidates.discard(r)
        lower = []
        for i in candidates:
            row = live[i]
            f = row.pop(c) * inverse % q
            lower.append((i, f))
            for j, u in prow.items():
                v = (row.get(j, 0) - f * u) % q
                if v:
                    if j not in row:
                        col_rows[j].add(i)
                    row[j] = v
                elif j in row:
                    del row[j]
                    col_rows[j].discard(i)
        steps.append((r, c, inverse, tuple(prow.items()), tuple(lower)))
    return tuple(steps)


def lu_solve(factors: LUFactors, b: Iterable[tuple[Hashable, int]], modulus: int) -> list[int]:
    """The unique x, as residues in [0, q), with A x = b modulo q, for the A
    that lu_factor factorised modulo q and b given as (row label, int value)
    pairs.  Forward elimination must leave zero on every row without a pivot,
    a label that A lacks included; otherwise ValueError.
    """
    q = modulus
    y = {i: v % q for i, v in b if v}
    pivoted = []
    for r, _, _, _, lower in factors:
        v = y.pop(r, 0) % q
        pivoted.append(v)
        if v:
            for i, f in lower:
                y[i] = y.get(i, 0) - f * v
    if any(v % q for v in y.values()):
        raise ValueError("the right-hand side is not in the column span of the matrix")
    x = [0] * len(factors)
    for (_, c, inverse, upper, _), s in zip(reversed(factors), reversed(pivoted)):
        for j, u in upper:
            if x[j]:
                s -= u * x[j]
        x[c] = s * inverse % q
    return x


def null_space(rows: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Basis of the kernel; one vector per free column, free entry set to 1."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def char_poly(rows: Sequence[Sequence[int | Fraction]]) -> list[Fraction]:
    """Characteristic polynomial det(xI - A) as monic coefficients [1, c1, ..., cn]
    for x^n + c1 x^(n-1) + ... + cn, in O(n^3) operations modulo one prime.

    With L the lcm of A's denominators, L^k c_k sums k x k principal minors of
    LA, so by Hadamard it is at most B = prod_i (1 + ceil(|row_i|_2)) in size, and
    it is read off as a residue in (-P/2, P/2), P the least Mersenne prime
    2^e - 1 > 2B with e in _MERSENNE_EXPONENTS (ValueError if none).  Modulo P,
    LA is brought to Hessenberg form, then Cohen's recurrence gives the
    polynomial (A Course in Computational Algebraic Number Theory, Alg. 2.2.9).
    """
    scale = lcm(*(v.denominator for row in rows for v in row))
    h = [[int(v * scale) for v in row] for row in rows]
    n = len(h)
    # 1 + ceil(sqrt(s)) = isqrt(s - 1) + 2 for row norm^2 s > 0; an |entry| < q/2 is 0 mod q only if 0
    bound = prod(isqrt(s - 1) + 2 if s else 1 for s in (sum(v * v for v in row) for row in h))
    q = next((2**e - 1 for e in _MERSENNE_EXPONENTS if 2**e - 1 > 2 * bound), None)
    if q is None:
        raise ValueError(f"no Mersenne prime in the table exceeds twice the coefficient bound {bound}")
    for m in range(1, n - 1):
        # pivot on the first nonzero at or below h[m][m - 1], if there is one
        i = next((i for i in range(m, n) if h[i][m - 1]), m)
        h[i], h[m] = h[m], h[i]
        for row in h:
            row[i], row[m] = row[m], row[i]
        pivot_row = h[m]
        inverse = pow(pivot_row[m - 1] or 1, -1, q)  # a zero pivot leaves no row below to clear
        for i in range(m + 1, n):
            if h[i][m - 1]:
                # row i -= u row m, then column m += u column i
                row = h[i]
                u = row[m - 1] * inverse % q
                for j in range(m - 1, n):
                    if pivot_row[j]:
                        row[j] = (row[j] - u * pivot_row[j]) % q
                for r in h:
                    if r[i]:
                        r[m] = (r[m] + u * r[i]) % q
    polys = [[1]]  # p_0, p_1, ... in ascending powers of x
    for m in range(n):
        p, t = [0] + polys[m], 1
        for j in range(m, -1, -1):  # t = h_(m,m-1) h_(m-1,m-2) ... h_(j+1,j)
            f = t * h[j][m] % q
            if f:
                for k, c in enumerate(polys[j]):
                    p[k] = (p[k] - f * c) % q
            t = t * h[j][j - 1] % q
        polys.append(p)
    return [Fraction(c - q if 2 * c > q else c, scale**k) for k, c in enumerate(polys[n][::-1])]


def poly_from_roots(roots: Sequence[int | Fraction]) -> list[int | Fraction]:
    """Monic coefficients of prod (x - r), same layout as char_poly; ints for int roots."""
    coeffs = [1]
    for r in roots:
        coeffs = [c - r * (coeffs[i - 1] if i else 0) for i, c in enumerate(coeffs)] + [-r * coeffs[-1]]
    return coeffs
