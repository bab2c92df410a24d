"""Exact dense linear algebra over a field tower.

Matrices are lists of lists of FieldElement.  Sizes are small (desk scale),
so plain Gauss-Jordan elimination with exact division is adequate.  The
matrices that reach it (Sylvester matrices, and the monomial matrices of
poly.multiplication_matrix for division, cylinder candidates and Milnor
algebras) are mostly zeros, so the one elimination loop skips them: it
scales only the nonzero entries of the pivot row and updates every other
row only in those columns.  Skipping a zero changes no value, and the
pivot is still the first nonzero entry of its column at or below the
current row, so the pivots and reduced rows are exactly those of dense
elimination.
"""

from __future__ import annotations

from .fields import FieldDescriptor, FieldElement


def _echelon(rows, ncols, det_factors=None):
    """Row-reduce in place; return list of pivot column indices.

    Only the first `ncols` columns are searched for pivots; further
    columns (a right-hand side) are carried along.  When `det_factors` is
    a list, each pivot is appended before its row is scaled, negated when
    a row swap brought it up, so for a square matrix of full rank their
    product is the determinant.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        if det_factors is not None:
            det_factors.append(-p if pivot != r else p)
        inv = p.inverse()
        nz = [j for j, x in enumerate(prow) if x]
        for j in nz:
            prow[j] = prow[j] * inv
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                for j in nz:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(matrix, desc: FieldDescriptor) -> int:
    if not matrix:
        return 0
    rows = [list(row) for row in matrix]
    return len(_echelon(rows, len(rows[0])))


def nullspace(matrix, ncols: int, desc: FieldDescriptor):
    """Basis of the right null space of `matrix` (ncols unknowns)."""
    zero, one = desc.zero(), desc.one()
    if not matrix:
        basis = []
        for j in range(ncols):
            v = [zero] * ncols
            v[j] = one
            basis.append(v)
        return basis
    rows = [list(row) for row in matrix]
    pivots = _echelon(rows, ncols)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(v)
    return basis


def solve(matrix, rhs, desc: FieldDescriptor):
    """One solution of matrix * x = rhs, or None when inconsistent."""
    n = len(matrix)
    if n == 0:
        return None if any(rhs) else []
    ncols = len(matrix[0])
    rows = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivots = _echelon(rows, ncols)
    for r in range(len(pivots), n):
        if rows[r][ncols]:
            return None
    x = [desc.zero()] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols]
    return x


def det(matrix, desc: FieldDescriptor) -> FieldElement:
    n = len(matrix)
    result = desc.one()
    if n == 0:
        return result
    factors = []
    if len(_echelon([list(row) for row in matrix], n, factors)) < n:
        return desc.zero()
    for p in factors:
        result = result * p
    return result
