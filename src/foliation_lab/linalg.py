"""Exact sparse linear algebra over a field tower.

A matrix is a list of rows.  A row is a dict {column: nonzero entry},
as the builders make them (poly.multiplication_matrix for division,
cylinder candidates and Milnor algebras; the Sylvester rows of
poly.u_resultant), or a list of FieldElement, which is converted.  Those
matrices are mostly zeros, and the cost of dense elimination was in
handling the zeros, not in arithmetic: so one Gauss-Jordan loop works on
dict rows alone.  Its pivot search is a key lookup; it updates only the
rows that hold the pivot column, only at the pivot row's nonzero
entries, and deletes an entry that cancels.  An entry that is absent is
an exact zero, and the pivot is still the first nonzero entry of its
column at or below the current row, so the pivots, the reduced rows and
the determinant's factors are exactly those of dense elimination.
"""

from __future__ import annotations

from .fields import FieldDescriptor, FieldElement


def _sparse(row):
    """A new dict {column: nonzero entry} of a list row or a dict row;
    zeros are dropped."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {j: x for j, x in items if x}


def _width(matrix) -> int:
    """The number of columns: the length of a list row, one past the
    largest column of a dict row."""
    return max(max(row, default=-1) + 1 if isinstance(row, dict)
               else len(row) for row in matrix)


def _echelon(matrix, ncols, det_factors=None):
    """Gauss-Jordan elimination of a copy of `matrix`; `matrix` is left
    unchanged.  Returns (pivots, rows): the pivot columns and the reduced
    rows as dicts {column: nonzero entry}.

    Only the first `ncols` columns are searched for pivots; further
    columns (a right-hand side) are carried along.  When `det_factors` is
    a list, each pivot is appended before its row is scaled, negated when
    a row swap brought it up, so for a square matrix of full rank their
    product is the determinant.
    """
    rows = [_sparse(row) for row in matrix]
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, len(rows)):
            if c in rows[i]:
                break
        else:
            continue
        prow = rows[i]
        rows[r], rows[i] = prow, rows[r]
        p = prow.pop(c)
        if det_factors is not None:
            det_factors.append(-p if i != r else p)
        inv = p.inverse()
        for j, x in prow.items():
            prow[j] = x * inv
        scaled = list(prow.items())
        prow[c] = p * inv
        for k, row in enumerate(rows):
            f = row.get(c)
            if f is None or k == r:
                continue
            del row[c]  # f - f * 1 cancels
            f = -f
            for j, x in scaled:
                y = row.get(j)
                if y is None:
                    row[j] = f * x
                else:
                    y = y + f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots, rows


def rank(matrix) -> int:
    if not matrix:
        return 0
    return len(_echelon(matrix, _width(matrix))[0])


def nullspace(matrix, ncols: int, desc: FieldDescriptor):
    """Basis of the right null space of `matrix` (ncols unknowns), one
    vector per free column in increasing order.

    A reduced row holds its pivot and entries in free columns only, so
    each of its nonzero entries is negated once, into the vector of its
    free column.
    """
    zero, one = desc.zero(), desc.one()
    pivots, rows = _echelon(matrix, ncols)
    pivot_set = set(pivots)
    basis = {}
    for f in range(ncols):
        if f not in pivot_set:
            basis[f] = [zero] * ncols
            basis[f][f] = one
    for row, c in zip(rows, pivots):
        for j, x in row.items():
            if j != c:
                basis[j][c] = -x
    return list(basis.values())


def solve(matrix, rhs, desc: FieldDescriptor):
    """One solution of matrix * x = rhs, or None when inconsistent.

    x has one entry per column (see _width); the right-hand side rides
    along in the column past the last.
    """
    if not matrix:
        return None if any(rhs) else []
    ncols = _width(matrix)
    pivots, rows = _echelon([{**_sparse(row), ncols: b}
                             for row, b in zip(matrix, rhs)], ncols)
    if any(ncols in row for row in rows[len(pivots):]):
        return None
    zero = desc.zero()
    x = [zero] * ncols
    for row, c in zip(rows, pivots):
        x[c] = row.get(ncols, zero)
    return x


def det(matrix, desc: FieldDescriptor) -> FieldElement:
    n = len(matrix)
    factors = []
    if len(_echelon(matrix, n, factors)[0]) < n:
        return desc.zero()
    result = desc.one()
    for p in factors:
        result = result * p
    return result
