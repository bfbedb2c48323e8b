"""Exact linear maximization over {x >= 0 : Ax <= b}, pivoting in integers.

Dictionary simplex with Bland's rule, which cannot cycle, so termination
is guaranteed.  Sized for the winner-subset pricing oracle, which solves
one small program (a handful of variables and constraints) per subset.

The dictionary holds only ints.  Each constraint row is scaled together
with its bound by the lcm of their denominators, and the objective by its
own lcm; the slacks start as the basis with coefficient 1.  Pivots then
follow the integer-preserving (fraction-free) elimination of E. H.
Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22 (1968): the integer entries are d times the
rational ones, where d is the previous pivot (1 at the start), and the
update T[i][j] = (T[i][j]*p - T[i][s]*T[r][j]) // d divides exactly.

The dictionary is the full tableau without its basic columns, as lrs
pivots it (D. Avis, "lrs: a revised implementation of the reverse search
vertex enumeration algorithm", 2000): a column per nonbasic variable plus
the right-hand side, a row per basic variable.  A basic column is d in its
own row, 0 elsewhere and in the cost row, so dropping it loses nothing.
A pivot on row r and column s exchanges basis[r] and nonbasic[s]: column
s takes the leaving variable's column as the full update leaves it, -f in
every other row and the cost row (f their old entry in column s) and the
old d in row r; the rest of row r is unchanged.

Every pivot is the one Bland's rule takes on the unscaled program.
Scaling a row by a positive factor leaves its ratios b_i / a_is unchanged.
Keeping its slack coefficient 1 rescales that slack variable, which
multiplies the slack's reduced cost, and every ratio in its column, by one
positive factor; scaling the objective multiplies every reduced cost by
one.  And d > 0 throughout, so the integer entries have the signs of the
rational ones.  Hence the signs of the reduced costs, the order of the
ratios (compared by cross-multiplication) and the ties among them are the
same.  The entering variable is the least variable index with a positive
reduced cost, as over the full tableau's columns (a basic one has reduced
cost 0), and not the least column position, which exchanges permute.  So
the entering variable, the leaving row, every d and the vertex returned
are those of the full tableau.

maximize_int is that pivot loop alone: int entries in, the value and
vertex out as ints over the last pivot.  maximize checks and scales its
input, calls it, and builds Fractions only for the vertex and its value.
The SMP oracle calls maximize_int directly, since its rows are already
0/1 and its bounds ints.
"""

from fractions import Fraction
import math

from .errors import InputError


def _scaled(values) -> tuple[int, list[int]]:
    """(s, values times s) for s the lcm of their denominators; ints or Fractions."""
    scale = math.lcm(*[v.denominator for v in values])
    if scale == 1:
        return 1, [v.numerator for v in values]
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _checked(values) -> list:
    """values, refused unless every entry is an int or a Fraction (not a bool)."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise InputError(f"linear program entries must be ints or Fractions, got {type(v).__name__}")
    return values


def maximize(objective, rows, bounds) -> tuple[Fraction, list[Fraction]]:
    """Maximize objective . x subject to rows[i] . x <= bounds[i], x >= 0.

    Entries are ints or Fractions.  All bounds must be nonnegative (the
    origin is then a feasible basis and no phase-1 is needed).  Returns
    (optimal value, an optimal vertex x), all Fractions.  Raises InputError
    on malformed input or an unbounded program.
    """
    n = len(objective)
    m = len(rows)
    if len(bounds) != m:
        raise InputError(f"{m} constraint rows but {len(bounds)} bounds")
    if any(b < 0 for b in _checked(bounds)):
        raise InputError("bounds must be nonnegative for the slack-basis start")
    scaled_rows = []
    scaled_bounds = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InputError(f"constraint row {i} has {len(row)} coefficients, want {n}")
        _, scaled = _scaled([*_checked(row), bounds[i]])
        scaled_rows.append(scaled[:n])
        scaled_bounds.append(scaled[n])
    objective_scale, cost = _scaled(_checked(objective))
    value, x, d = maximize_int(cost, scaled_rows, scaled_bounds)
    return Fraction(value, d * objective_scale), [Fraction(v, d) for v in x]


def maximize_int(objective, rows, bounds) -> tuple[int, list[int], int]:
    """maximize on int entries, with no checks and no scaling.

    The caller guarantees ints only, len(bounds) == len(rows), every row of
    len(objective) entries and every bound nonnegative.  Returns
    (value numerator, vertex numerators, d): the optimal value and vertex
    are those ints over d, the last pivot (d > 0, and not reduced).
    The dictionary is built from copies, so the caller's lists are never
    written.  Raises InputError on an unbounded program.
    """
    n = len(objective)
    # Row i: the coefficients of the nonbasic variables nonbasic[0..n-1]
    # in the equation of basis[i], then its right-hand side.
    tableau = [[*row, b] for row, b in zip(rows, bounds)]
    # Reduced costs; the rhs entry accumulates -(objective value) times d.
    cost = [*objective, 0]
    nonbasic = list(range(n))
    basis = list(range(n, n + len(tableau)))
    d = 1

    while True:
        # Least variable index with a positive reduced cost (Bland).
        s = None
        for j in range(n):
            if cost[j] > 0 and (s is None or nonbasic[j] < nonbasic[s]):
                s = j
        if s is None:
            break
        # Least ratio rhs / column entry, then least basis index (Bland).
        r = None
        for i, row in enumerate(tableau):
            a = row[s]
            if a > 0:
                if r is None:
                    r, p, b_r = i, a, row[-1]
                    continue
                lhs = row[-1] * p
                rhs = b_r * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r, p, b_r = i, a, row[-1]
        if r is None:
            raise InputError("linear program is unbounded")

        # Exchange: column s becomes the leaving variable's, -f in every
        # other row and d in row r; row r is otherwise unchanged.
        pivot_row = tableau[r]
        for i, row in enumerate(tableau):
            f = row[s]
            if i != r and (f or p != d):
                row = tableau[i] = [(a * p - f * b) // d for a, b in zip(row, pivot_row)]
                row[s] = -f
        f = cost[s]
        cost = [(a * p - f * b) // d for a, b in zip(cost, pivot_row)]
        cost[s] = -f
        pivot_row[s] = d
        nonbasic[s], basis[r] = basis[r], nonbasic[s]
        d = p

    x = [0] * n
    for i, variable in enumerate(basis):
        if variable < n:
            x[variable] = tableau[i][-1]
    return -cost[-1], x, d
