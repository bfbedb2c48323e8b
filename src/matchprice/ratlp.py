"""Exact linear maximization over {x >= 0 : Ax <= b}, pivoting in integers.

Dictionary simplex with Bland's rule, which cannot cycle, so termination
is guaranteed.  Sized for the winner-subset pricing oracle, which solves
one small program (a handful of variables and constraints) per subset,
all subsets of one row set together.

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
own row and 0 elsewhere, so dropping it loses nothing.  A pivot on row r
and column s exchanges basis[r] and nonbasic[s]: column s takes the
leaving variable's column as the full update leaves it, -f in every other
row (f its old entry in column s) and the old d in row r; the rest of
row r is unchanged.

No cost row is kept.  The full tableau's cost row, times d, is d c minus
c_u times the row of each basic variable u, since that combination is 0 in
every basic column; a slack's c is 0.  So the reduced cost of the
nonbasic variable v in column s, times d, is d c_v minus a c_u over the
rows of the basic original variables u, a their entry in column s: the
int the Bareiss update of a cost row would hold.  It is computed from the
program's objective at each dictionary, as far as Bland's rule reads it.

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

Programs over subsets of one row set share their pivots.  After a
sequence of pivots, a dictionary row depends only on its own initial row
and bound and on the pivot rows, which are rows of the program itself: the
rows it lacks play no part.  So every program whose pivots have followed
one path sees the same rows at its end, and only its objective differs.
The slack of row i is numbered n + i over the whole row set.  A subset's
rows keep their ascending order, so its slacks compare as they would if
numbered by position among its own rows, and each of Bland's choices is
the one the program takes alone: the same pivots, every d and the vertex.
maximize_subsets runs the programs of many subsets this way, depth first
on one stack.  The programs at a dictionary are split by the pivot each
takes next (entering column, leaving row), and each part continues from
one dictionary built after that pivot.  The leaving row is the first of the
program's own rows in one order per dictionary and column (least ratio,
then least basis index), and the vertex at the end of a path is read
once for every program that ends there.  A program is a (mask, objective)
pair, carried whole from dictionary to dictionary: its reduced costs are
read from its own objective list, and its value numerator is objective . x.

maximize checks and scales its input, solves it as one program over every
row, and builds Fractions only for the vertex and its value.  The SMP
oracle calls maximize_subsets once per instance, since its rows are
already 0/1 and its bounds ints.
"""

from fractions import Fraction
import math
from operator import itemgetter, mul

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
    [(x, d, _)] = maximize_subsets(n, scaled_rows, scaled_bounds, [((1 << m) - 1, cost)])
    return Fraction(sum(map(mul, cost, x)), d * objective_scale), [Fraction(v, d) for v in x]


def maximize_subsets(n, rows, bounds, programs):
    """Many programs over subsets of one row set, solved together.

    rows are lists of n ints and bounds nonnegative ints, one per row; the
    caller guarantees both, unchecked.  Each program is a (mask, objective)
    pair: it maximizes objective . x, for objective a list of n ints,
    subject to the rows whose bits are set in mask, x >= 0.  Yields
    (x, d, done) once for each dictionary some programs end on, with done
    their masks: for each, the optimal vertex of its rows alone is x over
    d, the last pivot (d > 0, and not reduced), with every pivot the full
    tableau takes on those rows in ascending order.  No input list is
    written.  Raises InputError if some program is unbounded.
    """
    # Row i: the coefficients of the nonbasic variables nonbasic[0..n-1]
    # in the equation of basis[i], then its right-hand side.
    tableau = [[*row, b] for row, b in zip(rows, bounds)]
    # Each entry: a dictionary, the pivot (column s, row r) some programs
    # take from it next, or None at the root, and those programs.
    stack = [(tableau, list(range(n, n + len(tableau))), list(range(n)), 1, None, None, programs)]
    while stack:
        tableau, basis, nonbasic, d, s, r, programs = stack.pop()
        if s is not None:
            # The parent dictionary goes with the last entry that holds it.
            tableau, basis, nonbasic, d = _pivoted(tableau, basis, nonbasic, d, s, r)
        done = []
        parts = {}
        for program, s, r in _steps(tableau, basis, nonbasic, d, programs):
            if s is None:
                done.append(program[0])
            else:
                parts.setdefault((s, r), []).append(program)
        del programs
        stack += [(tableau, basis, nonbasic, d, s, r, part) for (s, r), part in parts.items()]
        del parts
        if done:
            x = [0] * n
            for i, variable in enumerate(basis):
                if variable < n:
                    x[variable] = tableau[i][-1]
            yield x, d, done
            del done


def _steps(tableau, basis, nonbasic, d, programs):
    """(program, s, r) for each program: the column and row of the pivot
    Bland's rule takes next on its own rows, or s None at its optimum."""
    n = len(nonbasic)
    # Least variable index first: an exchange permutes the columns.  Each
    # column's variable v, and its entries a in the rows of the basic
    # original variables u: its reduced cost times d is d c_v - sum a c_u.
    basic = [(u, row) for u, row in zip(basis, tableau) if u < n]
    columns = [(s, v, [(u, row[s]) for u, row in basic if row[s]])
               for s, v in sorted(enumerate(nonbasic), key=itemgetter(1))]
    orders = {}
    for program in programs:
        mask, c = program
        # Least variable index with a positive reduced cost (Bland).
        for s, v, entries in columns:
            reduced = d * c[v] if v < n else 0
            for u, a in entries:
                reduced -= a * c[u]
            if reduced > 0:
                break
        else:
            yield program, None, None
            continue
        order = orders.get(s)
        if order is None:
            order = orders[s] = _leaving_order(tableau, basis, s)
        # The first of its own rows in the leaving order.
        for r in order:
            if mask >> r & 1:
                break
        else:
            raise InputError("linear program is unbounded")
        yield program, s, r


def _leaving_order(tableau, basis, s):
    """The rows with a positive entry in column s, least ratio rhs / entry
    first, then least basis index (Bland).  Over the common denominator
    lcm of the entries, the ratios compare as cross-multiplication does."""
    candidates = [i for i, row in enumerate(tableau) if row[s] > 0]
    scale = math.lcm(*[tableau[i][s] for i in candidates])
    return sorted(candidates, key=lambda i: (tableau[i][-1] * (scale // tableau[i][s]), basis[i]))


def _pivoted(tableau, basis, nonbasic, d, s, r):
    """(tableau, basis, nonbasic, d) after the pivot on row r and column s.

    Every other row becomes (a*p - f*b) // d, with f its entry in column
    s, and -f in column s, which becomes the leaving variable's: d in row
    r, whose other entries are unchanged.  A row the pivot leaves
    unchanged (f = 0 and p = d) is shared with the parent, and no row is
    written.
    """
    pivot_row = tableau[r]
    p = pivot_row[s]
    pivoted = []
    for i, row in enumerate(tableau):
        if i == r:
            row = row.copy()
            row[s] = d
        elif row[s] or p != d:
            f = row[s]
            row = [(a * p - f * b) // d for a, b in zip(row, pivot_row)]
            row[s] = -f
        pivoted.append(row)
    basis = basis.copy()
    nonbasic = nonbasic.copy()
    nonbasic[s], basis[r] = basis[r], nonbasic[s]
    return pivoted, basis, nonbasic, p
