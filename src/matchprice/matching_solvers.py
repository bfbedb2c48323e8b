"""Induced matching solvers: an exact bipartite routine that is practical
well past the generic oracle caps, and r-block approximation algorithms for
both graph kinds.

The exact routine rests on a good-neighbour characterisation: a left set U'
is saturated by some induced matching iff every u in U' has a neighbour
adjacent to no other member of U'.  Such sets are downward closed, so a
depth-first scan over subsets of the smaller side can prune the moment a
partial set loses the property, and Östergård's max-clique scheme (2002)
bounds it: sweeping the start index down from the last vertex, it records
the largest valid set within each suffix and cuts any branch that the
suffix it still draws from cannot complete.

The approximation algorithms split one side (bipartite: the smaller side;
general: all vertices) into r round-robin residue classes and solve each
class exactly.  Any induced matching spreads its edges over the classes, so
the best class carries at least ceil(opt / r) of them, and the sum of the
class optima is at least opt.  The exact bipartite routine is the one-class
case of the bipartite block solver, so both scan the same side.
"""

from __future__ import annotations

from . import caps
from .errors import InputError, InvariantViolation
from .graphs import (
    BipartiteGraph,
    Graph,
    Matching,
    _edge_conflicts_induced,
    _mis_lex_witness,
    bit_indices,
    is_induced_matching,
)


def round_robin_blocks(n: int, r: int) -> list[list[int]]:
    """Residue classes {v < n : v mod r == b} for b = 0..r-1."""
    if r < 1:
        raise InputError(f"block count must be at least 1, got {r}")
    return [list(range(b, n, r)) for b in range(r)]


# ---------------------------------------------------------------------------
# exact bipartite solver


def _scan_side_maximum(masks: list[int]) -> list[tuple[int, int]]:
    """Largest subset S of indices such that every i in S has a bit of
    masks[i] outside the union of the other chosen masks; among maximum
    subsets, the lexicographically least.  Returns (i, those private bits)
    for each i in S, ascending.  Masks may be arbitrarily wide.

    The property is hereditary, so Östergård's suffix bound applies:
    bound[j] is the size of the largest valid subset of indices j..n-1.  A
    sweep from i = n-1 down to 0 asks only whether some valid set has least
    index i and bound[i+1] + 1 members, stops at the first one, and cuts a
    branch at index j once bound[j] falls below the members still needed.
    Searches run in index order, so each finds the least set it asks for.
    Every maximum subset starts at or before the index k where the bound
    last grew, and the sweep's step at k found the least one starting
    there; a search for bound[0] members from each index before k in turn
    finds any lesser one.

    When every mask keeps a bit that no other mask holds, all n indices
    form a valid set, the one maximum, and no search is needed."""
    n = len(masks)
    seen = shared = 0
    for m in masks:
        shared |= seen & m
        seen |= m
    if all(m & ~shared for m in masks):
        return [(i, m & ~shared) for i, m in enumerate(masks)]
    bound = [0] * (n + 1)

    def extend(start: int, chosen: list[int], privates: list[int], union_mask: int,
               need: int) -> list[tuple[int, int]] | None:
        # add `need` indices from start on to chosen and return the pairs,
        # or None; every chosen mask keeps a private bit (privates[k] is
        # what is left of chosen[k]'s)
        if not need:
            return list(zip(chosen, privates))
        for i in range(start, n):
            if bound[i] < need:
                return None
            m = masks[i]
            fresh = m & ~union_mask
            if not fresh:
                continue
            shrunk = []
            alive = True
            for p in privates:
                q = p & ~m
                if not q:
                    alive = False
                    break
                shrunk.append(q)
            if not alive:
                continue
            chosen.append(i)
            shrunk.append(fresh)
            hit = extend(i + 1, chosen, shrunk, union_mask | m, need - 1)
            if hit:
                return hit
            chosen.pop()
        return None

    def starting_at(i: int, size: int) -> list[tuple[int, int]] | None:
        # a zero mask has no private bit, so it never starts a set
        m = masks[i]
        return extend(i + 1, [i], [m], m, size - 1) if m else None

    top: list[tuple[int, int]] = []
    for i in range(n - 1, -1, -1):
        hit = starting_at(i, bound[i + 1] + 1)
        if hit:
            bound[i], top = len(hit), hit
        else:
            bound[i] = bound[i + 1]
    for i in range(top[0][0] if top else 0):
        hit = starting_at(i, bound[0])
        if hit:
            return hit
    return top


def _side_maximum_pairs(masks: list[int]) -> list[tuple[int, int]]:
    """(index, least private bit) for every index of _scan_side_maximum's
    set over the given side masks.  At most caps.MAX_EXACT_SIDE masks."""
    caps.require("MAX_EXACT_SIDE", len(masks),
                 "exact solver scans min(left, right) = {used} vertices, limit is {limit}")
    return [(i, (private & -private).bit_length() - 1) for i, private in _scan_side_maximum(masks)]


def exact_bipartite_induced_matching(bg: BipartiteGraph) -> tuple[int, Matching]:
    """Maximum induced matching of a bipartite graph.

    Scans subsets of the smaller side; every chosen vertex is then matched
    to its least-index good neighbour (a neighbour no other chosen vertex
    touches), which is exactly the condition for the subset to be saturated
    by an induced matching.  The scanned side must be at most
    caps.MAX_EXACT_SIDE vertices; the other side is unlimited.  This is
    block_optima_bipartite's one-class case.
    """
    return block_optima_bipartite(bg, 1)[0]


# ---------------------------------------------------------------------------
# r-block approximations


def block_optima_bipartite(bg: BipartiteGraph, r: int) -> list[tuple[int, Matching]]:
    """Exact induced matching optimum of every residue-class subgraph
    G[U_b + W], U_b over the smaller side, as (size, matching in bg)."""
    flipped = bg.right_count < bg.left_count
    side_mask = bg.right_mask if flipped else bg.left_mask
    out = []
    for members in round_robin_blocks(bg.right_count if flipped else bg.left_count, r):
        pairs = _side_maximum_pairs([side_mask(u) for u in members])
        if flipped:
            m = Matching(sorted((w, members[i]) for i, w in pairs))
        else:
            m = Matching(sorted((members[i], w) for i, w in pairs))
        if not is_induced_matching(bg, m):
            raise InvariantViolation(f"block_optima_bipartite: {m} is not an induced matching")
        out.append((len(pairs), m))
    return out


def approx_induced_matching_bipartite(bg: BipartiteGraph, r: int) -> tuple[int, Matching]:
    """Best residue class of block_optima_bipartite: an induced matching of
    size at least ceil(im(bg) / r).  Ties go to the lowest class index, and
    classes past the smaller side are empty, so those are not scanned."""
    side = max(min(bg.left_count, bg.right_count), 1)
    return max(block_optima_bipartite(bg, min(r, side)), key=lambda block: block[0])


def block_optima_general(g: Graph, r: int) -> list[tuple[int, Matching]]:
    """Per-residue-class optimum of "one incident edge or nothing" per class
    vertex, each validated as an induced matching of g.

    An edge inside the class belongs to its smaller endpoint.  Candidates
    are listed by owning vertex in class order, each vertex's edges
    ascending, and the class optimum is the lexicographically least maximum
    independent set of their conflict graph.  Work bound per class: product
    of (candidates + 1) per vertex, capped at caps.MAX_BLOCK_WORK.
    """
    out = []
    for block in round_robin_blocks(g.vertex_count, r):
        in_block = set(block)
        candidates: list[tuple[int, int]] = []
        work = 1
        for v in block:
            opts = sorted(
                (min(v, w), max(v, w))
                for w in bit_indices(g.adjacency_mask(v))
                if not (w in in_block and w < v)
            )
            candidates.extend(opts)
            work *= len(opts) + 1
        caps.require("MAX_BLOCK_WORK", work, "class search space {used} exceeds {limit}")
        conflicts = _edge_conflicts_induced(g, candidates)
        size, witness = _mis_lex_witness(conflicts, len(candidates))
        m = Matching(sorted(candidates[i] for i in witness))
        if not is_induced_matching(g, m):
            raise InvariantViolation(f"block_optima_general: {m} is not an induced matching")
        out.append((size, m))
    return out


def approx_induced_matching_general(g: Graph, r: int) -> tuple[int, Matching]:
    """Best residue class of block_optima_general: an induced matching of
    size at least ceil(im(g) / r).  Ties go to the lowest class index, and
    classes past the last vertex are empty, so those are not scanned."""
    return max(block_optima_general(g, min(r, max(g.vertex_count, 1))), key=lambda block: block[0])
