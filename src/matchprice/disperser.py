"""Randomized (d, gamma)-dispersers: construction, verification, property checks.

A (d, gamma)-disperser is an n x n bipartite graph of maximum degree at most
d in which every pair of subsets X (left) and Y (right), each of size
ceil(gamma*n), spans at least one edge.  Equivalently: for every X of that
size, fewer than ceil(gamma*n) right vertices are uncovered by X; that is the
form verify_disperser checks, searching only single left subsets (a pruned
depth-first search that meets them in lexicographic order, so the first
violation found is the lexicographically first one).

Two structural consequences are checked by check_disperser_lemma: every
independent set S of a verified disperser has min(|S cap left|, |S cap right|)
at most gamma*n, and the bipartite double cover of the disperser (viewed as a
plain graph) has no semi-induced matching larger than 4*gamma*n under any
left order.
"""

from fractions import Fraction
import math
import random

from . import caps
from .errors import InputError, is_int, load
from .graphs import (
    BipartiteGraph,
    VertexOrder,
    _json_edges,
    _sparse_left_set,
    balanced_bipartite_independence_bruteforce,
    bipartite_double_cover,
    bipartite_to_graph,
    max_expanding_sequence,
    max_expanding_sequence_fixed,
)


def _as_gamma(gamma) -> Fraction:
    try:
        value = Fraction(gamma)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"gamma must be a rational number, got {gamma!r}") from None
    if not 0 < value < 1:
        raise InputError(f"gamma must lie strictly between 0 and 1, got {value}")
    return value


class DisperserGraph(BipartiteGraph):
    """Bipartite graph that remembers the degree it was sampled for.

    Parallel edges of the d sampled matchings merge, so actual degrees can
    fall below the target; target_degree records the d that was requested.
    """

    __slots__ = ("target_degree",)

    def __init__(self, left_count, right_count, edges, target_degree):
        super().__init__(left_count, right_count, edges)
        if not is_int(target_degree):
            raise InputError(f"target_degree must be an integer, got {target_degree!r}")
        if target_degree < 1:
            raise InputError(f"target_degree must be at least 1, got {target_degree}")
        self.target_degree = target_degree

    def to_json(self) -> dict:
        obj = super().to_json()
        obj["target_degree"] = self.target_degree
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "DisperserGraph":
        return load("disperser", obj, lambda left, right, edges, d:
                    cls(left, right, _json_edges(edges), d),
                    "left", "right", "edges", "target_degree")

    def __repr__(self):
        return (
            f"DisperserGraph({self.left_count}x{self.right_count}, "
            f"m={self.edge_count()}, d={self.target_degree})"
        )


def random_disperser(n: int, d: int, seed: int) -> DisperserGraph:
    """Union of d uniform random perfect matchings on sides of size n.

    Parallel edges merge, so every vertex ends with degree <= d.  The same
    seed reproduces the identical edge set.
    """
    if n < 1:
        raise InputError(f"side size must be positive, got {n}")
    if not 1 <= d <= n:
        raise InputError(f"degree must satisfy 1 <= d <= n, got d={d}, n={n}")
    rng = random.Random(seed)
    adj = [0] * n
    right = [0] * n
    for _ in range(d):
        partner = list(range(n))
        rng.shuffle(partner)
        for u, w in enumerate(partner):
            adj[u] |= 1 << w
            right[w] |= 1 << u
    disp = DisperserGraph._from_masks(n, n, adj, right)
    disp.target_degree = d
    return disp


def verify_disperser(g: BipartiteGraph, gamma):
    """Check the disperser property by a pruned search over left subsets.

    Returns (True, None) or (False, (X, Y)) where X is the lexicographically
    first subset of size k = ceil(gamma*n) whose uncovered right set has size
    >= k, and Y lists the first k uncovered right vertices.  Pruning only
    skips subsets that cannot violate, so X and Y are those of a full scan;
    the cap still counts all C(n, k) subsets.
    """
    gamma = _as_gamma(gamma)
    if g.left_count != g.right_count:
        raise InputError(
            f"disperser must have equal sides, got {g.left_count}x{g.right_count}"
        )
    n = g.left_count
    k = math.ceil(gamma * n)
    caps.require("MAX_VERIFY_SUBSETS", math.comb(n, k),
                 f"verification would enumerate C({n},{k}) = {{used}} subsets, limit is {{limit}}")
    sparse = _sparse_left_set(g, k)
    if sparse is None:
        return True, None
    lefts, uncovered = sparse
    rights = [w for w in range(n) if (uncovered >> w) & 1][:k]
    return False, (lefts, tuple(rights))


def check_disperser_lemma(g: BipartiteGraph, gamma, seed: int = 0, samples: int = 50) -> dict:
    """Brute-force the two structural consequences of the disperser property.

    (a) Every independent set has at most gamma*n vertices on its smaller
        side (the balanced-independence number is <= gamma*n).
    (b) The double cover of the disperser-as-graph admits no semi-induced
        matching larger than 4*gamma*n.  Exact over all left orders when
        n <= caps.MAX_LEMMA_EXACT_SIDE, otherwise the maximum over `samples`
        random orders drawn from random.Random(seed); samples must be at
        least 1.  The value needs no witness and is truncated at
        sim_cutoff = floor(4*gamma*n) + 1, so it is settled by asking "is
        there a sequence of length best + 1?" until the answer is no.

    The input must pass verify_disperser first; a failing graph is refused.
    Returns a report dict with both values, bounds, and ok flags.
    """
    gamma = _as_gamma(gamma)
    if samples < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
    n = g.left_count
    caps.require("MAX_LEMMA_VERTICES", g.left_count + g.right_count,
                 "lemma check limited to {limit} vertices, got {used}")
    ok, violation = verify_disperser(g, gamma)
    if not ok:
        raise InputError(
            f"graph is not a disperser for gamma={gamma}: "
            f"left subset {violation[0]} misses right vertices {violation[1]}"
        )

    bbis = balanced_bipartite_independence_bruteforce(g)
    independence_bound = gamma * n
    independence_ok = bbis <= independence_bound

    cover = bipartite_double_cover(bipartite_to_graph(g))
    sim_bound = 4 * gamma * n
    sim_cutoff = math.floor(sim_bound) + 1
    if n <= caps.MAX_LEMMA_EXACT_SIDE:
        sim_mode = "exact"
        sim_samples = None
        sim_value = max_expanding_sequence(cover, cutoff=sim_cutoff)
    else:
        sim_mode = "sampled"
        sim_samples = samples
        rng = random.Random(seed)
        sim_value = 0
        for _ in range(samples):
            perm = list(range(cover.left_count))
            rng.shuffle(perm)
            order = VertexOrder.from_sequence(perm)
            size = max_expanding_sequence_fixed(cover, order, cutoff=sim_cutoff)
            sim_value = max(sim_value, size)
    sim_ok = sim_value <= sim_bound

    return {
        "n": n,
        "gamma": gamma,
        "max_degree": g.max_degree(),
        "target_degree": getattr(g, "target_degree", None),
        "balanced_independence": bbis,
        "independence_bound": independence_bound,
        "independence_ok": independence_ok,
        "sim_value": sim_value,
        "sim_bound": sim_bound,
        "sim_cutoff": sim_cutoff,
        "sim_mode": sim_mode,
        "sim_samples": sim_samples,
        "sim_ok": sim_ok,
        "ok": independence_ok and sim_ok,
    }
