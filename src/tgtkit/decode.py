"""Edge-family construction and the three approximate decoders.

All three decoders share the same first step: a ``u``-subset ``X`` of the
items is an edge of the candidate family ``F`` iff ``t0(X) <= e``, where
``t0(X)`` counts the negative pools in which all of ``X`` appears and
``e = (z - 1) // 2``.  On an ``(n, d - ell, u; 2e + 1]``-disjunct matrix
with at most ``e`` erroneous outcomes, every ``u``-subset of the defective
set ``S`` is an edge and every edge contains at least ``ell + 1``
defectives, whatever the gap pools did.

The decoders differ in how they grow an approximation ``S'`` out of ``F``
and in the false-positive/false-negative envelope they guarantee:

* algorithm 1: repeatedly swap ``g + 1`` items in and ``g`` items out while
  the family stays u-complete on the candidate; envelope ``(g, g)``.
* algorithm 2: greedily union disjoint edges, then any edges bringing at
  least ``g + 1`` new items; envelope
  ``((floor(|S| / (ell + 1)) + u - 1) * g, g)``.
* algorithm 3: run algorithm 2, filter the family down to the edges inside
  its output (exactly the ``u``-subsets of that vertex set with
  ``t0 <= e``), then run the algorithm-1 extension inside it; envelope
  ``(g, 2g)``.

Each decoder is a function of the edge family alone: :func:`build_family`
runs once per decode, and :func:`decode_from_family` runs any of the three
on a family already built.

The swap extension of algorithms 1 and 3 is a pruned search.  Its current
set ``S`` is always u-complete (it starts as an edge, and each step returns
a u-complete set), so for a fixed ``A`` every non-edge ``u``-subset ``T``
of ``S ∪ A`` meets ``A``, and ``(S ∪ A) \\ B`` is u-complete iff ``B``
hits ``T ∩ S`` for every such ``T``.  A non-edge inside ``A`` rules out
``A`` whatever ``B`` is, and a pool item that no ``g``-subset of ``S`` can
serve on its own enters no ``A``.  The result is the same lexicographically
first swap as checking every pair, and the ``step_cap`` of a step still
counts all ``C(|pool|, g + 1) * C(|S|, g)`` pairs, not the ones the pruning
leaves.

Every choice the underlying procedures leave open ("an arbitrary edge",
"check all possible cases") is resolved lexicographically over sorted item
tuples, so decoding is deterministic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional

from .disjunct import _require_int
from .errors import FeasibilityError, ValidationError
from .matrix import BinaryMatrix, ItemSet, OutcomeVector
from .model import TGTParams, _check_outcome_length

#: default cap on family construction (number of u-subsets enumerated)
FAMILY_SUBSET_CAP = 10_000_000

#: default cap on a single extension step's candidate pairs
EXTENSION_STEP_CAP = 10_000_000

#: the decoders, by the number of the algorithm they run
ALGORITHMS = (1, 2, 3)


@dataclass(frozen=True)
class Family:
    """The edge set: ``u``-subsets of the items as sorted tuples, strictly increasing."""

    u: int
    edges: tuple[tuple[int, ...], ...]
    edge_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for edge in self.edges:
            if len(edge) != self.u or tuple(sorted(set(edge))) != edge:
                raise ValidationError(f"edge {edge} is not a sorted {self.u}-subset")
            if edge and edge[0] < 1:
                raise ValidationError(f"edge {edge} has an item below 1")
        for prev, edge in zip(self.edges, self.edges[1:]):
            if prev >= edge:
                raise ValidationError(f"edge {edge} is not after edge {prev}")
        object.__setattr__(self, "edge_set", frozenset(self.edges))

    @classmethod
    def _of_valid_edges(cls, u: int, edges: tuple[tuple[int, ...], ...]) -> "Family":
        """The family of edges known to keep the rules above, left unchecked."""
        family = object.__new__(cls)
        family.__dict__.update(u=u, edges=edges, edge_set=frozenset(edges))
        return family

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def __contains__(self, edge: Iterable[int]) -> bool:
        return tuple(sorted(edge)) in self.edge_set


@dataclass(frozen=True)
class DecodeResult:
    """Recovered set plus the governing guarantee envelope."""

    recovered: ItemSet
    algorithm: int
    max_false_positives: int
    max_false_negatives: int
    underdetermined: bool = False

    @property
    def envelope(self) -> tuple[int, int]:
        return (self.max_false_positives, self.max_false_negatives)


#: rows in the screen: a u-subset whose ``t0`` over the first rows alone
#: exceeds ``e`` is rejected without a full-width intersection
_SCREEN_ROWS = 512


def build_family(
    matrix: BinaryMatrix,
    outcome: OutcomeVector,
    u: int,
    e: int,
    subset_cap: int = FAMILY_SUBSET_CAP,
) -> Family:
    """All ``u``-subsets with ``t0 <= e``, enumerated lexicographically."""
    _require_int("subset_cap", subset_cap)
    if u < 1:
        raise ValidationError(f"u must be >= 1, got {u}")
    if e < 0:
        raise ValidationError(f"e must be >= 0, got {e}")
    _check_outcome_length(matrix, outcome)
    n = matrix.cols
    if u > n:
        raise ValidationError(f"u={u} exceeds the number of items {n}")
    total = math.comb(n, u)
    if total > subset_cap:
        raise FeasibilityError(
            f"family construction would enumerate {total} subsets > cap {subset_cap}"
        )
    negatives = outcome.negatives_mask
    full = [mask & negatives for mask in matrix.col_masks]
    if matrix.rows <= _SCREEN_ROWS:
        screen = full  # the screen is exact; no subset needs a second look
    else:
        low_rows = (1 << _SCREEN_ROWS) - 1
        screen = [mask & low_rows for mask in full]
    edges: list[tuple[int, ...]] = []
    _extend_edges(screen, full, u, e, (), -1, -1, 0, edges)
    return Family._of_valid_edges(u, tuple(edges))


def _extend_edges(
    screen: list[int],
    full: list[int],
    u: int,
    e: int,
    prefix: tuple[int, ...],
    prefix_screen: int,
    prefix_full: Optional[int],
    start: int,
    edges: list[tuple[int, ...]],
) -> None:
    """Append, in lexicographic order, every edge that extends ``prefix``
    (sorted 1-based items) by items from ``start + 1`` on.

    ``screen[j]`` and ``full[j]`` are the negative rows of 0-based column
    ``j`` within the screen and over all rows; ``prefix_screen`` and
    ``prefix_full`` intersect them over ``prefix``, and ``prefix_full`` is
    None until some extension passes the screen.  A count over a subset of
    the rows is a lower bound on ``t0``, so a screen count above ``e``
    rejects exactly.
    """
    n = len(full)
    need = u - len(prefix)
    exact = screen is full
    if need == 1:
        hits = [
            k
            for k, mask in enumerate(screen[start:], start)
            if (prefix_screen & mask).bit_count() <= e
        ]
        if hits and not exact:
            if prefix_full is None:
                prefix_full = _common_rows(full, prefix)
            hits = [k for k in hits if (prefix_full & full[k]).bit_count() <= e]
        edges.extend(prefix + (k + 1,) for k in hits)
        return
    for k in range(start, n - need + 1):
        rows = prefix_screen & screen[k]
        rows_full = None
        if rows.bit_count() <= e:
            if not exact:
                if prefix_full is None:
                    prefix_full = _common_rows(full, prefix)
                rows_full = prefix_full & full[k]
            if exact or rows_full.bit_count() <= e:
                # t0 only falls as items join, so every extension is an edge
                grown = prefix + (k + 1,)
                edges.extend(
                    grown + rest
                    for rest in combinations(range(k + 2, n + 1), need - 1)
                )
                continue
        _extend_edges(
            screen, full, u, e, prefix + (k + 1,), rows, rows_full, k + 1, edges
        )


def _common_rows(masks: list[int], items: tuple[int, ...]) -> int:
    rows = -1
    for j in items:
        rows &= masks[j - 1]
    return rows


def is_u_complete(family: Family, items: Iterable[int]) -> bool:
    """Whether every ``u``-subset of ``items`` is an edge of the family."""
    members = sorted(set(items))
    if len(members) < family.u:
        raise ValidationError(
            f"u-completeness needs at least u={family.u} items, got {len(members)}"
        )
    return family.edge_set.issuperset(combinations(members, family.u))


def w_bound(s_size: int, ell: int, u: int, g: int) -> int:
    """False-positive envelope of algorithm 2:
    ``(floor(s_size / (ell + 1)) + u - 1) * g``."""
    if ell < 0 or u < 1 or s_size < 0:
        raise ValidationError("need ell >= 0, u >= 1, s_size >= 0")
    if g != u - ell - 1:
        raise ValidationError(f"inconsistent gap: g={g} but u - ell - 1 = {u - ell - 1}")
    return (s_size // (ell + 1) + u - 1) * g


def _first_u_complete_extension(
    family: Family,
    current: frozenset,
    pool: tuple[int, ...],
    g: int,
    step_cap: int,
) -> Optional[frozenset]:
    """Lexicographically first ``(S ∪ A) \\ B`` that is u-complete.

    ``A`` runs over ``(g + 1)``-subsets of ``pool`` (sorted items outside
    the current set ``S``), ``B`` over ``g``-subsets of ``S``, both in
    lexicographic order with ``A`` outermost.  ``S`` must be u-complete.

    Since ``S`` is u-complete, every non-edge ``u``-subset ``T`` of
    ``S ∪ A`` meets ``A``, and the candidate is u-complete iff ``B`` hits
    ``T ∩ S`` for every such ``T``: a hitting-set condition that splits by
    the part ``T ∩ A``.  A pool item ``x`` whose own non-edges
    ``{x} ∪ (u - 1)-subset of S`` no ``B`` can hit enters no ``A``, and an
    ``A`` prefix that no ``B`` can serve ends its branch.  For each surviving ``A`` the allowed ``B`` are one bitmask over
    the ``B`` in lexicographic order, so its lowest bit is the first ``B``.
    Each item's own mask is computed when the search first reaches it, so
    the search stops at the first ``A`` that passes; for ``g = 0`` that is
    the first ``x`` with ``S ∪ {x}`` u-complete.  ``step_cap`` bounds the
    unpruned count ``C(|pool|, g + 1) * C(|S|, g)`` of candidate pairs,
    whatever the pruning skips.
    """
    if len(pool) < g + 1:
        return None
    work = math.comb(len(pool), g + 1) * math.comb(len(current), g)
    if work > step_cap:
        raise FeasibilityError(
            f"extension step would check {work} candidate pairs > cap {step_cap}"
        )
    u, edge_set = family.u, family.edge_set
    cur_sorted = tuple(sorted(current))
    b_sets = tuple(combinations(cur_sorted, g))
    holders = dict.fromkeys(cur_sorted, 0)  # bit i of holders[j]: b_sets[i] holds j
    for i, b in enumerate(b_sets):
        for j in b:
            holders[j] |= 1 << i
    every_b = (1 << len(b_sets)) - 1

    def allowed(part: tuple[int, ...]) -> int:
        """The B hitting ``T ∩ S`` for every non-edge ``T`` with ``T ∩ A == part``."""
        mask = every_b
        for rest in combinations(cur_sorted, u - len(part)):
            if tuple(sorted(part + rest)) not in edge_set:
                hit = 0
                for j in rest:
                    hit |= holders[j]
                mask &= hit
                if not mask:
                    break
        return mask

    single: dict[int, int] = {}  # allowed((x,)), filled as the search reaches x

    def search(prefix: tuple[int, ...], start: int, mask: int):
        """First ``A`` extending ``prefix`` by ``pool[start:]``, with its B mask."""
        for k in range(start, len(pool) - g + len(prefix)):
            x = pool[k]
            if x not in single:
                single[x] = allowed((x,))
            grown_mask = mask & single[x]
            parts = (
                part + (x,)
                for size in range(1, min(u, len(prefix) + 1))
                for part in combinations(prefix, size)
            )
            for part in parts:
                if not grown_mask:
                    break
                grown_mask &= allowed(part)
            if not grown_mask:
                continue
            if len(prefix) == g:
                return prefix + (x,), grown_mask
            found = search(prefix + (x,), k + 1, grown_mask)
            if found is not None:
                return found
        return None

    found = search((), 0, every_b)
    if found is None:
        return None
    a, mask = found
    b = b_sets[(mask & -mask).bit_length() - 1]
    return current.union(a).difference(b)


def _swap_extend(
    family: Family, universe: tuple[int, ...], d: int, g: int, step_cap: int
) -> frozenset:
    """Algorithm 1's extension inside ``universe``: start from the first
    edge and take the first u-complete swap until ``d`` items or none."""
    current = frozenset(family.edges[0])
    while len(current) < d:
        pool = tuple(j for j in universe if j not in current)
        nxt = _first_u_complete_extension(family, current, pool, g, step_cap)
        if nxt is None:
            break
        current = nxt
    return current


def _greedy_union(family: Family, g: int) -> set[int]:
    """Algorithm 2's output on a non-empty family (see :func:`decode`).
    ``current`` only grows, so a skipped edge stays skipped and a picked
    edge adds nothing later: one pass per phase equals rescanning."""
    current = set(family.edges[0])
    for edge in family.edges:  # phase A: disjoint edges
        if current.isdisjoint(edge):
            current.update(edge)
    for edge in family.edges:  # phase B: edges adding >= g + 1 new items
        if len(set(edge) - current) >= g + 1:
            current.update(edge)
    return current


def _restricted_family(family: Family, vertices: Iterable[int]) -> Family:
    """The edges inside ``vertices``.  These are exactly the ``u``-subsets
    of ``vertices`` with ``t0 <= e``, by the definition of an edge."""
    inside = frozenset(vertices)
    edges = tuple(edge for edge in family.edges if inside.issuperset(edge))
    return Family._of_valid_edges(family.u, edges)


def _envelope(algorithm: int, params: TGTParams, s_size: int) -> tuple[int, int]:
    """The (false-positive, false-negative) envelope of an algorithm when
    the defective set has ``s_size`` items (only algorithm 2 depends on it)."""
    if algorithm not in ALGORITHMS:
        raise ValidationError(f"unknown algorithm {algorithm!r} (expected 1, 2 or 3)")
    g = params.g
    if algorithm == 1:
        return g, g
    if algorithm == 2:
        return w_bound(s_size, params.ell, params.u, g), g
    return g, 2 * g


def _announce(params: TGTParams, algorithm: int) -> None:
    """Reject an unknown algorithm and warn about the size conditions its
    guarantee assumes (the decoders run regardless)."""
    _envelope(algorithm, params, params.d)  # rejects an unknown algorithm
    w = w_bound(params.d, params.ell, params.u, params.g)
    if algorithm == 3 and w + params.d > params.n:
        warnings.warn(
            "refinement decoding assumes w + d <= n at worst-case w; "
            "proceeding anyway",
            stacklevel=3,
        )
    if algorithm != 1 and math.e**2 * (params.d + params.u) ** 2 > params.n * params.u:
        warnings.warn(
            "greedy decoding assumes e^2 (d + u)^2 / u <= n; proceeding anyway",
            stacklevel=3,
        )


def _decode_family(
    family: Family, params: TGTParams, algorithm: int, step_cap: int
) -> DecodeResult:
    fp, fn = _envelope(algorithm, params, params.d)
    if not family.edges:
        return DecodeResult(ItemSet(()), algorithm, fp, fn, underdetermined=True)
    g = params.g
    if algorithm == 1:
        universe = tuple(range(1, params.n + 1))
        found = _swap_extend(family, universe, params.d, g, step_cap)
    else:
        found = _greedy_union(family, g)
        if algorithm == 3:
            vertices = tuple(sorted(found))
            found = _swap_extend(
                _restricted_family(family, vertices), vertices, params.d, g, step_cap
            )
    return DecodeResult(ItemSet.of(found), algorithm, fp, fn)


def decode_from_family(
    family: Family,
    params: TGTParams,
    algorithm: int,
    step_cap: int = EXTENSION_STEP_CAP,
) -> DecodeResult:
    """Run algorithm 1, 2 or 3 on a family built by :func:`build_family`.

    Each decoder is a function of the edge family alone, so one family
    serves all three, and outcomes with equal families decode identically.
    """
    _require_int("step_cap", step_cap)
    if family.u != params.u:
        raise ValidationError(f"family has u={family.u}, params have u={params.u}")
    if (top := max((edge[-1] for edge in family.edges), default=0)) > params.n:
        raise ValidationError(f"family has item {top} outside 1..{params.n}")
    _announce(params, algorithm)
    return _decode_family(family, params, algorithm, step_cap)


def decode(
    outcome: OutcomeVector,
    matrix: BinaryMatrix,
    params: TGTParams,
    algorithm: int,
    subset_cap: int = FAMILY_SUBSET_CAP,
    step_cap: int = EXTENSION_STEP_CAP,
) -> DecodeResult:
    """:func:`build_family`, then :func:`decode_from_family`.

    Algorithm 1 is the swap extension; on a verified matrix with at most
    ``e`` errors it has at most ``g`` false positives and ``g`` false
    negatives.  Algorithm 2 is the greedy union: phase A unions disjoint
    edges, phase B unions edges contributing at least ``g + 1`` new items,
    each phase one lexicographic pass over the family.  Its reported
    false-positive cap uses ``|S| = d`` (the decoder cannot see the true
    size; checks against a known truth should use :func:`w_bound` at the
    actual ``|S|``, as :func:`check_envelope` does).  Algorithm 3 runs
    algorithm 2 and then the swap extension on the family restricted to
    its output; envelope ``(g, 2g)``.  ``step_cap`` bounds each extension
    step and so only matters to algorithms 1 and 3.
    """
    _require_int("subset_cap", subset_cap)
    _require_int("step_cap", step_cap)
    _announce(params, algorithm)
    family = build_family(matrix, outcome, params.u, params.e, subset_cap)
    return _decode_family(family, params, algorithm, step_cap)


@dataclass(frozen=True)
class EnvelopeCheck:
    false_positives: int
    false_negatives: int
    fp_limit: int
    fn_limit: int

    @property
    def passed(self) -> bool:
        return (
            self.false_positives <= self.fp_limit
            and self.false_negatives <= self.fn_limit
        )


def check_envelope(
    s_true: ItemSet,
    s_recovered: ItemSet,
    algorithm: int,
    params: TGTParams,
) -> EnvelopeCheck:
    """Compare ``|S' \\ S|`` and ``|S \\ S'|`` against the governing
    algorithm's envelope (algorithm 2's false-positive cap uses the true
    ``|S|``)."""
    for item in list(s_true) + list(s_recovered):
        if not 1 <= item <= params.n:
            raise ValidationError(f"item {item} outside 1..{params.n}")
    fp_limit, fn_limit = _envelope(algorithm, params, len(s_true))
    true_set = set(s_true)
    rec_set = set(s_recovered)
    return EnvelopeCheck(
        false_positives=len(rec_set - true_set),
        false_negatives=len(true_set - rec_set),
        fp_limit=fp_limit,
        fn_limit=fn_limit,
    )
