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
* algorithm 3: run algorithm 2, then the algorithm-1 extension inside its
  output; envelope ``(g, 2g)``.

Each decoder is a function of the edge family alone: one core runs all
three on the edges in lexicographic order and a test of "is ``T`` an
edge?".  :func:`decode_from_family` gives it a family already built.
:func:`decode` builds none: it gives the enumeration that would build one,
read only as far as the decoder reads (algorithm 1 reads the first edge),
and answers the extension's questions from the column masks.  The
enumeration, :func:`build_family` and those answers are one screened
column scan: the ``x`` that complete a sorted ``(u - 1)``-tuple to an edge.
Algorithm 3's extension needs no restricted family: algorithm 2's output
holds the first edge, so that is the first edge inside it, and every
subset the extension asks about lies inside it.

The swap extension of algorithms 1 and 3 is a pruned search.  Its current
set ``S`` is always u-complete (it starts as an edge, and each step returns
a u-complete set), so for a fixed ``A`` every non-edge ``u``-subset ``T``
of ``S ∪ A`` meets ``A``, and ``(S ∪ A) \\ B`` is u-complete iff ``B``
hits ``T ∩ S`` for every such ``T``.  Each step first settles the ``T``
with one item ``x`` outside ``S``: one scan of the pool per
``(u - 1)``-subset ``R`` of ``S`` finds the ``x`` that complete ``R`` to an
edge (on the masks, ``R``'s negative rows are intersected once and each
column is screened against them).  That is at most
``|pool| * C(|S|, u - 1)`` screened tests, fewer than the ``C(n, u)``
subsets that bound the search for the first edge.  A pool item that no
``g``-subset of ``S`` can serve on its own enters no ``A``, and a non-edge
inside ``A`` rules out ``A`` whatever ``B`` is.  The ``T`` with more
items in ``A`` are settled by the same scan, now over ``S``, for each part
``T ∩ A`` the search reaches.  What a part allows is kept for the step, so
a step asks about a subset at most once, though a later step may ask
again.  The result is the same
lexicographically first swap as checking every pair, and the ``step_cap``
of a step still counts all ``C(|pool|, g + 1) * C(|S|, g)`` pairs, not the
ones the pruning leaves.

Every choice the underlying procedures leave open ("an arbitrary edge",
"check all possible cases") is resolved lexicographically over sorted item
tuples, so decoding is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Optional, Protocol

from .errors import FeasibilityError, ValidationError, _require_int
from .matrix import BinaryMatrix, ItemSet, OutcomeVector
from .model import TGTParams, _check_outcome_length

#: default cap on family construction (number of u-subsets enumerated)
FAMILY_SUBSET_CAP = 10_000_000

#: default cap on a single extension step's candidate pairs
EXTENSION_STEP_CAP = 10_000_000

#: the decoders, by the number of the algorithm they run
ALGORITHMS = (1, 2, 3)


def _check_algorithm(algorithm: int) -> None:
    """Reject an ``algorithm`` that is not one of :data:`ALGORITHMS` as an
    ``int`` (``True`` and ``1.0`` compare equal to 1 but are not algorithm
    numbers)."""
    _require_int("algorithm", algorithm, None)
    if algorithm not in ALGORITHMS:
        raise ValidationError(f"unknown algorithm {algorithm} (expected 1, 2 or 3)")


class _EdgeOracle(Protocol):
    """What the swap extension asks of a family: whether a sorted
    ``u``-tuple is an edge, and which of some items complete a sorted
    ``(u - 1)``-tuple to an edge."""

    def __contains__(self, items: tuple[int, ...]) -> bool: ...

    def completions(self, rest: tuple[int, ...], pool: Iterable[int]) -> list[int]: ...


class _EdgeSet(frozenset):
    """A built family's edges, with the membership filter as ``completions``."""

    def completions(self, rest: tuple[int, ...], pool: Iterable[int]) -> list[int]:
        """The ``x`` in ``pool`` (items not in ``rest``) with ``rest + (x,)`` an edge."""
        return [x for x in pool if tuple(sorted(rest + (x,))) in self]


@dataclass(frozen=True)
class Family:
    """The edge set: ``u``-subsets of the items as sorted tuples, strictly increasing."""

    u: int
    edges: tuple[tuple[int, ...], ...]
    edge_set: _EdgeSet = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_int("u", self.u)
        for edge in self.edges:
            for item in edge:
                _require_int("edge item", item, None)
            if len(edge) != self.u or tuple(sorted(set(edge))) != edge:
                raise ValidationError(f"edge {edge} is not a sorted {self.u}-subset")
            if edge and edge[0] < 1:
                raise ValidationError(f"edge {edge} has an item below 1")
        for prev, edge in zip(self.edges, self.edges[1:]):
            if prev >= edge:
                raise ValidationError(f"edge {edge} is not after edge {prev}")
        object.__setattr__(self, "edge_set", _EdgeSet(self.edges))

    @classmethod
    def _of_valid_edges(cls, u: int, edges: tuple[tuple[int, ...], ...]) -> "Family":
        """The family of edges known to keep the rules above, left unchecked."""
        family = object.__new__(cls)
        family.__dict__.update(u=u, edges=edges, edge_set=_EdgeSet(edges))
        return family

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def __contains__(self, edge: Iterable[int]) -> bool:
        return tuple(sorted(edge)) in self.edge_set


@dataclass(frozen=True)
class DecodeResult:
    """Recovered set plus the governing guarantee envelope.  ``diagnostics``
    holds one note per size condition of the algorithm's guarantee or cost
    statement that the parameters break; the decoder runs regardless."""

    recovered: ItemSet
    algorithm: int
    max_false_positives: int
    max_false_negatives: int
    underdetermined: bool = False
    diagnostics: tuple[str, ...] = ()

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
    edges = _EdgeTest(matrix, outcome, u, e, subset_cap).edges()
    return Family._of_valid_edges(u, tuple(edges))


class _EdgeTest:
    """Whether ``t0(T) <= e`` for sorted ``u``-tuples ``T``, on the column
    masks: the family of :func:`build_family` without building it.

    Every question is one screened scan, :meth:`completions`: the rows of
    a sorted ``(u - 1)``-tuple are intersected once, each candidate column
    is counted against them within the first ``_SCREEN_ROWS`` rows, and
    only the survivors are counted over all rows.  A count over some of
    the rows is a lower bound on ``t0``, so the screen rejects exactly.
    :meth:`edges` is the lexicographic edge stream, one scan per
    ``(u - 1)``-subset, and ``T in tester`` scans ``T``'s last item alone.
    Nothing is kept between questions.
    """

    def __init__(
        self,
        matrix: BinaryMatrix,
        outcome: OutcomeVector,
        u: int,
        e: int,
        subset_cap: int,
    ) -> None:
        _require_int("subset_cap", subset_cap)
        _require_int("u", u)
        _require_int("e", e, 0)
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
        # item j's negative rows, over all rows and within the screen, at
        # index j (index 0 holds no item)
        self._full = [0] + [mask & negatives for mask in matrix.col_masks]
        self._screen = self._full  # exact when every row fits in the screen
        if matrix.rows > _SCREEN_ROWS:
            low_rows = (1 << _SCREEN_ROWS) - 1
            self._screen = [mask & low_rows for mask in self._full]
        self._n, self._u, self._e = n, u, e

    def completions(self, rest: tuple[int, ...], pool: Iterable[int]) -> list[int]:
        """The ``x`` in ``pool`` (items not in ``rest``) with ``rest + (x,)``
        an edge, in pool order."""
        e, screen, full = self._e, self._screen, self._full
        rows = -1
        for j in rest:
            rows &= screen[j]
        hits = [x for x in pool if (rows & screen[x]).bit_count() <= e]
        if hits and screen is not full:
            rows = -1
            for j in rest:
                rows &= full[j]
            hits = [x for x in hits if (rows & full[x]).bit_count() <= e]
        return hits

    def edges(self) -> Iterator[tuple[int, ...]]:
        """Every edge, in lexicographic order.  Nothing is computed past the
        last edge drawn, so ``next`` on it is a search for the first edge."""
        n = self._n
        for rest in combinations(range(1, n + 1), self._u - 1):
            for x in self.completions(rest, range(rest[-1] + 1 if rest else 1, n + 1)):
                yield rest + (x,)

    def __contains__(self, items: tuple[int, ...]) -> bool:
        return bool(self.completions(items[:-1], items[-1:]))


def is_u_complete(family: Family, items: Iterable[int]) -> bool:
    """Whether every ``u``-subset of ``items`` is an edge of the family."""
    items = tuple(items)
    for item in items:
        _require_int("item", item, None)
    members = sorted(set(items))
    if len(members) < family.u:
        raise ValidationError(
            f"u-completeness needs at least u={family.u} items, got {len(members)}"
        )
    return family.edge_set.issuperset(combinations(members, family.u))


def w_bound(s_size: int, ell: int, u: int, g: int) -> int:
    """False-positive envelope of algorithm 2:
    ``(floor(s_size / (ell + 1)) + u - 1) * g``."""
    for name, value in (("s_size", s_size), ("ell", ell), ("u", u), ("g", g)):
        _require_int(name, value, None)
    if ell < 0 or u < 1 or s_size < 0:
        raise ValidationError("need ell >= 0, u >= 1, s_size >= 0")
    if g != u - ell - 1:
        raise ValidationError(f"inconsistent gap: g={g} but u - ell - 1 = {u - ell - 1}")
    return (s_size // (ell + 1) + u - 1) * g


def _first_u_complete_extension(
    edge_set: _EdgeOracle,
    u: int,
    current: frozenset,
    pool: tuple[int, ...],
    g: int,
    step_cap: int,
) -> Optional[frozenset]:
    """Lexicographically first ``(S ∪ A) \\ B`` that is u-complete.

    ``A`` runs over ``(g + 1)``-subsets of ``pool`` (sorted items outside
    the current set ``S``), ``B`` over ``g``-subsets of ``S``, both in
    lexicographic order with ``A`` outermost.  ``S`` must be u-complete.
    ``edge_set`` answers ``T in edge_set`` for sorted ``u``-tuples ``T``,
    and ``edge_set.completions(R, items)`` lists, in their order, the
    ``items`` that complete a sorted ``(u - 1)``-tuple ``R`` to an edge.

    Since ``S`` is u-complete, every non-edge ``u``-subset ``T`` of
    ``S ∪ A`` meets ``A``, and the candidate is u-complete iff ``B`` hits
    ``T ∩ S`` for every such ``T``: a hitting-set condition that splits by
    the part ``T ∩ A``.  For each ``A`` the allowed ``B`` are one bitmask
    over the ``B`` in lexicographic order, so its lowest bit is the first
    ``B``.

    The step starts with every pool item's own mask, for the part
    ``{x}``: one ``completions`` scan per ``(u - 1)``-subset ``R`` of ``S``,
    which is at most ``|pool| * C(|S|, u - 1)`` screened tests on the
    masks, fewer than the ``C(n, u)`` subsets that bound the search for
    the first edge.  An item whose own mask is empty (no ``B`` hits all
    its non-edges) enters no ``A``, so the search walks only the others.
    It settles the parts with two or more items of ``A`` only while the
    ``A`` prefix still has a ``B``, and stops at the first ``A`` that
    passes; for ``g = 0`` that is the first ``x`` with ``S ∪ {x}``
    u-complete.  A part of ``u`` items is one membership test; a smaller
    part is one ``completions`` scan of ``S`` per head of ``T ∩ S`` (its
    items but the last).  Two ``A`` prefixes can share a part, so each
    part's mask is kept for the step: no ``T`` is asked about twice in one
    step.
    ``step_cap`` bounds the unpruned count ``C(|pool|, g + 1) * C(|S|, g)``
    of candidate pairs, whatever the pruning skips.
    """
    if len(pool) < g + 1:
        return None
    work = math.comb(len(pool), g + 1) * math.comb(len(current), g)
    if work > step_cap:
        raise FeasibilityError(
            f"extension step would check {work} candidate pairs > cap {step_cap}"
        )
    cur_sorted = tuple(sorted(current))
    b_sets = tuple(combinations(cur_sorted, g))
    holders = dict.fromkeys(cur_sorted, 0)  # bit i of holders[j]: b_sets[i] holds j
    for i, b in enumerate(b_sets):
        for j in b:
            holders[j] |= 1 << i
    every_b = (1 << len(b_sets)) - 1

    def hit(rest: tuple[int, ...]) -> int:
        """The B that meet ``rest``."""
        mask = 0
        for j in rest:
            mask |= holders[j]
        return mask

    part_masks: dict[tuple[int, ...], int] = {}

    def allowed(part: tuple[int, ...]) -> int:
        """The B hitting ``T ∩ S`` for every non-edge ``T`` with ``T ∩ A == part``."""
        mask = part_masks.get(part)
        if mask is None:
            if len(part) == u:  # T is the part itself, and no B meets it
                mask = every_b if part in edge_set else 0
            else:
                # T ∩ S is head + (j,): one scan per head finds the j after
                # it that complete T to an edge
                mask = every_b
                for head in combinations(cur_sorted, u - len(part) - 1):
                    after = max(head, default=0)
                    later = [j for j in cur_sorted if j > after]
                    done = edge_set.completions(tuple(sorted(part + head)), later)
                    head_hit = hit(head)
                    for j in later:
                        if j not in done:
                            mask &= head_hit | holders[j]
                    if not mask:
                        break
            part_masks[part] = mask
        return mask

    # allowed((x,)) for every pool item x, from one scan of the pool per
    # (u - 1)-subset of S: it is the AND of hit(rest) over the rests that x
    # does not complete to an edge.  Few items complete any rest; the others
    # all get ``unmatched``, the B that meet every rest.
    rests = tuple(combinations(cur_sorted, u - 1))
    rest_hits = tuple(hit(rest) for rest in rests)
    completed = tuple(set(edge_set.completions(rest, pool)) for rest in rests)
    unmatched = every_b
    for rest_hit in rest_hits:
        unmatched &= rest_hit
    single = {}
    for x in set().union(*completed):
        mask = every_b
        for rest_hit, done in zip(rest_hits, completed):
            if x not in done:
                mask &= rest_hit
        single[x] = mask
    # the items whose own mask is non-zero: the only ones any A can hold
    live = pool if unmatched else tuple(sorted(x for x in single if single[x]))

    # depth first over the A prefixes, on a stack of (prefix, next index of
    # live, its B mask): a frame that grows its prefix pushes its own
    # resumption and then the grown prefix, which is searched first
    stack = [((), 0, every_b)]
    while stack:
        prefix, start, mask = stack.pop()
        for k in range(start, len(live) - g + len(prefix)):
            x = live[k]
            grown_mask = mask & single.get(x, unmatched)
            if not grown_mask:
                continue
            parts = (
                part + (x,)
                for size in range(1, min(u, len(prefix) + 1))
                for part in combinations(prefix, size)
            )
            for part in parts:
                grown_mask &= allowed(part)
                if not grown_mask:
                    break
            if not grown_mask:
                continue
            if len(prefix) == g:
                b = b_sets[(grown_mask & -grown_mask).bit_length() - 1]
                return current.union(prefix, (x,)).difference(b)
            stack.append((prefix, k + 1, mask))
            stack.append((prefix + (x,), k + 1, grown_mask))
            break
    return None


def _swap_extend(
    first_edge: tuple[int, ...],
    edge_set: _EdgeOracle,
    universe: tuple[int, ...],
    d: int,
    g: int,
    step_cap: int,
) -> frozenset:
    """Algorithm 1's extension inside ``universe``: start from the first
    edge and take the first u-complete swap until ``d`` items or none.
    ``edge_set`` holds every edge inside ``universe``."""
    u = len(first_edge)
    current = frozenset(first_edge)
    while len(current) < d:
        pool = tuple(j for j in universe if j not in current)
        nxt = _first_u_complete_extension(edge_set, u, current, pool, g, step_cap)
        if nxt is None:
            break
        current = nxt
    return current


def _greedy_union(edges: tuple[tuple[int, ...], ...], g: int) -> set[int]:
    """Algorithm 2's output on a non-empty family's edges (see :func:`decode`).
    ``current`` only grows, so a skipped edge stays skipped and a picked
    edge adds nothing later: one pass per phase equals rescanning."""
    current = set(edges[0])
    for edge in edges:  # phase A: disjoint edges
        if current.isdisjoint(edge):
            current.update(edge)
    for edge in edges:  # phase B: edges adding >= g + 1 new items (their items are distinct)
        if len(current.intersection(edge)) < len(edge) - g:
            current.update(edge)
    return current


def _envelope(algorithm: int, params: TGTParams, s_size: int) -> tuple[int, int]:
    """The (false-positive, false-negative) envelope of an algorithm when
    the defective set has ``s_size`` items (only algorithm 2 depends on it)."""
    _check_algorithm(algorithm)
    g = params.g
    if algorithm == 1:
        return g, g
    if algorithm == 2:
        return w_bound(s_size, params.ell, params.u, g), g
    return g, 2 * g


def _diagnostics(params: TGTParams, algorithm: int) -> tuple[str, ...]:
    """The size conditions that a checked algorithm's guarantee and cost
    statements assume and ``params`` break, refinement first, then greedy
    (the decoders run regardless)."""
    n, d, u = params.n, params.d, params.u
    notes = []
    if algorithm == 3 and w_bound(d, params.ell, u, params.g) + d > n:
        notes.append("refinement decoding assumes w + d <= n at worst-case w; proceeding anyway")
    if algorithm != 1 and math.e**2 * (d + u) ** 2 > n * u:
        notes.append("greedy decoding assumes e^2 (d + u)^2 / u <= n; proceeding anyway")
    return tuple(notes)


def _decode(
    edges: Iterator[tuple[int, ...]],
    edge_test: _EdgeOracle,
    params: TGTParams,
    algorithm: int,
    envelope: tuple[int, int],
    step_cap: int,
) -> DecodeResult:
    """Run a checked algorithm on the family's edges, drawn in
    lexicographic order as far as it reads them, and ``edge_test``, which
    answers ``T in edge_test`` for sorted ``u``-tuples ``T``.  The result
    carries ``envelope``, from :func:`_envelope`, and the parameters' notes;
    no edge recovers nothing."""
    notes = _diagnostics(params, algorithm)
    first = next(edges, None)
    if first is None:
        return DecodeResult(
            ItemSet(()), algorithm, *envelope, underdetermined=True, diagnostics=notes
        )
    g = params.g
    if algorithm == 1:
        found = universe = tuple(range(1, params.n + 1))
    else:  # algorithm 2's output: it holds ``first``, its own first edge
        found = universe = tuple(sorted(_greedy_union((first, *edges), g)))
    if algorithm != 2:
        found = _swap_extend(first, edge_test, universe, params.d, g, step_cap)
    return DecodeResult(ItemSet.of(found), algorithm, *envelope, diagnostics=notes)


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
    envelope = _envelope(algorithm, params, params.d)  # rejects an unknown algorithm
    return _decode(iter(family.edges), family.edge_set, params, algorithm, envelope, step_cap)


def decode(
    outcome: OutcomeVector,
    matrix: BinaryMatrix,
    params: TGTParams,
    algorithm: int,
    subset_cap: int = FAMILY_SUBSET_CAP,
    step_cap: int = EXTENSION_STEP_CAP,
) -> DecodeResult:
    """Decode ``outcome``: the same result as :func:`build_family`, then
    :func:`decode_from_family`, with the same errors.  ``matrix`` must
    have ``params.n`` columns.

    Algorithm 1 is the swap extension; on a verified matrix with at most
    ``e`` errors it has at most ``g`` false positives and ``g`` false
    negatives.  Algorithm 2 is the greedy union: phase A unions disjoint
    edges, phase B unions edges contributing at least ``g + 1`` new items,
    each phase one lexicographic pass over the family.  Its reported
    false-positive cap uses ``|S| = d`` (the decoder cannot see the true
    size; checks against a known truth should use :func:`w_bound` at the
    actual ``|S|``, as :func:`check_envelope` does).  Algorithm 3 runs
    algorithm 2 and then the swap extension inside its output; envelope
    ``(g, 2g)``.

    No algorithm builds the family: each reads the enumeration that would
    build it (algorithm 1 only up to the first edge).  Each extension step
    screens the pool's columns once per ``(u - 1)``-subset of its current
    set, and tests ``t0 <= e`` for each other subset it asks about at most
    once per step.
    ``subset_cap`` still counts all ``C(n, u)`` subsets.  ``step_cap``
    bounds each extension step and so only matters to algorithms 1 and 3.
    """
    _require_int("subset_cap", subset_cap)
    _require_int("step_cap", step_cap)
    if matrix.cols != params.n:
        raise ValidationError(
            f"matrix has {matrix.cols} columns but params say n={params.n}"
        )
    envelope = _envelope(algorithm, params, params.d)  # rejects an unknown algorithm
    tester = _EdgeTest(matrix, outcome, params.u, params.e, subset_cap)
    return _decode(tester.edges(), tester, params, algorithm, envelope, step_cap)


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
