"""Exact classical bounds by enumeration over deterministic strategies.

A deterministic strategy fixes one outcome per setting for each party; the
maximum of a functional over all shared-randomness models is attained at one
of these, so enumeration gives the exact local bound.  ``_best_strategy``, the
package's one enumerator, folds Bob into a per-setting best response, so it
scores max(outcomes_b) x settings_b Bob cells per Alice strategy.  It uses
two exact symmetries that every ``correlator_bell`` has: a functional that
flipping every outcome leaves unchanged scores an Alice strategy and its
complement alike, so only those with setting 0 at outcome 0 are scored; and
when Bob's outcome-1 coefficients are minus his outcome-0 ones, only outcome
0's cells are built.  The search's one limit, ``ENUMERATION_CAP``, counts its
work: the Alice strategies scored times (Bob cells per strategy + 8), a
strategy costing about as much as 8 cells.  Bob's cells count at
max(outcomes_b) per setting even when halved, so the cap admits
``correlator_bell`` up to m = 26 either way.

A search of several blocks first runs a bound pass: every strategy gets an
approximate score, a float sum of the same terms in another order, and the
exact fold runs only on the blocks that can hold a maximiser, so the answer
is bit for bit that of the full enumeration.  ``_best_strategy`` derives the
pass's slack, when it stands down and what memory it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import InvalidFunctionalError, ScenarioMismatchError, StrategySpaceTooLargeError
from .scenario import BellFunctional, BellScenario, ProbabilityTable

#: Work units one search may take (see the module docstring), counted for the
#: worst case, where the bound pass keeps every block: 2^31 admits every
#: ``correlator_bell`` with m <= 26 (2^25 x 60) and none larger.
ENUMERATION_CAP = 1 << 31
#: Bob score cells (outcome x setting x Alice strategy) per enumerated block,
#: counted at max(outcomes_b) outcomes; a halved Bob builds half of them.
_CHUNK_CELLS = 1 << 17
#: The bound pass keeps one score per fine block of at most
#: ``_CHUNK_CELLS // _FINE_BLOCKS`` cells, so it can skip part of a block.
_FINE_BLOCKS = 8


@dataclass(frozen=True)
class DeterministicStrategy:
    """One outcome per setting for Alice and for Bob."""

    assignment_a: tuple[int, ...]
    assignment_b: tuple[int, ...]


def _check_strategy(scenario: BellScenario, s: DeterministicStrategy) -> None:
    """``ScenarioMismatchError`` unless ``s`` gives each setting one of its outcomes."""
    parties = (("Alice", scenario.outcomes_a, s.assignment_a), ("Bob", scenario.outcomes_b, s.assignment_b))
    for party, counts, outcomes in parties:
        if len(outcomes) != len(counts):
            raise ScenarioMismatchError(f"{party}'s assignment has {len(outcomes)} settings, expected {len(counts)}")
        for x, (a, v) in enumerate(zip(outcomes, counts)):
            if not 0 <= a < v:
                raise ScenarioMismatchError(f"{party}'s setting {x} has outcome {a}, outside 0..{v - 1}")


def strategy_table(scenario: BellScenario, s: DeterministicStrategy) -> ProbabilityTable:
    """The 0/1 probability table produced by a deterministic strategy
    (``ScenarioMismatchError`` if it does not fit the scenario)."""
    _check_strategy(scenario, s)
    blocks = [[np.zeros((va, vb)) for vb in scenario.outcomes_b] for va in scenario.outcomes_a]
    for (x, a), (y, b) in product(enumerate(s.assignment_a), enumerate(s.assignment_b)):
        blocks[x][y][a, b] = 1.0
    return ProbabilityTable(scenario, blocks)


def strategy_value(f: BellFunctional, s: DeterministicStrategy) -> float:
    """Functional value of a deterministic strategy (``ScenarioMismatchError``
    if it does not fit); it adds its terms in ``evaluate``'s order, so the two agree."""
    _check_strategy(f.scenario, s)
    c, total = f.coefficients, f.constant
    for x, a in enumerate(s.assignment_a):
        for y, b in enumerate(s.assignment_b):
            total += c[x, y, a, b]
    for own, assignment in ((c, s.assignment_a), (c.transpose(1, 0, 3, 2), s.assignment_b)):
        for x, o in enumerate(assignment):
            total += own[x, -1, o, 0]
    return float(total)


def _flip_symmetric(c: np.ndarray) -> bool:
    """Whether flipping every outcome of both parties leaves the coefficient
    tensor ``c`` exactly unchanged: every setting binary, each joint block
    invariant under flipping both outcomes, and each marginal flat."""
    return (
        c.shape[2:] == (2, 2)
        and np.array_equal(c[:-1, :-1], c[:-1, :-1, ::-1, ::-1])
        and np.array_equal(c[:-1, -1, 0, 0], c[:-1, -1, 1, 0])
        and np.array_equal(c[-1, :-1, 0, 0], c[-1, :-1, 0, 1])
    )


def check_enumeration(scenario: BellScenario, flip_symmetric: bool) -> None:
    """Raise ``StrategySpaceTooLargeError`` if the search on a functional of
    ``scenario``, flip-symmetric or not, would exceed ``ENUMERATION_CAP``."""
    strategies = math.prod(scenario.outcomes_a) // (2 if flip_symmetric else 1)
    work = strategies * (max(scenario.outcomes_b) * scenario.settings_b + 8)
    if work > ENUMERATION_CAP:
        raise StrategySpaceTooLargeError(f"the search takes {work} work units, over the cap of {ENUMERATION_CAP}")


def _bob_antisymmetric(c: np.ndarray) -> bool:
    """Whether every Bob setting of the coefficient tensor ``c`` is binary and
    each outcome-1 coefficient of Bob's (joint terms and marginal) is exactly
    minus its outcome-0 one.  Two finite doubles sum to exactly 0 only when
    one is minus the other, since a nonzero exact sum is at least the least
    subnormal in magnitude."""
    return c.shape[3] == 2 and not (c[:, :-1, :, 0] + c[:, :-1, :, 1]).any()


def _split(counts: tuple[int, ...], cells: int, budget: int) -> int:
    """The fewest leading settings whose blocks (every outcome of the other
    settings, at ``cells`` Bob cells per strategy) fit ``budget`` cells."""
    split = len(counts)
    while split and math.prod(counts[split - 1 :]) * cells <= budget:
        split -= 1
    return split


class _Blocks:
    """One search's Alice strategies, in blocks that share the outcomes of
    their leading settings (a prefix) and take every outcome of the rest.
    Alice's terms are read from two tables built once: her joint terms as
    (setting, outcome, Bob cell, Bob setting), C-contiguous, and her
    marginals as (setting, outcome).  ``extend`` is the one fold over them,
    so every block scores a strategy bit for bit alike whatever its prefix
    length; the ``split`` leading settings give blocks of at most
    ``_CHUNK_CELLS`` cells."""

    def __init__(self, f: BellFunctional):
        sc, c = f.scenario, f.coefficients
        symmetric = _flip_symmetric(c)
        check_enumeration(sc, symmetric)
        self.c, self.width, self.settings_b = c, c.shape[3], sc.settings_b
        self.counts = (1,) + sc.outcomes_a[1:] if symmetric else sc.outcomes_a
        self.split = _split(self.counts, self.width * self.settings_b, _CHUNK_CELLS)
        self.cells = cells = 1 if _bob_antisymmetric(c) else self.width
        # Bob's scores are laid out (Alice row, outcome, setting); outcomes past a
        # setting's count are -inf so they never win.
        padded = np.arange(cells)[:, None] >= np.array(sc.outcomes_b)
        self.bob_marginal = np.where(padded, -np.inf, c[-1, : self.settings_b, 0, :cells].T)
        self.joint = np.ascontiguousarray(c[:-1, : self.settings_b, :, :cells].transpose(0, 2, 3, 1))
        self.marginal = c[:-1, -1, :, 0]

    def extend(self, prefix: tuple[int, ...], total: np.ndarray, scores: np.ndarray, first: int = 0):
        """The one fold: ``total`` (n,) and Bob cells ``scores`` (n, cells,
        settings_b) with Alice's settings ``first``.. added one at a time, in
        setting order, each of ``prefix``'s at its outcome and every outcome
        of each later one, in product order.  Started from the constant and
        Bob's marginal, it adds a strategy's Alice marginals to its total, and
        its joint terms to each Bob cell, in setting order whatever the prefix
        length, so every block scores the strategy bit for bit alike."""
        for x, v in enumerate(self.counts[first:], start=first):
            outcomes = slice(prefix[x], prefix[x] + 1) if x < len(prefix) else slice(v)
            total = (total[:, None] + self.marginal[x, outcomes]).reshape(-1)
            scores = (scores[:, None] + self.joint[x, outcomes]).reshape(-1, self.cells, self.settings_b)
        return total, scores

    def responses(self, scores: np.ndarray) -> np.ndarray:
        """Bob's best score per strategy and setting: the max over his cells,
        or their magnitude when they are halved."""
        return np.abs(scores[:, 0]) if self.cells == 1 else scores.max(axis=1)

    def prefixes(self):
        """The prefixes of the blocks to fold exactly, in product order:
        every block of ``split`` leading settings when the bound pass stands
        down, else the blocks it keeps (see ``_best_strategy``)."""
        c, counts, split, settings_b, cells = self.c, self.counts, self.split, self.settings_b, self.cells
        leading = counts[:split]
        if math.prod(leading) == 1 or not (magnitude := float(np.abs(c).sum())) < np.finfo(float).max / 4:
            yield from product(*(range(v) for v in leading))
            return
        middle = counts[split : _split(counts, self.width * settings_b, _CHUNK_CELLS // _FINE_BLOCKS)]
        fine = math.prod(middle)
        settings = np.arange(split)
        trailing_total, table = self.extend((), np.zeros(1), np.zeros((1, cells, settings_b)), split)
        # (cell, Bob setting, trailing strategy), so each pass runs along strategies.
        table = np.ascontiguousarray(table.transpose(1, 2, 0))
        approx = np.empty_like(table)
        block_best = np.empty((math.prod(leading), fine))
        for k, prefix in enumerate(product(*(range(v) for v in leading))):
            np.add(table, (self.bob_marginal + self.joint[settings, prefix].sum(axis=0))[..., None], out=approx)
            response = np.abs(approx[0], out=approx[0]) if cells == 1 else approx.max(axis=0)
            scores = response.sum(axis=0) + trailing_total
            # A rounded x + t never decreases as x grows, so t may be added after the max.
            alice = c[-1, -1, 0, 0] + self.marginal[settings, prefix].sum()
            block_best[k] = scores.reshape(fine, -1).max(axis=1) + alice
        del table, approx
        # Twice the first-order slack covers the rounding of the slack itself.
        slack = 2 * (2 * len(counts) + settings_b) * np.finfo(float).eps * magnitude
        kept = block_best >= block_best.max() - 2 * slack
        for k in np.flatnonzero(kept.any(axis=1)):
            prefix = tuple(int(a) for a in np.unravel_index(k, leading))
            fines = np.flatnonzero(kept[k])
            if 4 * len(fines) > fine:
                yield prefix
            else:
                yield from (prefix + tuple(int(a) for a in np.unravel_index(j, middle)) for j in fines)


def _best_strategy(f: BellFunctional) -> tuple[float, DeterministicStrategy | None]:
    """The best score and the deterministic strategy maximising ``f``: the
    lexicographically smallest among those of maximal score, after
    ``check_enumeration`` (``None`` if no score beats -inf).
    Alice's strategies run in ``itertools.product`` order, the leading
    settings in a Python loop and the trailing ones (as many as fit
    ``_CHUNK_CELLS``) as one block, scored by one ``_Blocks.extend`` fold; a
    block replaces the best only on strict improvement.  A score adds, in
    order, the constant, Alice's marginals by setting, then per Bob setting
    the max over his outcomes of (his marginal, then the joint terms by Alice
    setting).

    When the search has more than one block, a bound pass runs first
    (``_Blocks.prefixes``).  It folds the trailing settings' joint terms and
    marginals once per call, from zero, into a table of at most one block,
    and per leading prefix gives each strategy an approximate score: the
    prefix's sums, read from the fold's two tables, plus its table row, then
    ``abs`` (or the max over Bob's outcomes), then one sum.  Both scores are
    float sums of the same terms: a cell sums settings_a + 1 of them, a
    score 1 + settings_a + settings_b.  A float sum
    of n terms, in any order, is within (n - 1) u / (1 - (n - 1) u) times the
    sum of their magnitudes of its exact value (u = eps / 2), and ``abs`` and
    max move no value further apart, so the two scores differ by at most
    D = (2 settings_a + settings_b) eps sum|c| to first order.  If A is the
    best approximate score, a maximiser s of the exact score has
    approx(s) >= exact(s) - D >= exact(s_A) - D >= A - 2D.  The pass keeps
    the fine blocks (at most ``_CHUNK_CELLS // _FINE_BLOCKS`` cells) whose
    best approximate score is at least A - 4D, D taken twice over to cover
    the rounding of D itself.  The kept blocks, in product order with strict
    improvement, hold the first maximiser, so the value and the strategy are
    those of the full enumeration.  A block with more than a quarter of its
    fine blocks kept is folded whole, as a few small folds cost more than one
    large one.  The pass stands down, and every block is folded, when there
    is one block (so small searches run no extra numpy call) or when
    sum|c| >= float max / 4, where a partial sum could overflow.  It holds
    the table and one work array of its size, freed before the folds, and one
    float per fine block, never one per strategy; the table is sized on
    max(outcomes_b) cells per Bob setting, as the block is, so with Bob's
    cells halved the two together take one block.

    For a flip-symmetric functional (``_flip_symmetric``) Alice's setting 0
    runs over outcome 0 only.  The complement of a strategy adds equal terms
    in the same order, so it scores bit for bit the same; the strategies with
    a_0 = 0 come first in ``product`` order, so the first maximiser, and with
    it the value, is the one the full enumeration finds.

    For a Bob-antisymmetric functional (``_bob_antisymmetric``) only outcome
    0's cells r_0 are built.  Outcome 1 adds the negated terms in the same
    order, and IEEE negation commutes with each rounded sum, so it scores
    exactly -r_0; Bob's best response is |r_0|, at outcome 1 exactly when
    r_0 < 0 (a tie at +-0 keeps outcome 0, as ``argmax`` does).  Both halvings
    hold for every ``correlator_bell`` and compose: half of Alice's strategies
    against half of Bob's cells.  The block keeps its Alice-strategy count,
    sized on max(outcomes_b) cells per Bob setting, so its memory halves."""
    blocks = _Blocks(f)
    best_score, best = -math.inf, None
    start = np.full(1, f.coefficients[-1, -1, 0, 0]), blocks.bob_marginal[None]
    for prefix in blocks.prefixes():
        total, scores = blocks.extend(prefix, *start)
        for best_y in blocks.responses(scores).T:
            total = total + best_y
        i = int(np.argmax(total))
        if total[i] > best_score:
            best_score = total[i]
            alpha = prefix + tuple(int(a) for a in np.unravel_index(i, blocks.counts[len(prefix) :]))
            choice = scores[i, 0] < 0 if blocks.cells == 1 else scores[i].argmax(axis=0)
            best = DeterministicStrategy(alpha, tuple(int(b) for b in choice))
    return best_score, best


def local_bound(f: BellFunctional):
    """Exact maximum over deterministic strategies, with a witnessing strategy;
    ``StrategySpaceTooLargeError`` beyond ``ENUMERATION_CAP``, and
    ``InvalidFunctionalError`` if the bound is beyond the float range."""
    return _valued(f, f)


def local_bound_min(f: BellFunctional):
    """``local_bound``'s minimum counterpart: the search on -f, valued on f."""
    return _valued(f, -f)


@np.errstate(over="ignore")
def _valued(f: BellFunctional, searched: BellFunctional):
    """The strategy maximising ``searched``, valued on ``f`` as ``evaluate``
    does, bit for bit.  Sums leave the float range without a warning, and a
    winning score or value that is not finite is an ``InvalidFunctionalError``."""
    score, strategy = _best_strategy(searched)
    value = strategy_value(f, strategy) if math.isfinite(score) else score
    if not math.isfinite(value):
        raise InvalidFunctionalError(f"the local bound is beyond the float range: {value}")
    return value, strategy
