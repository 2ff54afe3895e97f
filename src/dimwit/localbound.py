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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import InvalidFunctionalError, ScenarioMismatchError, StrategySpaceTooLargeError
from .scenario import BellFunctional, BellScenario, ProbabilityTable

#: Work units one search may take (see the module docstring): 2^31 admits
#: every ``correlator_bell`` with m <= 26 (2^25 x 60) and none larger.
ENUMERATION_CAP = 1 << 31
#: Bob score cells (outcome x setting x Alice strategy) per enumerated block,
#: counted at max(outcomes_b) outcomes; a halved Bob builds half of them.
_CHUNK_CELLS = 1 << 17


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
    if it does not fit), summed in ``evaluate``'s fixed order so the two agree."""
    _check_strategy(f.scenario, s)
    total = f.constant
    for x in range(f.scenario.settings_a):
        for y in range(f.scenario.settings_b):
            total += f.joint[x][y][s.assignment_a[x], s.assignment_b[y]]
    for marginals, assignment in ((f.marginal_a, s.assignment_a), (f.marginal_b, s.assignment_b)):
        for coeffs, o in zip(marginals, assignment):
            total += coeffs[o]
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


def _best_strategy(f: BellFunctional) -> tuple[float, DeterministicStrategy | None]:
    """The best score and the deterministic strategy maximising ``f``: the
    lexicographically smallest among those of maximal score, after
    ``check_enumeration`` (``None`` if no score beats -inf).
    Alice's strategies run in ``itertools.product`` order, the leading
    settings in a Python loop and the trailing ones (as many as fit
    ``_CHUNK_CELLS``) as one block folded from the prefix's row; a block
    replaces the best only on strict improvement.  A score adds, in order,
    the constant, Alice's marginals by setting, then per Bob setting the max
    over his outcomes of (his marginal, then the joint terms by Alice setting).
    The trailing settings' joint terms are read from one C-contiguous
    (setting, outcome, Bob cell, Bob setting) slab built once per call.

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
    sc = f.scenario
    c = f.coefficients
    width, settings_b = c.shape[3], sc.settings_b
    counts = sc.outcomes_a
    symmetric = _flip_symmetric(c)
    check_enumeration(sc, symmetric)
    if symmetric:
        counts = (1,) + counts[1:]
    split = sc.settings_a
    while split and math.prod(counts[split - 1 :]) * width * settings_b <= _CHUNK_CELLS:
        split -= 1
    trailing = counts[split:]
    cells = 1 if _bob_antisymmetric(c) else width
    # Bob's scores are laid out (Alice row, outcome, setting); outcomes past a
    # setting's count are -inf so they never win.
    padded = np.arange(cells)[:, None] >= np.array(sc.outcomes_b)
    bob_marginal = np.where(padded, -np.inf, c[-1, :settings_b, 0, :cells].T)
    slab = np.ascontiguousarray(c[split:-1, :settings_b, :, :cells].transpose(0, 2, 3, 1))
    best_score, best = -math.inf, None
    for prefix in product(*(range(v) for v in counts[:split])):
        total = np.full(1, c[-1, -1, 0, 0])
        row = bob_marginal.copy()
        for x, a in enumerate(prefix):
            total += c[x, -1, a, 0]
            row += c[x, :settings_b, a, :cells].T
        scores = row[None]
        for x, v in enumerate(trailing, start=split):
            total = (total[:, None] + c[x, -1, :v, 0]).reshape(-1)
            scores = (scores[:, None] + slab[x - split, :v]).reshape(-1, cells, settings_b)
        if cells == 1:
            response = np.abs(scores[:, 0])
        else:
            response = scores[:, 0]
            for b in range(1, width):
                response = np.maximum(response, scores[:, b])
        for best_y in response.T:
            total = total + best_y
        i = int(np.argmax(total))
        if total[i] > best_score:
            best_score = total[i]
            alpha = prefix + tuple(int(a) for a in np.unravel_index(i, trailing))
            choice = scores[i, 0] < 0 if cells == 1 else scores[i].argmax(axis=0)
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
