"""Exact classical bounds by enumeration over deterministic strategies.

A deterministic strategy fixes one outcome per setting for each party; the
maximum of a functional over all shared-randomness models is attained at one
of these, so enumeration gives the exact local bound.  ``_best_strategy``, the
package's one enumerator, folds Bob into a per-setting best response, so it
costs (Alice strategies) x (sum of Bob outcome counts).  A functional that
flipping every outcome leaves unchanged, such as every ``correlator_bell``,
scores each Alice strategy and its complement alike, so only the half with
Alice's setting 0 at outcome 0 is scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import StrategySpaceTooLargeError
from .scenario import BellFunctional, BellScenario, ProbabilityTable

DEFAULT_STRATEGY_CAP = 10**8
#: Bob score cells (outcome x setting x Alice strategy) per enumerated block.
_CHUNK_CELLS = 1 << 17


@dataclass(frozen=True)
class DeterministicStrategy:
    """One outcome per setting for Alice and for Bob."""

    assignment_a: tuple[int, ...]
    assignment_b: tuple[int, ...]


def strategy_table(scenario: BellScenario, s: DeterministicStrategy) -> ProbabilityTable:
    """The 0/1 probability table produced by a deterministic strategy."""
    blocks = []
    for x, va in enumerate(scenario.outcomes_a):
        row = []
        for y, vb in enumerate(scenario.outcomes_b):
            blk = np.zeros((va, vb))
            blk[s.assignment_a[x], s.assignment_b[y]] = 1.0
            row.append(blk)
        blocks.append(row)
    return ProbabilityTable(scenario, blocks)


def strategy_value(f: BellFunctional, s: DeterministicStrategy) -> float:
    """Functional value of a deterministic strategy, accumulated in the same
    fixed order as ``evaluate`` so the two agree exactly."""
    total = f.constant
    for x in range(f.scenario.settings_a):
        for y in range(f.scenario.settings_b):
            total += f.joint[x][y][s.assignment_a[x], s.assignment_b[y]]
    for x, coeffs in enumerate(f.marginal_a):
        total += coeffs[s.assignment_a[x]]
    for y, coeffs in enumerate(f.marginal_b):
        total += coeffs[s.assignment_b[y]]
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


def _best_strategy(f: BellFunctional, sign: float) -> DeterministicStrategy:
    """The deterministic strategy maximising ``sign`` times ``f``: the
    lexicographically smallest among those of maximal score.  Alice's
    strategies run in ``itertools.product`` order, the leading settings in a
    Python loop and the trailing ones (as many as fit ``_CHUNK_CELLS``) as one
    block folded from the prefix's row; a block replaces the best only on
    strict improvement.  A score adds, in order, the constant, Alice's
    marginals by setting, then per Bob setting the max over his outcomes of
    (his marginal, then the joint terms by Alice setting).

    For a flip-symmetric functional (``_flip_symmetric``) Alice's setting 0
    runs over outcome 0 only.  The complement of a strategy adds equal terms
    in the same order, so it scores bit for bit the same; the strategies with
    a_0 = 0 come first in ``product`` order, so the first maximiser, and with
    it the value, is the one the full enumeration finds."""
    sc = f.scenario
    c = sign * f.coefficients
    width, settings_b = c.shape[3], sc.settings_b
    counts = sc.outcomes_a
    if _flip_symmetric(c):
        counts = (1,) + counts[1:]
    split = sc.settings_a
    while split and math.prod(counts[split - 1 :]) * width * settings_b <= _CHUNK_CELLS:
        split -= 1
    trailing = counts[split:]
    # Bob's scores are laid out (Alice row, outcome, setting); outcomes past a
    # setting's count are -inf so they never win.
    padded = np.arange(width)[:, None] >= np.array(sc.outcomes_b)
    bob_marginal = np.where(padded, -np.inf, c[-1, :settings_b, 0, :].T)
    best_score, best = -math.inf, None
    for prefix in product(*(range(v) for v in counts[:split])):
        total = np.full(1, c[-1, -1, 0, 0])
        row = bob_marginal.copy()
        for x, a in enumerate(prefix):
            total += c[x, -1, a, 0]
            row += c[x, :settings_b, a, :].T
        scores = row[None]
        for x, v in enumerate(trailing, start=split):
            total = (total[:, None] + c[x, -1, :v, 0]).reshape(-1)
            joint = c[x, :settings_b, :v, :].transpose(1, 2, 0)
            scores = (scores[:, None] + joint).reshape(-1, width, settings_b)
        response = scores[:, 0]
        for b in range(1, width):
            response = np.maximum(response, scores[:, b])
        for best_y in response.T:
            total = total + best_y
        i = int(np.argmax(total))
        if total[i] > best_score:
            best_score = total[i]
            alpha = prefix + tuple(int(a) for a in np.unravel_index(i, trailing))
            best = DeterministicStrategy(alpha, tuple(int(b) for b in scores[i].argmax(axis=0)))
    return best


def _extremize(f: BellFunctional, sign: float, cap: int):
    """Shared max/min; ``sign`` is +1 for max, -1 for min."""
    size = math.prod(f.scenario.outcomes_a) * math.prod(f.scenario.outcomes_b)
    if size > cap:
        raise StrategySpaceTooLargeError(
            f"strategy space has {size} points, exceeding the cap of {cap}"
        )
    strategy = _best_strategy(f, sign)
    # strategy_value matches evaluate() on the witnessing strategy bit for bit.
    return strategy_value(f, strategy), strategy


def local_bound(f: BellFunctional, cap: int = DEFAULT_STRATEGY_CAP):
    """Exact maximum over deterministic strategies, with a witnessing strategy.

    Raises ``StrategySpaceTooLargeError`` when the full strategy-space size
    (product of all outcome counts) exceeds ``cap``.
    """
    return _extremize(f, 1.0, cap)


def local_bound_min(f: BellFunctional, cap: int = DEFAULT_STRATEGY_CAP):
    """Exact minimum over deterministic strategies, with a witnessing
    strategy; the same cap applies as for ``local_bound``."""
    return _extremize(f, -1.0, cap)
