"""Alternating lower-bound search for fixed-dimension quantum values.

Each restart seeds a random pure state and random projective measurements,
then repeats: replace the state by (a vector in) the Bell operator's top
eigenspace (``update_state``), then re-optimize all of Alice's measurement
settings in one step, then all of Bob's.  Once the state and the partner's
POVMs are fixed, the objective splits into one independent term per setting
of the party, so a party step gives the same model as updating its settings
one at a time.  Binary settings are solved exactly by a positive-eigenspace
split, all of a party's at once on a stack (``update_measurement_binary``);
settings with three or more outcomes cycle through exact pairwise exchanges
that redistribute each pair's sum optimally (``update_measurement_multi``).
Every step is a closed-form eigenproblem, so the objective is non-decreasing
and every iterate is a feasible model - values are honest lower bounds on the
dimension-restricted maximum, found heuristically.  The steps diagonalize
their own products on ``linalg``'s exact-Hermitian path (``_eigh_descending``
of a ``_hermitian_part`` or ``_gram`` output), with no Hermiticity test; only
the exchange's square roots of drifted pair sums take the checked
``psd_pseudo_sqrt``.  A fixed state, given to ``seesaw`` itself, pins every
restart's state, and the state step is skipped.

Restarts run in lockstep batches, kept as arrays from their first random
draw to the one model a batch reports.  ``seesaw`` gives each worker one
contiguous range of restart indices and runs it as one batch, cut further
only where ``BATCH_CELLS`` bounds a batch's memory; the process pool's
machinery is imported when a run first needs two or more workers, so a run
that stays in one process never loads it.  ``_start_arrays`` draws the
members' normals, in restart order; ``drive_lockstep`` runs all the rest.
Its starts make each party's draws one (B, settings + 1, width, d, d)
``povm_stack`` array and build the members' Bell operators, which
``_lockstep`` rebuilds after Bob's step in each iteration: the objective
Re ψ†Bψ reads them and the next state step diagonalizes them.  A start or a
step that raises aborts its rows alone, and the driver returns one record of
each member's value, count, flag and final rows, aborts included, which
``_batch_task`` reads to build a model for its best member only.  Every
stacked operation acts member by member, so a restart's iterates do not
depend on its batch; ``refine`` runs the loop on a batch of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConfigError, InvalidFunctionalError, NoConvergenceError, NotHermitianError, NotPSDError, check_count
from .scenario import (
    BellFunctional,
    BellScenario,
    QuantumModel,
    bell_operators,
    contraction_matrix,
    model_stacks,
    party_operators,
    povm_views,
)

#: Eigenvalues within this of the top one count as the top eigenspace.
DEGENERACY_TOL = 1e-10
#: Keep the previous state if its top-eigenspace projection has at least this norm.
PREVIOUS_STATE_MIN_OVERLAP = 1e-6
#: Eigenvalue cutoff inside measurement updates.
EXCHANGE_TOL = 1e-9
#: max |S@S - S| under which a pair sum is treated as an exact projector.
PROJECTOR_DRIFT_TOL = 1e-11
#: Restarts per worker before ``seesaw`` adds another, and the floor of the
#: batch bound below; a member's result does not depend on its batch.
RESTART_BATCH = 16
#: A batch above that floor holds at most this many Bell-operator entries.
BATCH_CELLS = 1 << 16
#: Round-robin passes, at most, over the outcome pairs of a setting with three
#: or more outcomes in each measurement update; the passes stop early once one
#: changes no element.
PAIR_PASSES = 3
#: A restart has converged once one full iteration improves the objective by
#: less than this; ``drive_lockstep`` applies it in both searches.
CONVERGENCE_TOL = 1e-10

_LINALG_ERRORS = (NotHermitianError, NoConvergenceError, NotPSDError)


@dataclass(frozen=True, eq=False)
class SeesawConfig:
    """Knobs of both searches' restart loop (``seesaw``, ``vector_seesaw``),
    checked on construction (``ConfigError``); defaults suit scenarios up to
    two qutrits.  The cap on pairwise-exchange passes per update and the
    convergence threshold are the constants ``PAIR_PASSES`` and ``CONVERGENCE_TOL``."""

    restarts: int = 50
    max_iterations: int = 500
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("restarts", 1), ("max_iterations", 1), ("seed", 0)):
            object.__setattr__(self, name, check_count(getattr(self, name), name, minimum))


@dataclass
class SeesawResult:
    """Outcome of a ``seesaw`` run; best_value is max(per_restart_values).

    ``aborted`` maps the index of each restart that a linear-algebra error
    cut short to that error, as ``"<ErrorType>: <message>"``.
    """

    best_value: float
    best_model: QuantumModel
    per_restart_values: list[float]
    iterations_used: list[int]
    converged_flags: list[bool]
    aborted: dict[int, str]


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-derived RNG stream; identical regardless of execution order.
    A seed that is not an integer >= 0 raises ``ConfigError``."""
    seed = check_count(seed, "seed", 0)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _random_povms(counts, g: np.ndarray) -> np.ndarray:
    """One party's (B, settings + 1, width, d, d) ``povm_stack`` arrays from
    its (B, settings, d, d) draws ``g``: a setting's outcomes take contiguous
    blocks, as equal as possible and the larger first, of the eigenbasis of
    (g + g†)/2, and an outcome past d a zero element."""
    n, m, d, _ = g.shape
    basis = linalg._eigh_descending(linalg._hermitian_part(g))[1]
    stack = np.zeros((n, m + 1, max(counts), d, d), dtype=complex)
    for v in set(counts):
        xs, (base, rem) = [x for x, c in enumerate(counts) if c == v], divmod(d, v)
        for a in range(min(v, d)):
            stack[:, xs, a] = linalg._gram(basis[:, xs, :, a * base + min(a, rem) : (a + 1) * base + min(a + 1, rem)])
    stack[:, -1, 0] = np.eye(d)
    return stack


def _start_arrays(scenario: BellScenario, d_a: int, d_b: int, seed: int, indices, fixed_state=None):
    """The draws [states, g_a, g_b] of the restarts ``indices`` in order, and
    the starts that ``drive_lockstep`` runs on them, which make each party's
    g its POVM stack (``_random_povms``).  Restart i reads one
    ``normal`` draw from ``spawn_rng(seed, i)`` as the real then imaginary
    parts of its state, unless ``fixed_state`` is given, then of each
    setting's g, Alice's first."""
    counts, dims, n = (scenario.outcomes_a, scenario.outcomes_b), (d_a, d_b), len(indices)
    sizes = [0 if fixed_state is not None else 2 * d_a * d_b, *(2 * len(c) * d * d for c, d in zip(counts, dims))]
    draws = np.array([spawn_rng(seed, i).normal(size=sum(sizes)) for i in indices]).reshape(n, sum(sizes))
    parts = np.split(draws, np.cumsum(sizes)[:-1], axis=1)
    if fixed_state is None:
        states = parts[0][:, : d_a * d_b] + 1j * parts[0][:, d_a * d_b :]
        states = states / np.array([np.linalg.norm(v) for v in states]).reshape(-1, 1)
    else:
        states = np.tile(fixed_state, (n, 1))
    g = [p.reshape(n, len(c), 2, d, d) for p, c, d in zip(parts[1:], counts, dims)]
    starts = [(slot, lambda *a, c=c, slot=slot: _random_povms(c, a[slot])) for slot, c in enumerate(counts, 1)]
    return [states, *(x[:, :, 0] + 1j * x[:, :, 1] for x in g)], starts


def _model(scenario: BellScenario, state, stack_a, stack_b) -> QuantumModel:
    """The model of one member's rows of the working arrays."""
    povms = povm_views(stack_a, scenario.outcomes_a), povm_views(stack_b, scenario.outcomes_b)
    return QuantumModel(stack_a.shape[-1], stack_b.shape[-1], state.copy(), *povms)


def seeded_models(scenario: BellScenario, d_a: int, d_b: int, seed: int, count: int):
    """The start models of ``seesaw``'s restarts 0 to count - 1: their draws
    after their starts, which ``drive_lockstep`` runs with no iteration;
    stream i depends only on (seed, i).  A start that raises a linear-algebra
    error raises it here, the earliest restart's.  A dimension below 2 or a
    count below 1 raises ``ConfigError``, as ``seesaw`` does."""
    d_a, d_b, count = check_count(d_a, "d_a", 2), check_count(d_b, "d_b", 2), check_count(count, "count", 1)
    draws, starts = _start_arrays(scenario, d_a, d_b, seed, range(count))
    *_, rows, aborted = drive_lockstep(draws, starts, [], lambda *a: np.zeros(len(a[0])), 0)
    if aborted:
        raise aborted[min(aborted)]
    return [_model(scenario, *member) for member in zip(*rows)]


def update_state(states, operators) -> np.ndarray:
    """The see-saw's state step on a batch: new (B, d_a d_b) states in the top
    eigenspace of the members' (B, d_a d_b, d_a d_b) Bell ``operators``, from
    one stacked eigensolve of their Hermitian parts, which tests no
    Hermiticity, the top cluster picked by a per-member eigenvalue mask.

    Within a degenerate top eigenspace the previous state's projection is kept
    (when its norm is at least ``PREVIOUS_STATE_MIN_OVERLAP``) to avoid
    cycling.  The objective never decreases.
    """
    w, v = linalg._eigh_descending(linalg._hermitian_part(operators))
    top = w[:, :1]
    vecs = v * (w >= top - DEGENERACY_TOL * np.maximum(1.0, np.abs(top)))[:, None, :]
    proj = (vecs @ (linalg._adjoint(vecs) @ states[:, :, None]))[:, :, 0]
    # np.linalg.norm(proj, axis=1) without its call overhead: the same formula, so the same bits.
    norm = np.sqrt(np.add.reduce((proj.conj() * proj).real, 1))
    keep = norm >= PREVIOUS_STATE_MIN_OVERLAP
    return np.where(keep[:, None], proj / np.where(keep, norm, 1.0)[:, None], v[:, :, 0])


def update_measurement_binary(ops) -> np.ndarray:
    """Exact maximizers for two-outcome settings: from a (B, settings, width,
    d, d) stack of their operators, the (B, settings, d, d) first elements,
    each the projector onto the eigenspace of F_0 - F_1 with eigenvalues above
    ``EXCHANGE_TOL``.  The second element is the identity minus the first, so
    a tie (F_0 = F_1) gives 0 and then the identity."""
    return linalg._projector(*linalg._eigh_descending(ops[:, :, 0] - ops[:, :, 1]), EXCHANGE_TOL)


def update_measurement_multi(ops, elements, counts) -> np.ndarray:
    """Up to ``PAIR_PASSES`` rounds of round-robin exact pairwise exchanges on
    a (B, settings, width, d, d) stack of POVMs with three or more outcomes
    against their operators.  POVM constraints are preserved and the
    objective never decreases.

    For each pair (a, a') the sum S = M_a + M_a' is held fixed and
    tr(M_a (F_a - F_a')) is maximized over 0 <= M_a <= S.  With R = sqrt(S)
    and X = R Δ R for Δ = F_a - F_a', the maximizer is R P R, P the projector
    onto X's eigenvectors V₊ with eigenvalues above ``EXCHANGE_TOL``,
    supported inside S; it reaches tr(P X), the sum of those eigenvalues, so
    one eigensolve of X gives both the gain and the new element W W† with
    W = R V₊.  X is Hermitian by construction, so the eigensolve takes its
    Hermitian part and tests no Hermiticity.  The current tr(M_a Δ) is an
    elementwise sum, Δ being Hermitian.

    Each pair runs once over every member and setting at a time; per-member
    masks skip pairs past a setting's outcome ``counts``, pairs with an empty
    sum and no-gain exchanges, so each setting sees the same sequence of
    exchanges as it would alone.  Rows are gathered only when some are
    skipped.  A pass that changes no row is a fixed point: the next pass
    would see the same elements and repeat it, so the passes stop there.
    """
    n, m, width, d, _ = elements.shape
    elements = elements.copy().reshape(n * m, width, d, d)
    ops = ops.reshape(n * m, width, d, d)
    counts = np.tile(counts, n)
    pairs = [
        (a, a2, counts > a2, ops[:, a] - ops[:, a2])
        for a in range(width)
        for a2 in range(a + 1, width)
    ]
    for _ in range(PAIR_PASSES):
        changed = False
        for a, a2, valid, delta in pairs:
            s = elements[:, a] + elements[:, a2]
            live = valid & (np.abs(s).max(axis=(-1, -2)) >= 1e-15)
            n_live = np.count_nonzero(live)
            if not n_live:
                continue
            rows = slice(None) if n_live == len(live) else live.nonzero()[0]
            s, delta = s[rows], delta[rows]
            root = s
            drifted = np.abs(s @ s - s).max(axis=(-1, -2)) > PROJECTOR_DRIFT_TOL
            if np.count_nonzero(drifted):
                root = s.copy()
                root[drifted] = linalg.psd_pseudo_sqrt(s[drifted])
            w, v = linalg._eigh_descending(linalg._hermitian_part(root @ delta @ root))
            above = w > EXCHANGE_TOL
            gain = (w * above).sum(axis=-1)
            current = (elements[rows, a] * delta.conj()).real.sum(axis=(-1, -2))
            # Skip no-gain exchanges (ties): keeps fully degenerate POVMs
            # unchanged instead of shoving their mass onto one element.
            better = gain - current > 1e-13 * np.maximum(1.0, np.abs(current))
            n_better = np.count_nonzero(better)
            if not n_better:
                continue
            vecs = v * above[:, None, :]
            if n_better < len(better):
                rows = live.nonzero()[0][better]
                root, vecs, s = root[better], vecs[better], s[better]
            new_a = linalg._gram(root @ vecs)
            elements[rows, a] = new_a
            elements[rows, a2] = s - new_a
            changed = True
        if not changed:
            break
    return elements.reshape(n, m, width, d, d)


def _party_plan(f: BellFunctional, party: str) -> tuple:
    """What a party step needs from ``f``'s scenario, built once per run:
    the party, "A" or "B", the index of its binary settings and that of the
    rest - ``None`` if empty, a slice if all, else an index array, the same
    for operators and POVMs - and the rest's counts."""
    counts = np.asarray(f.scenario.outcomes_a if party == "A" else f.scenario.outcomes_b)
    groups = []
    for mask in (counts == 2, counts > 2):
        if mask.all():
            groups.append(slice(0, len(counts)))
        elif mask.any():
            groups.append(np.flatnonzero(mask))
        else:
            groups.append(None)
    return party, *groups, counts[counts > 2]


def _party_step(plan: tuple, matrix: np.ndarray, states, stacks_a, stacks_b) -> np.ndarray:
    """The party's new POVM stack after re-optimizing all of its settings
    for every member of a batch in one step.

    One contraction by ``matrix``, the ``contraction_matrix``, gives every
    setting's F; all binary settings of all members are solved by one
    ``update_measurement_binary`` call, and all settings with three or more
    outcomes by one ``update_measurement_multi`` call.  F of one setting does
    not depend on the party's other settings, so the result equals updating
    the settings one after another.
    """
    party, binary, multi, counts = plan
    ops = party_operators(matrix, states, stacks_a, stacks_b, party)
    povms = (stacks_a if party == "A" else stacks_b).copy()
    if binary is not None:
        m0 = update_measurement_binary(ops[:, binary])
        povms[:, binary, 0] = m0
        povms[:, binary, 1] = povms[:, -1:, 0] - m0
    if multi is not None:
        povms[:, multi] = update_measurement_multi(ops[:, multi], povms[:, multi], counts)
    return povms


def _rows_that_pass(step, arrays: list, members: np.ndarray, aborted: dict):
    """``(step(*arrays), None)``, or if that raises a linear-algebra error,
    the step re-run row by row: (the passing rows' results concatenated, or
    None, their positions), a failing row's error put in ``aborted`` under
    its entry of ``members``."""
    try:
        return step(*arrays), None
    except _LINALG_ERRORS:
        pass
    kept, parts = [], []
    for i, member in enumerate(members):
        try:
            parts.append(step(*(a[i : i + 1] for a in arrays)))
            kept.append(i)
        except _LINALG_ERRORS as exc:
            aborted[int(member)] = exc
    return (np.concatenate(parts) if parts else None), kept


def drive_lockstep(arrays: list, starts, steps, objective, max_iterations: int) -> tuple:
    """The restart loop of both searches, from a batch's draws to its record.

    ``arrays`` hold the batch's members, one row each in restart order, and
    at least one.  Each (slot, step) of ``starts`` sets ``arrays[slot] =
    step(*arrays)`` once; then each iteration does so for each pair of
    ``steps`` in turn and recomputes ``objective(*arrays)``, one value per
    member, first computed after the starts.  A member stops once its
    iteration gains less than ``CONVERGENCE_TOL`` (its converged flag) or at
    ``max_iterations`` (at 0, after the starts), and its rows are dropped, so
    each step runs on whole arrays and stragglers share their calls until the
    last one stops.  An iteration in which no member stops copies no row.  If
    a start or a step raises a linear-algebra error, it is re-run row by row
    and only the rows that raise are aborted; a batch that this empties runs
    no further step.  Returns the record (values, iterations, converged,
    rows, aborted) of every member, in member order: each member's last
    objective, count and flag (-inf, 0 and False if aborted), its final rows
    of every array (zero if aborted; [] if no member stopped), {member: error}.
    """
    n = len(arrays[0])
    values, iterations, flags = (np.full(n, fill) for fill in (-np.inf, 0, False))
    rows, aborted = [], {}
    # The starts gain without bound on -inf, so only a cap of 0 stops a member there.
    arrays, current, members = list(arrays), np.full(n, -np.inf), np.arange(n)
    for iteration in range(max_iterations + 1):
        for slot, step in steps if iteration else starts:
            result, kept = _rows_that_pass(step, arrays, members, aborted)
            if kept is not None:
                if not kept:
                    return values, iterations, flags, rows, aborted
                arrays, current, members = [a[kept] for a in arrays], current[kept], members[kept]
            arrays[slot] = result
        previous, current = current, objective(*arrays)
        converged = current - previous < CONVERGENCE_TOL
        done = converged if iteration < max_iterations else np.ones_like(converged)
        if done.any():
            stopped = members[done]
            values[stopped], iterations[stopped], flags[stopped] = current[done], iteration, converged[done]
            rows = rows or [np.zeros((n, *a.shape[1:]), a.dtype) for a in arrays]
            for final, a in zip(rows, arrays):
                final[stopped] = a[done]
            if done.all():
                break
            arrays, current, members = [a[~done] for a in arrays], current[~done], members[~done]
    return values, iterations, flags, rows, aborted


def _lockstep(f: BellFunctional, arrays, max_iterations: int, starts=(), state_step: bool = True) -> tuple:
    """``refine``'s schedule, less the state step unless ``state_step``, run by
    ``drive_lockstep`` on a batch's working arrays [states, stacks_a, stacks_b],
    or on draws that ``starts`` make those, and the Bell operators it carries,
    which its last start builds (see the module docstring); its record."""
    matrix = contraction_matrix(f)
    # Each party's plan is bound as the lambda's default, once per run.
    steps = [
        (slot, lambda s, a, b, ops, plan=_party_plan(f, party): _party_step(plan, matrix, s, a, b))
        for slot, party in ((1, "A"), (2, "B"))
    ]
    steps.append((3, lambda s, a, b, ops: bell_operators(matrix, a, b)))
    starts = [*starts, steps[-1]]
    if state_step:
        steps.insert(0, (0, lambda s, a, b, ops: update_state(s, ops)))

    def objective(s, a, b, ops):  # Re ψ†Bψ
        return (s.conj() * (ops @ s[:, :, None])[:, :, 0]).real.sum(axis=1)

    # The Bell operators' slot holds nothing until the last start fills it.
    return drive_lockstep([*arrays, np.empty((len(arrays[0]), 0))], starts, steps, objective, max_iterations)


def refine(f: BellFunctional, model: QuantumModel, max_iterations: int = SeesawConfig.max_iterations):
    """Run the update schedule from a given model until converged, for at
    most ``max_iterations`` iterations, an integer >= 1 (``ConfigError``).

    Schedule per iteration: the state, then every Alice setting in one party
    step, then every Bob setting in one step.  A party's settings do not
    interact once the state and the partner's POVMs are fixed, so this equals
    updating them one by one in index order.  Returns (value, model,
    iterations, converged) from row 0 of ``seesaw``'s lockstep record on a
    batch of one, the same as in a batch; a linear-algebra error is raised.
    The loop's eigensolves test no Hermiticity, so the model's POVM stacks
    are tested once first, by ``eig_hermitian``'s rule: an element that
    fails it raises ``NotHermitianError`` before any step.
    """
    max_iterations = check_count(max_iterations, "max_iterations", 1)
    stacks = model_stacks(f, model)
    for stack in stacks:
        linalg._check_hermitian(stack)
    arrays = [model.state[None], *(s[None] for s in stacks)]
    values, iterations, converged, rows, aborted = _lockstep(f, arrays, max_iterations)
    if aborted:
        raise aborted[0]
    return float(values[0]), _model(f.scenario, *(a[0] for a in rows[:3])), int(iterations[0]), bool(converged[0])


def _batch_task(args) -> tuple:
    """The restarts ``indices`` run in lockstep as one batch, from their draws
    on: the record's values, counts and flags, in restart order,
    {restart: "<ErrorType>: <message>"} for the aborted ones, start draws
    included, and the model of the first best (None if every restart
    aborted); a ``fixed_state`` (unit, or None) is kept by every restart."""
    f, d_a, d_b, cfg, fixed_state, indices = args
    draws, starts = _start_arrays(f.scenario, d_a, d_b, cfg.seed, indices, fixed_state)
    *record, rows, aborted = _lockstep(f, draws, cfg.max_iterations, starts, state_step=fixed_state is None)
    best = int(np.argmax(record[0]))  # the first maximum; -inf only if every restart aborted
    model = _model(f.scenario, *(a[best] for a in rows[:3])) if record[0][best] > -np.inf else None
    errors = {indices[member]: f"{type(exc).__name__}: {exc}" for member, exc in sorted(aborted.items())}
    return *record, errors, model


def _unit_state(fixed_state, d_a: int, d_b: int) -> np.ndarray:
    """``fixed_state`` as a complex unit vector of length d_a d_b: v / ‖v‖,
    v first divided by its largest part unless ‖v‖² is a finite normal double
    (every catalog state's is), so no square overflows or underflows.  A
    non-finite entry, then a wrong length, then a zero vector is a ``ConfigError``."""
    v = np.asarray(fixed_state, dtype=complex).reshape(-1)
    if not np.isfinite(v).all():
        raise ConfigError("fixed_state has a non-finite entry")
    if v.size != d_a * d_b:
        raise ConfigError(f"fixed_state has length {v.size}, expected {d_a * d_b}")
    if not np.finfo(float).tiny <= np.vdot(v, v).real < np.inf:
        scale = np.maximum(np.abs(v.real), np.abs(v.imag)).max()
        if scale == 0.0:
            raise ConfigError("fixed_state must be a nonzero vector")
        v = v / scale
    return v / np.linalg.norm(v)


def seesaw(
    f: BellFunctional, d_a: int, d_b: int, cfg: SeesawConfig | None = None, jobs: int = 1, fixed_state=None
) -> SeesawResult:
    """Best lower bound on the (d_a, d_b)-dimensional maximum of ``f`` over
    ``cfg.restarts`` independent restarts; a ``fixed_state`` of d_a d_b
    entries, normalized once by ``_unit_state``, is every restart's state.

    The restart indices are cut into the fewest near-equal contiguous ranges
    that give each of ``min(jobs, ceil(restarts / RESTART_BATCH))`` workers
    one and hold at most ``max(RESTART_BATCH, BATCH_CELLS // (d_a d_b)^2)``
    each; a range runs in lockstep as one batch (see the module docstring),
    and two or more workers map over the ranges in a process pool, whose
    machinery loads when a run first needs two or more workers.  Restarts
    use counter-derived RNG streams, a member's arithmetic does not depend on
    its batch, and results merge by max with ties going to the earliest
    restart, so serial and parallel runs agree exactly.  Linear-algebra
    failures abort only the affected restart (with a warning).  Operator
    entries are at most S = sum |C|, as POVM elements and states have norm
    <= 1, and the largest numbers formed are symmetrization sums of a
    difference of two operators (4 S), exchange traces over d eigenvalues
    (2 d S) and ψ†Bψ <= S, so a functional with 4 max(d_a, d_b) S beyond the
    float range raises ``InvalidFunctionalError`` before any restart.  A
    batch that runs out of memory, serially or in a worker, raises
    ``ConfigError`` naming (d_a, d_b).  ``jobs``, ``d_a``, ``d_b`` and
    ``fixed_state`` are checked in that order, before the reach.
    """
    cfg = SeesawConfig() if cfg is None else cfg
    jobs, d_a, d_b = check_count(jobs, "jobs", 1), check_count(d_a, "d_a", 2), check_count(d_b, "d_b", 2)
    fixed_state = None if fixed_state is None else _unit_state(fixed_state, d_a, d_b)
    with np.errstate(over="ignore"):
        reach = 4.0 * max(d_a, d_b) * float(np.abs(f.coefficients).sum())
    if not np.isfinite(reach):
        raise InvalidFunctionalError(f"coefficients take the see-saw's operators beyond the float range: {reach}")
    workers = min(jobs, -(-cfg.restarts // RESTART_BATCH))
    n_ranges = max(workers, -(-cfg.restarts // max(RESTART_BATCH, BATCH_CELLS // (d_a * d_b) ** 2)))
    cuts = [cfg.restarts * i // n_ranges for i in range(n_ranges + 1)]
    tasks = [(f, d_a, d_b, cfg, fixed_state, range(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]
    try:
        if workers > 1:
            # Imported here so that runs that stay in one process never load multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                batches = list(pool.map(_batch_task, tasks))
        else:
            batches = [_batch_task(t) for t in tasks]
    except MemoryError as exc:
        raise ConfigError(f"a ({d_a},{d_b}) see-saw does not fit in memory: {exc}") from exc

    values, iterations, flags = (np.concatenate(c).tolist() for c in zip(*(batch[:3] for batch in batches)))
    aborted = {index: error for batch in batches for index, error in batch[3].items()}
    for index, error in aborted.items():
        warnings.warn(f"restart {index} aborted: {error}", stacklevel=2)
    # The first batch to reach the highest value holds the earliest restart that does.
    best_value, best_model = max(((float(batch[0].max()), batch[4]) for batch in batches), key=lambda best: best[0])
    if best_model is None:
        raise NoConvergenceError("every restart aborted; see warnings")
    return SeesawResult(best_value, best_model, values, iterations, flags, aborted)


def embed_model(model: QuantumModel, d_a: int, d_b: int) -> QuantumModel:
    """Embed a model into larger local dimensions.

    The state and both POVM stacks are zero-padded, and the new dimensions'
    identity block is put on outcome 0 of every setting and on the identity
    slot, so each setting still sums to the identity.  A dimension that is
    not an integer of at least 2 raises ``ConfigError``, as ``seesaw`` does.
    """
    d_a, d_b = check_count(d_a, "d_a", 2), check_count(d_b, "d_b", 2)
    if d_a < model.d_a or d_b < model.d_b:
        raise ConfigError("embedding target dimensions must not shrink")
    state = np.zeros((d_a, d_b), dtype=complex)
    state[: model.d_a, : model.d_b] = model.state.reshape(model.d_a, model.d_b)
    povms = []
    for stack, counts, d in zip((model.stack_a, model.stack_b), model.outcome_counts(), (d_a, d_b)):
        small = stack.shape[-1]
        big = np.zeros(stack.shape[:2] + (d, d), dtype=complex)
        big[..., :small, :small] = stack
        big[:, 0, small:, small:] = np.eye(d - small)
        povms.append(povm_views(big, counts))
    return QuantumModel(d_a, d_b, state.reshape(-1), *povms)
