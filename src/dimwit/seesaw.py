"""Alternating lower-bound search for fixed-dimension quantum values.

Each restart seeds a random pure state and random projective measurements,
then repeats: replace the state by (a vector in) the Bell operator's top
eigenspace, then re-optimize all of Alice's measurement settings in one step,
then all of Bob's.  Once the state and the partner's POVMs are fixed, the
objective splits into one independent term per setting of the party, so a
party step gives the same model as updating its settings one at a time.
Binary settings are solved exactly by a positive-eigenspace split, all of a
party's at once on a stack; settings with three or more outcomes cycle
through exact pairwise exchanges that redistribute each pair's sum
optimally.  Every step is a closed-form eigenproblem, so the objective is
non-decreasing and every iterate is a feasible model - values are honest
lower bounds on the dimension-restricted maximum, found heuristically.

Restarts run in lockstep batches.  ``seesaw`` cuts the restart indices into
consecutive batches of ``RESTART_BATCH``.  A batch holds its members' states
as one (B, d_a d_b) array and each party's POVMs as one (B, settings + 1,
width, d, d) array in the ``povm_stack`` layout, so each step above is a few
stacked contractions and eigensolves for the whole batch, and a model is
built only once per restart, at the end.  Members that converge leave the
active set.  Every stacked operation acts member by member, so a restart's
iterates do not depend on its batch; ``refine`` is the same loop on a batch
of one.  If a stacked step raises a linear-algebra error, that step is re-run
member by member and only the members that raise are aborted.  A process
pool, when asked for, maps over batches, and only when there are two or more.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import ConfigError, NoConvergenceError, NotHermitianError, NotPSDError, WrongOutcomeCountError
from .scenario import (
    BellFunctional,
    BellScenario,
    QuantumModel,
    model_stacks,
    stacked_bell_operator,
    stacked_party_operators,
    stacked_values,
)

#: Eigenvalues within this of the top one count as the top eigenspace.
DEGENERACY_TOL = 1e-10
#: Keep the previous state if its top-eigenspace projection has at least this norm.
PREVIOUS_STATE_MIN_OVERLAP = 1e-6
#: Eigenvalue cutoff inside measurement updates.
EXCHANGE_TOL = 1e-9
#: max |S@S - S| under which a pair sum is treated as an exact projector.
PROJECTOR_DRIFT_TOL = 1e-11
#: Restarts per lockstep batch.  Batches are cut from the restart indices
#: alone, never from ``jobs``, and a member's result does not depend on its
#: batch, so this trades memory against per-call overhead without changing
#: any result.
RESTART_BATCH = 16
#: Round-robin passes over the outcome pairs of a setting with three or more
#: outcomes in each measurement update.
PAIR_PASSES = 3
#: A restart has converged once one full iteration improves the objective by
#: less than this; ``grothendieck.vector_seesaw`` uses it too.
CONVERGENCE_TOL = 1e-10

_LINALG_ERRORS = (NotHermitianError, NoConvergenceError, NotPSDError)


@dataclass(frozen=True, eq=False)
class SeesawConfig:
    """Knobs for the restart loop, checked on construction (``ConfigError``);
    defaults suit scenarios up to two qutrits.  The pairwise-exchange passes
    per update and the convergence threshold are the constants
    ``PAIR_PASSES`` and ``CONVERGENCE_TOL``."""

    restarts: int = 50
    max_iterations: int = 500
    seed: int = 0
    fixed_state: np.ndarray | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.fixed_state is not None:
            state = np.asarray(self.fixed_state, dtype=complex).reshape(-1)
            if not np.isfinite(state).all():
                raise ConfigError("fixed_state has a non-finite entry")
            norm = float(np.linalg.norm(state))
            if norm == 0.0:
                raise ConfigError("fixed_state must be a nonzero vector")
            state = state / norm
            state.flags.writeable = False
            object.__setattr__(self, "fixed_state", state)


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
    """Counter-derived RNG stream; identical regardless of execution order."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _random_projective_povm(d: int, outcomes: int, rng: np.random.Generator):
    """Projective POVM from the eigenbasis of a random Hermitian matrix,
    outcomes taking contiguous basis blocks with sizes as equal as possible
    (zero-size blocks give zero elements when outcomes exceed d)."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    basis = linalg.eig_hermitian((g + g.conj().T) / 2.0).eigenvectors
    base, rem = divmod(d, outcomes)
    sizes = [base + 1] * rem + [base] * (outcomes - rem)
    elements = []
    start = 0
    for size in sizes:
        if size == 0:
            elements.append(np.zeros((d, d), dtype=complex))
            continue
        blk = basis[:, start : start + size]
        start += size
        p = blk @ blk.conj().T
        elements.append((p + p.conj().T) / 2.0)
    return tuple(elements)


def _random_model(scenario, d_a, d_b, rng, fixed_state=None) -> QuantumModel:
    state = _random_state(d_a * d_b, rng) if fixed_state is None else np.array(fixed_state)
    povms_a = tuple(_random_projective_povm(d_a, v, rng) for v in scenario.outcomes_a)
    povms_b = tuple(_random_projective_povm(d_b, v, rng) for v in scenario.outcomes_b)
    return QuantumModel(d_a, d_b, state, povms_a, povms_b)


def seeded_models(scenario: BellScenario, d_a: int, d_b: int, seed: int, count: int):
    """Reproducible initial models; stream i depends only on (seed, i)."""
    return [
        _random_model(scenario, d_a, d_b, spawn_rng(seed, i)) for i in range(count)
    ]


def update_state(f: BellFunctional, model: QuantumModel, fixed_state=None) -> QuantumModel:
    """Move the state into the Bell operator's top eigenspace.

    Within a degenerate top eigenspace the previous state's projection is kept
    (when its norm is at least 1e-6) to avoid cycling; a pinned ``fixed_state``
    makes this a no-op.  The objective never decreases.  This is the
    see-saw's state step on a batch of one.
    """
    if fixed_state is not None:
        return model
    stack_a, stack_b = model_stacks(f, model)
    return replace(model, state=_state_step(f, model.state[None], stack_a[None], stack_b[None])[0])


def _state_step(f: BellFunctional, states, stacks_a, stacks_b) -> np.ndarray:
    """New (B, d_a d_b) states of a batch (see ``update_state``): one stacked
    eigensolve of the Bell operators, the top cluster picked by a per-member
    eigenvalue mask."""
    eig = linalg.eig_hermitian(stacked_bell_operator(f, stacks_a, stacks_b))
    top = eig.eigenvalues[:, :1]
    cluster = eig.eigenvalues >= top - DEGENERACY_TOL * np.maximum(1.0, np.abs(top))
    vecs = eig.eigenvectors * cluster[:, None, :]
    proj = (vecs @ (vecs.conj().swapaxes(-1, -2) @ states[:, :, None]))[:, :, 0]
    norm = np.linalg.norm(proj, axis=1)
    keep = norm >= PREVIOUS_STATE_MIN_OVERLAP
    return np.where(keep[:, None], proj / np.where(keep, norm, 1.0)[:, None], eig.eigenvectors[:, :, 0])


def _exchange_pairs(ops, elements, counts) -> np.ndarray:
    """Round-robin exact pairwise exchanges (see ``update_measurement_multi``)
    on a (B, settings, width, d, d) stack of POVMs against their operators.

    Each pair (a, a') runs once over every member and setting at a time;
    per-member masks skip pairs past a setting's outcome ``counts``, pairs
    with an empty sum and no-gain exchanges, so each setting sees the same
    sequence of exchanges as it would alone.
    """
    n, m, width, d, _ = elements.shape
    elements = elements.reshape(n * m, width, d, d).copy()
    ops = ops.reshape(n * m, width, d, d)
    counts = np.tile(counts, n)
    for _ in range(PAIR_PASSES):
        for a in range(width):
            for a2 in range(a + 1, width):
                s = elements[:, a] + elements[:, a2]
                live = np.flatnonzero((counts > a2) & (np.abs(s).max(axis=(-1, -2)) >= 1e-15))
                if not live.size:
                    continue
                s = s[live]
                delta = ops[live, a] - ops[live, a2]
                root = s.copy()
                drifted = np.abs(s @ s - s).max(axis=(-1, -2)) > PROJECTOR_DRIFT_TOL
                if drifted.any():
                    root[drifted] = linalg.psd_pseudo_sqrt(s[drifted], EXCHANGE_TOL)
                sandwiched = root @ delta @ root
                pos = linalg.positive_projector(sandwiched, EXCHANGE_TOL)
                # Skip no-gain exchanges (ties): keeps fully degenerate POVMs
                # unchanged instead of shoving their mass onto one element.
                gain = np.trace(pos @ sandwiched, axis1=-2, axis2=-1).real
                current = np.trace(elements[live, a] @ delta, axis1=-2, axis2=-1).real
                better = gain - current > 1e-13 * np.maximum(1.0, np.abs(current))
                if not better.any():
                    continue
                root = root[better]
                new_a = root @ pos[better] @ root
                new_a = (new_a + new_a.conj().swapaxes(-1, -2)) / 2.0
                elements[live[better], a] = new_a
                elements[live[better], a2] = s[better] - new_a
    return elements.reshape(n, m, width, d, d)


def _party_step(f: BellFunctional, states, stacks_a, stacks_b, party: str, settings) -> np.ndarray:
    """The party's new POVM stack after re-optimizing the listed settings of
    every member of a batch in one step.

    One contraction builds every setting's F; all binary settings of all
    members are solved by one stacked ``positive_projector`` call (the first
    element becomes the projector onto the positive eigenspace of F_0 - F_1);
    settings with three or more outcomes run ``PAIR_PASSES`` rounds of
    pairwise exchanges over the whole stack.  F of one setting does not
    depend on the party's other settings, so the result equals updating the
    settings one after another.
    """
    settings = np.asarray(list(settings), dtype=int)
    ops = stacked_party_operators(f, states, stacks_a, stacks_b, party, settings)
    counts = np.asarray(f.scenario.outcomes_a if party == "A" else f.scenario.outcomes_b)[settings]
    povms = (stacks_a if party == "A" else stacks_b).copy()
    binary = counts == 2
    if binary.any():
        m0 = linalg.positive_projector(ops[:, binary, 0] - ops[:, binary, 1], EXCHANGE_TOL)
        povms[:, settings[binary], 0] = m0
        povms[:, settings[binary], 1] = np.eye(m0.shape[-1]) - m0
    if not binary.all():
        multi = settings[~binary]
        povms[:, multi] = _exchange_pairs(ops[:, ~binary], povms[:, multi], counts[~binary])
    return povms


def _povms(stack: np.ndarray, counts) -> tuple:
    """Tuples of POVM elements of one party from its ``povm_stack`` array."""
    return tuple(tuple(stack[x, :v]) for x, v in enumerate(counts))


def _update_party(f: BellFunctional, model: QuantumModel, party: str, settings) -> QuantumModel:
    """``_party_step`` on a batch of one model."""
    stack_a, stack_b = model_stacks(f, model)
    stack = _party_step(f, model.state[None], stack_a[None], stack_b[None], party, settings)[0]
    if party == "A":
        return replace(model, povms_a=_povms(stack, f.scenario.outcomes_a))
    return replace(model, povms_b=_povms(stack, f.scenario.outcomes_b))


def update_measurement_binary(f: BellFunctional, model: QuantumModel, party: str, setting: int) -> QuantumModel:
    """Exact maximizer for a two-outcome setting: the first element becomes
    the projector onto the positive eigenspace of F_0 - F_1.  This is the
    see-saw's party step restricted to one setting."""
    counts = f.scenario.outcomes_a if party == "A" else f.scenario.outcomes_b
    if counts[setting] != 2:
        raise WrongOutcomeCountError(
            f"setting {setting} of party {party} has {counts[setting]} outcomes, expected 2"
        )
    return _update_party(f, model, party, [setting])


def update_measurement_multi(f: BellFunctional, model: QuantumModel, party: str, setting: int) -> QuantumModel:
    """``PAIR_PASSES`` rounds of round-robin exact pairwise exchanges for a
    setting with >= 3 outcomes.

    For each ordered pair (a, a') the sum S = M_a + M_a' is held fixed and
    tr(M_a (F_a - F_a')) is maximized over 0 <= M_a <= S; the closed-form
    solution is sqrt(S) P sqrt(S) with P the positive projector of
    sqrt(S) (F_a - F_a') sqrt(S), supported inside S.  POVM constraints are
    preserved and the objective never decreases.  This is the see-saw's party
    step restricted to one setting.
    """
    counts = f.scenario.outcomes_a if party == "A" else f.scenario.outcomes_b
    v = counts[setting]
    if v < 3:
        raise WrongOutcomeCountError(
            f"setting {setting} of party {party} has {v} outcomes, expected >= 3"
        )
    return _update_party(f, model, party, [setting])


def _guarded(step, active: np.ndarray, errors: dict) -> np.ndarray:
    """Run ``step`` on the active members at once.  If that raises a
    linear-algebra error, re-run it member by member, record each member that
    raises in ``errors`` and drop it.  Returns the members still active."""
    if not active.size:
        return active
    try:
        step(active)
        return active
    except _LINALG_ERRORS:
        pass
    survivors = []
    for i in active:
        try:
            step(active[active == i])
            survivors.append(i)
        except _LINALG_ERRORS as exc:
            errors[int(i)] = exc
    return np.array(survivors, dtype=int)


def _lockstep(f: BellFunctional, models, cfg: SeesawConfig) -> list[tuple]:
    """Run ``refine``'s schedule on a batch of start models in lockstep.

    Returns one (value, model, iterations, converged, error) per model; a
    member that a linear-algebra error aborted gets (-inf, None, 0, False,
    the exception).  Only the final model of each member is built.
    """
    n, d_a, d_b = len(models), models[0].d_a, models[0].d_b
    states = np.stack([m.state for m in models])
    stacks_a, stacks_b = (np.stack(s) for s in zip(*(model_stacks(f, m) for m in models)))
    values = stacked_values(f, states, stacks_a, stacks_b)
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    errors: dict[int, Exception] = {}
    settings_a, settings_b = range(f.scenario.settings_a), range(f.scenario.settings_b)

    def state(i):
        states[i] = _state_step(f, states[i], stacks_a[i], stacks_b[i])

    def alice(i):
        stacks_a[i] = _party_step(f, states[i], stacks_a[i], stacks_b[i], "A", settings_a)

    def bob(i):
        stacks_b[i] = _party_step(f, states[i], stacks_a[i], stacks_b[i], "B", settings_b)

    steps = (alice, bob) if cfg.fixed_state is not None else (state, alice, bob)
    active = np.arange(n)
    for _ in range(cfg.max_iterations):
        iterations[active] += 1
        for step in steps:
            active = _guarded(step, active, errors)
        previous = values[active]
        values[active] = stacked_values(f, states[active], stacks_a[active], stacks_b[active])
        done = values[active] - previous < CONVERGENCE_TOL
        converged[active[done]] = True
        active = active[~done]
        if not active.size:
            break

    outcomes = []
    for i in range(n):
        if i in errors:
            outcomes.append((-np.inf, None, 0, False, errors[i]))
            continue
        model = QuantumModel(
            d_a,
            d_b,
            states[i].copy(),
            _povms(stacks_a[i].copy(), f.scenario.outcomes_a),
            _povms(stacks_b[i].copy(), f.scenario.outcomes_b),
        )
        outcomes.append((float(values[i]), model, int(iterations[i]), bool(converged[i]), None))
    return outcomes


def refine(f: BellFunctional, model: QuantumModel, cfg: SeesawConfig):
    """Run the update schedule from a given model until converged.

    Schedule per iteration: the state, then every Alice setting in one party
    step, then every Bob setting in one step.  A party's settings do not
    interact once the state and the partner's POVMs are fixed, so this equals
    updating them one by one in index order.  Returns (value, model,
    iterations, converged); convergence means one full iteration improved
    the objective by less than ``CONVERGENCE_TOL``.  This is the lockstep
    loop of ``seesaw`` on a batch of one, so a restart gives the same result
    here as inside a batch; a linear-algebra error is raised.
    """
    value, model, iterations, converged, error = _lockstep(f, [model], cfg)[0]
    if error is not None:
        raise error
    return value, model, iterations, converged


def _batch_task(args) -> list[tuple]:
    """Draw the start models of one batch of restart indices and refine them
    in lockstep; one (index, value, model, iterations, converged, error text)
    per restart."""
    f, d_a, d_b, cfg, indices = args
    starts, failed = {}, {}
    for index in indices:
        try:
            starts[index] = _random_model(f.scenario, d_a, d_b, spawn_rng(cfg.seed, index), cfg.fixed_state)
        except _LINALG_ERRORS as exc:
            failed[index] = (-np.inf, None, 0, False, exc)
    refined = dict(zip(starts, _lockstep(f, list(starts.values()), cfg) if starts else []))
    outcomes = []
    for index in indices:
        value, model, iterations, converged, error = failed.get(index) or refined[index]
        text = None if error is None else f"{type(error).__name__}: {error}"
        outcomes.append((index, value, model, iterations, converged, text))
    return outcomes


def seesaw(
    f: BellFunctional, d_a: int, d_b: int, cfg: SeesawConfig | None = None, jobs: int = 1
) -> SeesawResult:
    """Best lower bound on the (d_a, d_b)-dimensional maximum of ``f`` over
    ``cfg.restarts`` independent restarts.

    The restart indices are cut into consecutive batches of
    ``RESTART_BATCH``, and each batch runs in lockstep (see the module
    docstring).  With ``jobs`` > 1 and at least two batches, a process pool
    of at most ``jobs`` workers maps over the batches.  Restarts use
    counter-derived RNG streams, a member's arithmetic does not depend on its
    batch, and results merge by max with ties going to the earliest restart,
    so serial and parallel runs agree exactly.  Linear-algebra failures abort
    only the affected restart (with a warning).
    """
    cfg = SeesawConfig() if cfg is None else cfg
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if d_a < 2 or d_b < 2:
        raise ConfigError(f"local dimensions must be >= 2, got ({d_a},{d_b})")
    if cfg.fixed_state is not None and cfg.fixed_state.size != d_a * d_b:
        raise ConfigError(
            f"fixed_state has length {cfg.fixed_state.size}, expected {d_a * d_b}"
        )
    tasks = [
        (f, d_a, d_b, cfg, range(start, min(start + RESTART_BATCH, cfg.restarts)))
        for start in range(0, cfg.restarts, RESTART_BATCH)
    ]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            batches = list(pool.map(_batch_task, tasks))
    else:
        batches = [_batch_task(t) for t in tasks]

    values, iterations, flags, aborted = [], [], [], {}
    best_value = -np.inf
    best_model = None
    for index, value, model, iters, converged, error in (o for batch in batches for o in batch):
        values.append(value)
        iterations.append(iters)
        flags.append(converged)
        if error is not None:
            aborted[index] = error
            warnings.warn(f"restart {index} aborted: {error}", stacklevel=2)
            continue
        if value > best_value:
            best_value = value
            best_model = model
    if best_model is None:
        raise NoConvergenceError("every restart aborted; see warnings")
    return SeesawResult(best_value, best_model, values, iterations, flags, aborted)


def embed_model(model: QuantumModel, d_a: int, d_b: int) -> QuantumModel:
    """Embed a model into larger local dimensions.

    The state is zero-padded; each POVM element is block-extended with zeros,
    and the new dimensions' identity block is attached to outcome 0 so each
    setting still sums to the identity.
    """
    if d_a < model.d_a or d_b < model.d_b:
        raise ConfigError("embedding target dimensions must not shrink")
    psi = model.state.reshape(model.d_a, model.d_b)
    state = np.zeros((d_a, d_b), dtype=complex)
    state[: model.d_a, : model.d_b] = psi

    def grow(setting, d_old, d_new):
        out = []
        for a, m in enumerate(setting):
            big = np.zeros((d_new, d_new), dtype=complex)
            big[:d_old, :d_old] = m
            if a == 0 and d_new > d_old:
                big[d_old:, d_old:] = np.eye(d_new - d_old)
            out.append(big)
        return tuple(out)

    return QuantumModel(
        d_a,
        d_b,
        state.reshape(-1),
        tuple(grow(s, model.d_a, d_a) for s in model.povms_a),
        tuple(grow(s, model.d_b, d_b) for s in model.povms_b),
    )
