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
    bell_operator,
    model_value,
    povm_stack,
)

#: Eigenvalues within this of the top one count as the top eigenspace.
DEGENERACY_TOL = 1e-10
#: Keep the previous state if its top-eigenspace projection has at least this norm.
PREVIOUS_STATE_MIN_OVERLAP = 1e-6
#: Eigenvalue cutoff inside measurement updates.
EXCHANGE_TOL = 1e-9
#: max |S@S - S| under which a pair sum is treated as an exact projector.
PROJECTOR_DRIFT_TOL = 1e-11


@dataclass(frozen=True, eq=False)
class SeesawConfig:
    """Knobs for the restart loop; defaults suit scenarios up to two qutrits."""

    restarts: int = 50
    max_iterations: int = 500
    convergence_tol: float = 1e-10
    seed: int = 0
    fixed_state: np.ndarray | None = None
    projective_only: bool = False
    pair_pass_count: int = 3

    def __post_init__(self):
        if self.fixed_state is not None:
            state = np.asarray(self.fixed_state, dtype=complex).reshape(-1)
            norm = float(np.linalg.norm(state))
            if norm == 0.0:
                raise ConfigError("fixed_state must be a nonzero vector")
            state = state / norm
            state.flags.writeable = False
            object.__setattr__(self, "fixed_state", state)

    def validate(self) -> None:
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if not self.convergence_tol > 0:
            raise ConfigError("convergence_tol must be > 0")
        if self.pair_pass_count < 1:
            raise ConfigError("pair_pass_count must be >= 1")


@dataclass
class SeesawResult:
    """Outcome of a restart batch; best_value is max(per_restart_values).

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
    makes this a no-op.  The objective never decreases.
    """
    if fixed_state is not None:
        return model
    op = bell_operator(f, model.povms_a, model.povms_b)
    eig = linalg.eig_hermitian(op)
    top = eig.eigenvalues[0]
    width = DEGENERACY_TOL * max(1.0, abs(top))
    cluster = eig.eigenvectors[:, eig.eigenvalues >= top - width]
    proj = cluster @ (cluster.conj().T @ model.state)
    norm = float(np.linalg.norm(proj))
    if norm >= PREVIOUS_STATE_MIN_OVERLAP:
        state = proj / norm
    else:
        state = cluster[:, 0].copy()
    return replace(model, state=state)


def _party_operators(f: BellFunctional, model: QuantumModel, party: str, settings):
    """Per-outcome Hermitian operators F[i, a] for each setting x = settings[i]
    of one party, such that the objective restricted to setting x's POVM is
    sum_a tr(M_xa F[i, a]) plus terms independent of it.

    Returns a (len(settings), max outcomes, d, d) array; outcomes past a
    setting's count are zero.  For Alice, F[i, a] = Psi K_xaᵀ Psi† with
    K_xa = sum_yb C[x, y, a, b] B_yb and Psi the state as a d_a x d_b matrix.
    Bob is the same contraction with the parties swapped:
    C.transpose(1, 0, 3, 2), Alice's POVMs, and Psiᵀ.
    """
    psi = model.state.reshape(model.d_a, model.d_b)
    if party == "A":
        c, partner = f.coefficients, model.povms_b
    elif party == "B":
        c, partner = f.coefficients.transpose(1, 0, 3, 2), model.povms_a
        psi = psi.T
    else:
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    k = np.tensordot(c[list(settings)], povm_stack(partner, c.shape[3]), axes=([1, 3], [0, 1]))
    ops = psi @ k.swapaxes(-1, -2) @ psi.conj().T
    return (ops + ops.conj().swapaxes(-1, -2)) / 2.0


def _exchange_pairs(ops, elements, passes: int):
    """Round-robin exact pairwise exchanges on one setting's POVM ``elements``
    against its operators ``ops`` (see ``update_measurement_multi``)."""
    elements = [np.array(m) for m in elements]
    v = len(elements)
    for _ in range(passes):
        for a in range(v):
            for a2 in range(a + 1, v):
                s = elements[a] + elements[a2]
                if float(np.abs(s).max()) < 1e-15:
                    continue
                delta = ops[a] - ops[a2]
                if float(np.abs(s @ s - s).max()) <= PROJECTOR_DRIFT_TOL:
                    root = s
                else:
                    root, _ = linalg.psd_pseudo_sqrt(s, EXCHANGE_TOL)
                sandwiched = root @ delta @ root
                pos = linalg.positive_projector(sandwiched, EXCHANGE_TOL)
                # Skip no-gain exchanges (ties): keeps fully degenerate POVMs
                # unchanged instead of shoving their mass onto one element.
                gain = float(np.trace(pos @ sandwiched).real)
                current = float(np.trace(elements[a] @ delta).real)
                if gain - current <= 1e-13 * max(1.0, abs(current)):
                    continue
                new_a = root @ pos @ root
                new_a = (new_a + new_a.conj().T) / 2.0
                elements[a] = new_a
                elements[a2] = s - new_a
    return tuple(elements)


def _update_party(f: BellFunctional, model: QuantumModel, party: str, settings, passes: int) -> QuantumModel:
    """Re-optimize the listed settings of one party in one step.

    One contraction builds every setting's F; all binary settings are solved
    by one stacked ``positive_projector`` call (the first element becomes the
    projector onto the positive eigenspace of F_0 - F_1); settings with three
    or more outcomes run ``passes`` rounds of pairwise exchanges.  F of one
    setting does not depend on the party's other settings, so the result
    equals updating the settings one after another.  The model is rebuilt
    once.
    """
    settings = list(settings)
    ops = _party_operators(f, model, party, settings)
    counts = f.scenario.outcomes_a if party == "A" else f.scenario.outcomes_b
    povms = list(model.povms_a if party == "A" else model.povms_b)
    binary = [i for i, x in enumerate(settings) if counts[x] == 2]
    if binary:
        m0 = linalg.positive_projector(ops[binary, 0] - ops[binary, 1], EXCHANGE_TOL)
        m1 = np.eye(m0.shape[-1], dtype=complex) - m0
        for i, p0, p1 in zip(binary, m0, m1):
            povms[settings[i]] = (p0, p1)
    for i, x in enumerate(settings):
        if counts[x] > 2:
            povms[x] = _exchange_pairs(ops[i, : counts[x]], povms[x], passes)
    if party == "A":
        return replace(model, povms_a=tuple(povms))
    return replace(model, povms_b=tuple(povms))


def update_measurement_binary(f: BellFunctional, model: QuantumModel, party: str, setting: int) -> QuantumModel:
    """Exact maximizer for a two-outcome setting: the first element becomes
    the projector onto the positive eigenspace of F_0 - F_1.  This is the
    see-saw's party step restricted to one setting."""
    counts = f.scenario.outcomes_a if party == "A" else f.scenario.outcomes_b
    if counts[setting] != 2:
        raise WrongOutcomeCountError(
            f"setting {setting} of party {party} has {counts[setting]} outcomes, expected 2"
        )
    return _update_party(f, model, party, [setting], passes=1)


def update_measurement_multi(
    f: BellFunctional, model: QuantumModel, party: str, setting: int, passes: int = 3
) -> QuantumModel:
    """Round-robin exact pairwise exchanges for a setting with >= 3 outcomes.

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
    return _update_party(f, model, party, [setting], passes)


def _require_projective(povms) -> None:
    for setting in povms:
        for m in setting:
            drift = float(np.abs(m @ m - m).max())
            if drift > 1e-8:
                raise ConfigError(
                    f"projective_only violated: element drifted from idempotency by {drift:.2e}"
                )


def refine(f: BellFunctional, model: QuantumModel, cfg: SeesawConfig):
    """Run the update schedule from a given model until converged.

    Schedule per iteration: the state, then every Alice setting in one
    ``_update_party`` step, then every Bob setting in one step.  A party's
    settings do not interact once the state and the partner's POVMs are
    fixed, so this equals updating them one by one in index order.  Returns
    (value, model, iterations, converged); convergence means one full
    iteration improved the objective by less than ``convergence_tol``.
    """
    value = model_value(f, model)
    iterations = 0
    converged = False
    for _ in range(cfg.max_iterations):
        iterations += 1
        model = update_state(f, model, cfg.fixed_state)
        for party, count in (("A", f.scenario.settings_a), ("B", f.scenario.settings_b)):
            model = _update_party(f, model, party, range(count), cfg.pair_pass_count)
            if cfg.projective_only:
                _require_projective(model.povms_a if party == "A" else model.povms_b)
        new_value = model_value(f, model)
        improvement = new_value - value
        value = new_value
        if improvement < cfg.convergence_tol:
            converged = True
            break
    return value, model, iterations, converged


def _restart_task(args):
    f, d_a, d_b, cfg, index = args
    try:
        model = _random_model(f.scenario, d_a, d_b, spawn_rng(cfg.seed, index), cfg.fixed_state)
        value, model, iterations, converged = refine(f, model, cfg)
        return index, value, model, iterations, converged, None
    except (NotHermitianError, NoConvergenceError, NotPSDError) as exc:
        return index, -np.inf, None, 0, False, f"{type(exc).__name__}: {exc}"


def seesaw(
    f: BellFunctional, d_a: int, d_b: int, cfg: SeesawConfig | None = None, jobs: int = 1
) -> SeesawResult:
    """Best lower bound on the (d_a, d_b)-dimensional maximum of ``f`` over
    ``cfg.restarts`` independent restarts.

    Restarts use counter-derived RNG streams and merge by max with ties going
    to the earliest restart, so serial and parallel runs agree exactly.
    Linear-algebra failures abort only the affected restart (with a warning).
    """
    cfg = SeesawConfig() if cfg is None else cfg
    cfg.validate()
    if d_a < 2 or d_b < 2:
        raise ConfigError(f"local dimensions must be >= 2, got ({d_a},{d_b})")
    if cfg.fixed_state is not None and cfg.fixed_state.size != d_a * d_b:
        raise ConfigError(
            f"fixed_state has length {cfg.fixed_state.size}, expected {d_a * d_b}"
        )
    tasks = [(f, d_a, d_b, cfg, i) for i in range(cfg.restarts)]
    if jobs > 1 and cfg.restarts > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_restart_task, tasks, chunksize=max(1, cfg.restarts // (4 * jobs))))
    else:
        outcomes = [_restart_task(t) for t in tasks]

    values, iterations, flags, aborted = [], [], [], {}
    best_value = -np.inf
    best_model = None
    for index, value, model, iters, converged, error in outcomes:
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
