"""Command-line surface.

Subcommands: eval, local-bound, seesaw, curve, witness, catalog, grothendieck.
Machine-readable output is JSON with a top-level ``schema: 1`` and an embedded
run manifest (CSV outputs get a ``<file>.manifest.json`` sidecar); identical
command lines with the same seed produce byte-identical output apart from the
manifest's ``duration_s``.

Exit codes: 0 success (witness: Witnessed), 1 witness NotWitnessed, 2 parse or
input error, 3 scenario/signaling mismatch, 4 enumeration space too large,
5 invalid dimensions or configuration.  A failure's code is the ``exit_code``
of its error type in ``dimwit.errors``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, bellfmt, catalog, grothendieck, localbound
from .errors import ConfigError, DimwitError, InvalidFunctionalError
from .scenario import AVERAGE, PARTNER_SETTING_ZERO, evaluate
from .seesaw import SeesawConfig, seesaw

DEFAULT_SEED = 0


@dataclass
class _Manifest:
    argv: list[str]
    seed: int | None
    config: dict
    started: float

    def to_dict(self) -> dict:
        return {
            "command": self.argv,
            "seed": self.seed,
            "config": self.config,
            "version": __version__,
            "duration_s": round(time.monotonic() - self.started, 6),
        }


def _emit_json(payload: dict, manifest: _Manifest) -> None:
    payload = dict(payload)
    payload["schema"] = 1
    payload["manifest"] = manifest.to_dict()
    print(json.dumps(payload, sort_keys=True, indent=2))


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("DIMWIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"DIMWIT_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _default_restarts(d_a: int, d_b: int) -> int:
    # Qutrit-and-up landscapes carry more local optima, so restarts scale with
    # the larger local dimension: 50*max(d_a, d_b) when that exceeds 2, else 50.
    top = max(d_a, d_b)
    return 50 * top if top >= 3 else 50


def _load_functional(arg: str):
    """A functional argument is a file path if one exists, else a catalog name."""
    path = Path(arg)
    if path.exists():
        return bellfmt.parse_functional(path.read_text(encoding="utf-8")), str(path)
    try:
        return catalog.by_name(arg), arg
    except ConfigError as exc:
        raise InvalidFunctionalError(f"{arg!r} is not an existing file; {exc}") from None


def _jobs_default() -> int:
    return os.cpu_count() or 1


def _format_value(v: float) -> str:
    # Fixed 12 decimals gives >= 12 significant digits for the O(1) values
    # this tool reports; JSON output carries full precision.
    return f"{v:.12f}"


def cmd_eval(args) -> int:
    manifest = _Manifest(sys.argv[1:], None, {"policy": args.policy}, time.monotonic())
    functional, _ = _load_functional(args.functional)
    table = bellfmt.parse_table_csv(
        Path(args.table).read_text(encoding="utf-8"), renormalize=args.renormalize
    )
    policy = AVERAGE if args.policy == "average" else PARTNER_SETTING_ZERO
    value = evaluate(functional, table, policy)
    if args.json:
        payload = {"value": value, "renormalized": table.was_renormalized}
        _emit_json(payload, manifest)
    else:
        print(_format_value(value))
    return 0


def cmd_local_bound(args) -> int:
    manifest = _Manifest(sys.argv[1:], None, {"cap": args.cap, "min": args.min}, time.monotonic())
    functional, name = _load_functional(args.functional)
    if args.min:
        value, strategy = localbound.local_bound_min(functional, args.cap)
    else:
        value, strategy = localbound.local_bound(functional, args.cap)
    if args.json:
        _emit_json(
            {
                "functional": name,
                "kind": "min" if args.min else "max",
                "value": value,
                "strategy": {
                    "assignment_a": list(strategy.assignment_a),
                    "assignment_b": list(strategy.assignment_b),
                },
            },
            manifest,
        )
    else:
        print(_format_value(value))
        print(f"strategy A={list(strategy.assignment_a)} B={list(strategy.assignment_b)}")
    return 0


def _seesaw_config(args, d_a: int, d_b: int) -> tuple[SeesawConfig, int, dict]:
    seed = _resolve_seed(args)
    restarts = args.restarts if args.restarts is not None else _default_restarts(d_a, d_b)
    fixed_state = None
    if getattr(args, "fixed_theta", None) is not None and getattr(args, "fixed_gamma", None) is not None:
        raise ConfigError("--fixed-theta and --fixed-gamma are mutually exclusive")
    if getattr(args, "fixed_theta", None) is not None:
        if (d_a, d_b) != (2, 2):
            raise ConfigError("--fixed-theta requires --da 2 --db 2")
        fixed_state = catalog.theta_state(args.fixed_theta)
    if getattr(args, "fixed_gamma", None) is not None:
        if (d_a, d_b) != (3, 3):
            raise ConfigError("--fixed-gamma requires --da 3 --db 3")
        fixed_state = catalog.gamma_state(args.fixed_gamma)
    cfg = SeesawConfig(
        restarts=restarts,
        max_iterations=args.max_iterations,
        seed=seed,
        fixed_state=fixed_state,
    )
    echo = {
        "restarts": restarts,
        "max_iterations": args.max_iterations,
        "d_a": d_a,
        "d_b": d_b,
        "jobs": args.jobs,
        "fixed_theta": getattr(args, "fixed_theta", None),
        "fixed_gamma": getattr(args, "fixed_gamma", None),
    }
    return cfg, seed, echo


def cmd_seesaw(args) -> int:
    cfg, seed, echo = _seesaw_config(args, args.da, args.db)
    manifest = _Manifest(sys.argv[1:], seed, echo, time.monotonic())
    functional, name = _load_functional(args.functional)
    result = seesaw(functional, args.da, args.db, cfg, jobs=args.jobs)
    # An aborted restart has no value: JSON gets null (never the invalid
    # -Infinity) and the summary statistics cover finished restarts only.
    values = [
        None if i in result.aborted else float(v)
        for i, v in enumerate(result.per_restart_values)
    ]
    finished = np.array([v for v in values if v is not None])
    converged = sum(result.converged_flags)
    if args.json:
        _emit_json(
            {
                "functional": name,
                "best_value": result.best_value,
                "value_label": catalog.HEURISTIC_LABEL,
                "per_restart_values": values,
                "aborted": {str(i): error for i, error in sorted(result.aborted.items())},
                "iterations_used": list(result.iterations_used),
                "converged_flags": list(result.converged_flags),
            },
            manifest,
        )
    else:
        print(f"best value ({catalog.HEURISTIC_LABEL}): {_format_value(result.best_value)}")
        print(
            f"restarts {len(values)}  converged {converged}  aborted {len(result.aborted)}  "
            f"median {_format_value(float(np.median(finished)))}  "
            f"min {_format_value(float(finished.min()))}"
        )
        print(
            f"iterations: mean {float(np.mean(result.iterations_used)):.1f}  "
            f"max {max(result.iterations_used)}"
        )
    return 0


def cmd_curve(args) -> int:
    if args.family != "iphi":
        raise ConfigError(f"unknown curve family {args.family!r}")
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    dims = []
    for token in args.dims.split(","):
        token = token.strip()
        if token:
            try:
                d = int(token)
            except ValueError:
                raise ConfigError(f"curve dimension {token!r} is not an integer") from None
            if d < 2:
                raise ConfigError(f"curve dimensions must be >= 2, got {d}")
            if d in dims:
                raise ConfigError(f"curve dimension {d} is given twice")
            dims.append(d)
    if not dims:
        raise ConfigError("no dimensions given")
    cfg, seed, _ = _seesaw_config(args, max(dims), max(dims))
    echo = {
        "family": args.family,
        "steps": args.steps,
        "dims": dims,
        "restarts": cfg.restarts,
        "phi_min": args.phi_min,
        "phi_max": args.phi_max,
        "jobs": args.jobs,
    }
    manifest = _Manifest(sys.argv[1:], seed, echo, time.monotonic())
    # An infinite end makes linspace warn; iphi_sweep rejects the grid.
    with np.errstate(invalid="ignore"):
        phis = np.linspace(args.phi_min, args.phi_max, args.steps)
    rows = catalog.iphi_sweep(phis, dims, cfg, jobs=args.jobs)
    header = ["phi", "local_bound"] + [f"value_d{d}" for d in dims]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{row[col]:.12g}" for col in header))
    text = "\n".join(lines) + "\n"
    out = Path(args.out)
    out.write_text(text, encoding="utf-8")
    out.with_suffix(out.suffix + ".manifest.json").write_text(
        json.dumps(manifest.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_witness(args) -> int:
    cfg, seed, echo = _seesaw_config(args, args.d, args.d)
    echo["threshold"] = args.threshold
    manifest = _Manifest(sys.argv[1:], seed, echo, time.monotonic())
    functional, name = _load_functional(args.functional)
    report = catalog.witness_report(
        functional, args.d, cfg, gap_threshold=args.threshold, functional_id=name, jobs=args.jobs
    )
    payload = {
        "functional": report.functional_id,
        "dimension": report.dimension,
        "local_bound": report.local_bound,
        "value_d": report.value_d,
        "value_d_plus": report.value_d_plus,
        "gap": report.gap,
        "threshold": report.threshold,
        "verdict": report.verdict,
        "value_label": report.value_label,
    }
    _emit_json(payload, manifest)
    return 0 if report.witnessed() else 1


def cmd_catalog(args) -> int:
    functional = catalog.by_name(args.name)
    text = bellfmt.serialize_functional(functional)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_grothendieck(args) -> int:
    seed = _resolve_seed(args)
    echo = {"n": args.n, "restarts": args.restarts, "max_iterations": args.max_iterations}
    manifest = _Manifest(sys.argv[1:], seed, echo, time.monotonic())
    raw = bellfmt.parse_correlation_matrix(Path(args.matrix).read_text(encoding="utf-8"))
    norm = grothendieck.local_norm(raw.matrix)
    normalized = grothendieck.normalize_by(raw.matrix, norm)
    cfg = SeesawConfig(
        restarts=args.restarts,
        max_iterations=args.max_iterations,
        seed=seed,
    )
    value, strategy = grothendieck.vector_seesaw(normalized, args.n, cfg)
    if args.json:
        _emit_json(
            {
                "matrix": args.matrix,
                "m": normalized.m,
                "local_norm": norm,
                "n": args.n,
                "value": value,
                "value_label": catalog.HEURISTIC_LABEL,
                "x_vectors": [[float(v) for v in row] for row in strategy.x_vectors],
                "y_vectors": [[float(v) for v in row] for row in strategy.y_vectors],
            },
            manifest,
        )
    else:
        print(f"local_norm: {_format_value(norm)}")
        print(f"value at N={args.n} ({catalog.HEURISTIC_LABEL}): {_format_value(value)}")
        for label, vectors in (("x", strategy.x_vectors), ("y", strategy.y_vectors)):
            for i, row in enumerate(vectors):
                print(f"{label}[{i}] = [" + ", ".join(f"{v:+.9f}" for v in row) + "]")
    return 0


def _add_seesaw_knobs(p: argparse.ArgumentParser, fixed_state: bool = False) -> None:
    p.add_argument("--restarts", type=int, default=None, help="random restarts (default scales with dimension)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (fallback: DIMWIT_SEED, then 0)")
    p.add_argument("--max-iterations", type=int, default=500)
    p.add_argument(
        "--jobs",
        type=int,
        default=_jobs_default(),
        help="worker processes (>= 1); the pool maps over batches of restarts and "
        "is used only when there are at least two batches",
    )
    if fixed_state:
        p.add_argument("--fixed-theta", type=float, default=None, help="pin state cos(t)|00>+sin(t)|11> (2x2 only)")
        p.add_argument("--fixed-gamma", type=float, default=None, help="pin state (|00>+g|11>+|22>)/sqrt(2+g^2) (3x3 only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dimwit", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"dimwit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a functional on a probability-table CSV")
    p.add_argument("functional", help=".bell file or catalog name")
    p.add_argument("table", help="CSV with header x,y,a,b,p")
    p.add_argument("--policy", choices=["setting-zero", "average"], default="setting-zero")
    p.add_argument("--renormalize", action="store_true", help="repair <1e-7 normalization misses")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("local-bound", help="exact classical bound by enumeration")
    p.add_argument("functional")
    p.add_argument("--min", action="store_true", help="minimum instead of maximum")
    p.add_argument("--cap", type=int, default=localbound.DEFAULT_STRATEGY_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_local_bound)

    p = sub.add_parser("seesaw", help="fixed-dimension lower bound by alternating optimization")
    p.add_argument("functional")
    p.add_argument("--da", type=int, required=True)
    p.add_argument("--db", type=int, required=True)
    _add_seesaw_knobs(p, fixed_state=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_seesaw)

    p = sub.add_parser("curve", help="sweep the iphi family and write a CSV")
    p.add_argument("--family", default="iphi")
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--dims", default="2,3")
    p.add_argument("--phi-min", type=float, default=0.0)
    p.add_argument("--phi-max", type=float, default=math.pi)
    p.add_argument("--out", required=True)
    _add_seesaw_knobs(p)
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("witness", help="dimension-witness gap report (JSON)")
    p.add_argument("functional")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--threshold", type=float, default=1e-3)
    _add_seesaw_knobs(p)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("catalog", help="emit a bundled functional as .bell text")
    p.add_argument("action", choices=["emit"])
    p.add_argument("name", help="cglmp-c | cglmp-d | iphi:<phi> | E | chsh")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("grothendieck", help="normalize a correlation matrix and search unit vectors")
    p.add_argument("-m", "--matrix", required=True, help="CSV of m rows of m reals")
    p.add_argument("--n", type=int, required=True, help="vector dimension N")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-iterations", type=int, default=500)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_grothendieck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DimwitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:
        # Unreadable input: missing, a directory, not UTF-8, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
