"""Command-line surface.

Subcommands: eval, local-bound, seesaw, curve, witness, catalog, grothendieck.
A call builds only the parser of the command it names.
Machine-readable output is JSON with a top-level ``schema: 1`` and an embedded
run manifest (CSV outputs get a ``<file>.manifest.json`` sidecar).  The
manifest holds ``command``, the argv ``main`` received (``sys.argv[1:]`` when
called with none); ``seed``, the resolved seed (``--seed``, then
``DIMWIT_SEED``, then 0; null for commands without one); ``config``, every
other parsed option with its defaults resolved; ``version``; and
``duration_s``.  Identical command lines with the same seed produce
byte-identical output apart from the manifest's ``duration_s``.

Exit codes: 0 success (witness: Witnessed), 1 witness NotWitnessed, 2 parse or
input error, 3 scenario/signaling mismatch, 4 enumeration space too large,
5 invalid dimensions or configuration, a run too large for memory included.  A
failure's code is the ``exit_code`` of its error type in ``dimwit.errors``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, bellfmt, catalog, grothendieck, localbound
from .errors import ConfigError, DimwitError, InvalidFunctionalError, check_count
from .scenario import AVERAGE, PARTNER_SETTING_ZERO, evaluate
from .seesaw import RESTART_BATCH, SeesawConfig, seesaw

DEFAULT_SEED = 0

#: The subcommands, in the order the help lists them.
COMMANDS = ("eval", "local-bound", "seesaw", "curve", "witness", "catalog", "grothendieck")

# Namespace entries kept out of ``config``: the handler, the subcommand name
# (the manifest's ``command`` is the whole argv), what ``main`` records, and
# the seed, which has its own manifest key.
_INTERNAL = ("fn", "command", "argv", "started", "seed")


def _manifest(args) -> dict:
    return {
        "command": args.argv,
        "seed": getattr(args, "seed", None),
        "config": {k: v for k, v in vars(args).items() if k not in _INTERNAL},
        "version": __version__,
        "duration_s": round(time.monotonic() - args.started, 6),
    }


def _emit_json(payload: dict, args) -> None:
    payload = dict(payload)
    payload["schema"] = 1
    payload["manifest"] = _manifest(args)
    print(json.dumps(payload, sort_keys=True, indent=2))


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("DIMWIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"DIMWIT_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _default_restarts(d_a: int, d_b: int) -> int:
    # Qutrit-and-up landscapes carry more local optima, so restarts scale with
    # the larger local dimension: SeesawConfig's default times max(d_a, d_b)
    # when that exceeds 2, else that default.
    top = max(d_a, d_b)
    return SeesawConfig.restarts * top if top >= 3 else SeesawConfig.restarts


def _load_functional(arg: str):
    """A functional argument is a file path if a file of that name exists, else
    a catalog name: a directory named like a catalog entry does not hide it."""
    path = Path(arg)
    # Input files are read as utf-8-sig, which drops the byte-order mark that
    # editors and spreadsheet "CSV UTF-8" exports write; without one it reads
    # as utf-8.
    if path.is_file():
        return bellfmt.parse_functional(path.read_text(encoding="utf-8-sig")), str(path)
    try:
        return catalog.by_name(arg), arg
    except ConfigError as exc:
        raise InvalidFunctionalError(f"{arg!r} is not an existing file; {exc}") from None


def _jobs_default() -> int:
    # The CPUs this process may run on: an affinity mask can allow fewer
    # than the machine has.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _format_value(v: float) -> str:
    # Fixed 12 decimals gives >= 12 significant digits for the O(1) values
    # this tool reports; JSON output carries full precision.
    return f"{v:.12f}"


def cmd_eval(args) -> int:
    functional, _ = _load_functional(args.functional)
    table = bellfmt.parse_table_csv(
        Path(args.table).read_text(encoding="utf-8-sig"), renormalize=args.renormalize
    )
    policy = AVERAGE if args.policy == "average" else PARTNER_SETTING_ZERO
    value = evaluate(functional, table, policy)
    if args.json:
        payload = {"value": value, "renormalized": table.was_renormalized}
        _emit_json(payload, args)
    else:
        print(_format_value(value))
    return 0


def cmd_local_bound(args) -> int:
    functional, name = _load_functional(args.functional)
    value, strategy = (localbound.local_bound_min if args.min else localbound.local_bound)(functional)
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
            args,
        )
    else:
        print(_format_value(value))
        print(f"strategy A={list(strategy.assignment_a)} B={list(strategy.assignment_b)}")
    return 0


#: The fixed-state flags of ``seesaw``: (flag, both parties' dimension, state).
_FIXED_STATES = (("--fixed-theta", 2, catalog.theta_state), ("--fixed-gamma", 3, catalog.gamma_state))


def _seesaw_config(args, d_a: int, d_b: int) -> SeesawConfig:
    if args.restarts is None:
        args.restarts = _default_restarts(d_a, d_b)
    return SeesawConfig(restarts=args.restarts, max_iterations=args.max_iterations, seed=args.seed)


def cmd_seesaw(args) -> int:
    given = [(flag, d, state, getattr(args, flag[2:].replace("-", "_"))) for flag, d, state in _FIXED_STATES]
    given = [g for g in given if g[3] is not None]
    if len(given) > 1:
        raise ConfigError("--fixed-theta and --fixed-gamma are mutually exclusive")
    fixed_state = None
    for flag, d, state, value in given:
        if (args.da, args.db) != (d, d):
            raise ConfigError(f"{flag} requires --da {d} --db {d}")
        fixed_state = state(value)
    cfg = _seesaw_config(args, args.da, args.db)
    functional, name = _load_functional(args.functional)
    result = seesaw(functional, args.da, args.db, cfg, jobs=args.jobs, fixed_state=fixed_state)
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
            args,
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
    args.steps = check_count(args.steps, "--steps", 1)
    dims = []
    for token in args.dims.split(","):
        token = token.strip()
        if token:
            try:
                d = check_count(int(token), "curve dimension", 2)
            except ValueError:
                raise ConfigError(f"curve dimension {token!r} is not an integer") from None
            if d in dims:
                raise ConfigError(f"curve dimension {d} is given twice")
            dims.append(d)
    if not dims:
        raise ConfigError("no dimensions given")
    args.dims = dims
    cfg = _seesaw_config(args, max(dims), max(dims))
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():
        out.open("w")  # raises, before the sweep, what writing the CSV after it would
    # An infinite end makes linspace warn; iphi_sweep rejects the grid.
    with np.errstate(invalid="ignore"):
        phis = np.linspace(args.phi_min, args.phi_max, args.steps)
    rows = catalog.iphi_sweep(phis, dims, cfg, jobs=args.jobs)
    header = ["phi", "local_bound"] + [f"value_d{d}" for d in dims]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{row[col]:.12g}" for col in header))
    text = "\n".join(lines) + "\n"
    out.write_text(text, encoding="utf-8")
    out.with_suffix(out.suffix + ".manifest.json").write_text(
        json.dumps(_manifest(args), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_witness(args) -> int:
    cfg = _seesaw_config(args, args.d, args.d)
    functional, name = _load_functional(args.functional)
    report = catalog.witness_report(
        functional, args.d, cfg, gap_threshold=args.threshold, functional_id=name, jobs=args.jobs
    )
    payload = dataclasses.asdict(report)
    payload["functional"] = payload.pop("functional_id")
    _emit_json(payload, args)
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
    raw = bellfmt.parse_correlation_matrix(Path(args.matrix).read_text(encoding="utf-8-sig"))
    cfg = SeesawConfig(restarts=args.restarts, max_iterations=args.max_iterations, seed=args.seed)
    norm, value, strategy = grothendieck.search(raw.matrix, args.n, cfg)
    if args.json:
        _emit_json(
            {
                "matrix": args.matrix,
                "m": raw.m,
                "local_norm": norm,
                "n": args.n,
                "value": value,
                "value_label": catalog.HEURISTIC_LABEL,
                "x_vectors": [[float(v) for v in row] for row in strategy.x_vectors],
                "y_vectors": [[float(v) for v in row] for row in strategy.y_vectors],
            },
            args,
        )
    else:
        print(f"local_norm: {_format_value(norm)}")
        print(f"value at N={args.n} ({catalog.HEURISTIC_LABEL}): {_format_value(value)}")
        for label, vectors in (("x", strategy.x_vectors), ("y", strategy.y_vectors)):
            for i, row in enumerate(vectors):
                print(f"{label}[{i}] = [" + ", ".join(f"{v:+.9f}" for v in row) + "]")
    return 0


class _Parser(argparse.ArgumentParser):
    """Takes ``-1e-3`` for a negative number as it does ``-1``: argparse's own
    pattern has no exponent form.  No dimwit option looks like a number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_restart_knobs(p: argparse.ArgumentParser, restarts: int | None, restarts_help: str | None) -> None:
    """The ``SeesawConfig`` options every restarted search takes."""
    p.add_argument("--restarts", type=int, default=restarts, help=restarts_help)
    p.add_argument("--seed", type=int, default=None, help="RNG seed (fallback: DIMWIT_SEED, then 0)")
    p.add_argument("--max-iterations", type=int, default=SeesawConfig.max_iterations)


def _add_seesaw_knobs(p: argparse.ArgumentParser, fixed_state: bool = False) -> None:
    _add_restart_knobs(p, None, "random restarts (default scales with dimension)")
    p.add_argument(
        "--jobs",
        type=int,
        default=_jobs_default(),
        help="worker processes (>= 1; default: the CPUs this process may run on), at most "
        f"one per {RESTART_BATCH} restarts; each runs a contiguous range of restarts in "
        "lockstep, and the pool starts only with two or more",
    )
    if fixed_state:
        p.add_argument("--fixed-theta", type=float, default=None, help="pin state cos(t)|00>+sin(t)|11> (2x2 only)")
        p.add_argument("--fixed-gamma", type=float, default=None, help="pin state (|00>+g|11>+|22>)/sqrt(2+g^2) (3x3 only)")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subparser, or only ``command``'s, with a metavar that keeps the usage
    naming all commands (on the whole tree it would rename the command in errors)."""
    parser = _Parser(prog="dimwit", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"dimwit {__version__}")
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def add(name, **kwargs):
        return sub.add_parser(name, **kwargs) if command in (None, name) else None

    if p := add("eval", help="evaluate a functional on a probability-table CSV"):
        p.add_argument("functional", help=".bell file or catalog name")
        p.add_argument("table", help="CSV with header x,y,a,b,p")
        p.add_argument("--policy", choices=["setting-zero", "average"], default="setting-zero")
        p.add_argument("--renormalize", action="store_true", help="repair <1e-7 normalization misses")
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=cmd_eval)

    if p := add("local-bound", help="exact classical bound by enumeration"):
        p.add_argument("functional")
        p.add_argument("--min", action="store_true", help="minimum instead of maximum")
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=cmd_local_bound)

    if p := add("seesaw", help="fixed-dimension lower bound by alternating optimization"):
        p.add_argument("functional")
        p.add_argument("--da", type=int, required=True)
        p.add_argument("--db", type=int, required=True)
        _add_seesaw_knobs(p, fixed_state=True)
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=cmd_seesaw)

    if p := add("curve", help="sweep the iphi family and write a CSV"):
        p.add_argument("--steps", type=int, default=64)
        p.add_argument("--dims", default="2,3")
        p.add_argument("--phi-min", type=float, default=0.0)
        p.add_argument("--phi-max", type=float, default=math.pi)
        p.add_argument("--out", required=True)
        _add_seesaw_knobs(p)
        p.set_defaults(fn=cmd_curve)

    if p := add("witness", help="dimension-witness gap report (JSON)"):
        p.add_argument("functional")
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--threshold", type=float, default=catalog.GAP_THRESHOLD)
        _add_seesaw_knobs(p)
        p.add_argument("--json", action="store_true", help="the output is JSON with or without it")
        p.set_defaults(fn=cmd_witness)

    if p := add("catalog", help="emit a bundled functional as .bell text"):
        p.add_argument("action", choices=["emit"])
        p.add_argument("name", help=" | ".join((*catalog.CATALOG_NAMES, "iphi:<phi>")))
        p.add_argument("--out", default=None)
        p.set_defaults(fn=cmd_catalog)

    if p := add("grothendieck", help="normalize a correlation matrix and search unit vectors"):
        p.add_argument("-m", "--matrix", required=True, help="CSV of m rows of m reals")
        p.add_argument("--n", type=int, required=True, help="vector dimension N")
        _add_restart_knobs(p, SeesawConfig.restarts, None)
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=cmd_grothendieck)
    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    args.argv, args.started = argv, started
    try:
        if "seed" in vars(args):
            args.seed = _resolve_seed(args.seed)
        return args.fn(args)
    except DimwitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:
        # Unreadable input: missing, a directory, not UTF-8, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message, when there is one, names the shape it could not allocate.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {args.command} does not fit in memory{detail}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
