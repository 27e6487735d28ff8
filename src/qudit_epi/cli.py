"""Command-line entry point: configure, run, emit JSON lines, set exit status.

Output layout: line 1 is the manifest, one line per trial follows, and the
last line is the summary. Trials reach :func:`dispatch` one block of columns
at a time (``harness.run_experiment`` yields ``harness.TrialBlock``s); each
block's lines are rendered into one string and the block is dropped before
the next one runs, while ``summarize`` folds it. So a run holds its rendered
output plus one block's columns. Nothing is written until every trial has
run, so a failing run writes only its error. The manifest and summary lines
go through :func:`render_line`, the stdlib JSON encoder. A trial line is a
template that this encoder built once per row shape, filled with the row's
scalars, each column formatted at once by json's rules
(:func:`render_block`), so it has the bytes ``render_line`` would write for
the row's line object. Floats are serialized in their shortest round-trip repr
(integral floats keep their ".0"), so files round-trip exactly and repeated
runs are byte-identical.

Exit codes: 0 all hard checks passed; 2 a hard violation or a re-verified
conjecture candidate (a finding, not a crash); 1 usage, configuration or I/O
error, a stdout closed by its reader included (no traceback is printed).

:func:`main`, the launched entry point, calls ``gc.freeze()`` before
:func:`dispatch`. The objects that importing numpy and this package made live
until exit; frozen, they are walked neither by the collections during the run
nor by those at interpreter shutdown, which otherwise cost a short launch
about a tenth of its time, and --parallel workers inherit them frozen.
:func:`dispatch`, which tests and in-process callers use, freezes nothing.
Exiting through ``os._exit`` would skip the same collections but also the
join of pool workers and the final flush of stdout, and measured no faster.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import asdict, dataclass

from ._version import __version__
from .errors import QuditEpiError, UsageError
from .harness import (
    EXPERIMENTS,
    MAX_DIM,
    MAX_ENV_DIM,
    Summary,
    TrialBlock,
    TrialConfig,
    run_experiment,
    run_metadata,
    summarize,
    validate_config,
)
from .rand import RNG_ALGORITHM

_EPOCH_TIMESTAMP = "1970-01-01T00:00:00+00:00"

__all__ = ["RunManifest", "dispatch", "emit", "main", "render_line", "render_block"]


# ---------------------------------------------------------------- serialization


# json.dumps(obj, separators=(",", ":")) builds this encoder per call. The
# objects rendered here are fresh acyclic trees, so the cycle check is off;
# it changes no byte.
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def render_line(obj: dict) -> str:
    """One compact JSON line, deterministic byte-for-byte."""
    return _ENCODER.encode(obj) + "\n"


# -------------------------------------------------------------------- manifest


@dataclass(frozen=True)
class RunManifest:
    command: str
    config: TrialConfig
    timestamp: str = ""

    def to_object(self) -> dict:
        cfg = self.config
        return {
            "type": "manifest",
            "command": self.command,
            "config": {**asdict(cfg), "tau": cfg.tau if cfg.tau is not None else "random"},
            "version": __version__,
            "rng": RNG_ALGORITHM,
            "log_base": "natural",
            "timestamp": self.timestamp,
            "conventions": {
                "subsystem_order": "leftmost factor is the slowest-varying index",
                "measurement_family": "haar-projective-rank1",
                "conjecture_channel": "swap unitary on (X1, X2) tensor identity on E, then trace X2",
            },
        }


def _resolve_timestamp() -> str:
    """Deterministic by default so repeated runs emit identical bytes.

    Wall-clock time only enters when the caller asks for it through
    SOURCE_DATE_EPOCH (integer seconds); a value that is not one, or that
    names no representable date, is a usage error.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch:
        try:
            dt = datetime.datetime.fromtimestamp(int(epoch), tz=datetime.timezone.utc)
        except (ValueError, OverflowError, OSError):
            raise UsageError(
                f"SOURCE_DATE_EPOCH must be integer seconds of a representable date, got {epoch!r}"
            ) from None
        return dt.isoformat()
    return _EPOCH_TIMESTAMP


def _check_out(out: str) -> None:
    """Reject an empty --out path or one whose directory does not exist. The
    file itself is only opened, and an existing one truncated, once every
    trial has run."""
    if out == "-":
        return
    directory = os.path.dirname(os.path.abspath(out))
    if not out or not os.path.isdir(directory) or os.path.isdir(out):
        raise UsageError(f"cannot write {out!r}: not a file in an existing directory")


def summary_to_object(summary: Summary) -> dict:
    return {"type": "summary", **asdict(summary)}


# A trial line's template holds this string where a scalar goes. The encoder
# writes it as `"\u0000"`, and `:"\u0000"` occurs in a line only where a dict
# value is this string: an unescaped `"` opens or closes a string, and one
# that closes a string is followed by `:`, `,`, `}` or `]`, never by `\`.
_HOLE = "\0"
_HOLE_JSON = ":" + _ENCODER.encode(_HOLE)
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_BOOL = {True: "true", False: "false"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


def _json_floats(column: list) -> Iterable:
    """The floats of `column` as the encoder writes them; None stays None."""
    if None in column:
        return [None if value is None else _json_float(value) for value in column]
    if math.isfinite(sum(column)):  # else a NaN or an infinity, or an overflow
        return map(float.__repr__, column)
    return map(_json_float, column)


def _line_template(block: TrialBlock, absent: tuple, with_experiment: bool) -> str:
    """The trial line of a row of `block` as a %-format: the encoder's line
    for the row with a `%s` for each scalar it holds. `absent` flags the
    scalars of :func:`render_block`'s order that the row lacks."""
    slack_keys = len(block.slacks)
    line: dict = {"type": "trial"}
    if with_experiment:
        line["experiment"] = block.experiment
    line |= {
        "index": _HOLE,
        "tau": _HOLE,
        "kappa": block.kappas,
        "slacks": {key: _HOLE for key, gone in zip(block.slacks, absent[2:]) if not gone},
        "residuals": {key: _HOLE for key, gone in zip(block.residuals, absent[2 + slack_keys :]) if not gone},
        "pass": _HOLE,
    }
    if not absent[-1]:
        line["negligible_outcomes"] = _HOLE
    return render_line(line).replace("%", "%%").replace(_HOLE_JSON, ":%s")


def render_block(block: TrialBlock, with_experiment: bool) -> str:
    """The trial lines of `block`, joined into one string.

    Row i's line is what :func:`render_line` writes for the object with the
    keys type ("trial"), experiment (only `with_experiment`), index, tau,
    kappa (the block's kappas), slacks and residuals (the keys the row holds
    a value for), pass (all of the row's flags) and negligible_outcomes (only
    a nonzero count). Each column is formatted at once. Rows of one shape
    (the keys they hold, negligible outcomes or none) share one template that
    the encoder built, and each line fills in its row's scalars: index, tau,
    slacks, residuals, pass, negligible.
    """
    negligible = [int.__repr__(count) if count else None for count in block.negligible]
    values = [*block.slacks.values(), *block.residuals.values()]
    scalars = [
        map(int.__repr__, block.indices),
        _json_floats(block.taus),
        *map(_json_floats, values),
        map(_JSON_BOOL.__getitem__, block.passed),
        negligible,
    ]
    uncounted = negligible.count(None)
    if not any(None in column for column in values) and uncounted in (0, len(negligible)):
        # Every row has the same shape.
        counted = not uncounted
        template = _line_template(block, (False,) * (len(scalars) - 1) + (not counted,), with_experiment)
        return "".join(map(template.__mod__, zip(*(scalars if counted else scalars[:-1]))))
    templates: dict = {}
    lines = []
    for row in zip(*scalars):
        shape = tuple([value is None for value in row])
        template = templates.get(shape)
        if template is None:
            template = templates[shape] = _line_template(block, shape, with_experiment)
        # tuple() of a list has the exact size. Of a generator it is cut down
        # from 10 items, and such tuples pile up in their size's free list.
        lines.append(template % tuple([value for value in row if value is not None]))
    return "".join(lines)


def emit(manifest: RunManifest, body: Iterable[str], summary: Summary, out: str) -> None:
    """Write the manifest line, the rendered trial lines `body` (strings of
    whole lines, see :func:`render_block`), then the summary line."""
    parts = [render_line(manifest.to_object()), *body, render_line(summary_to_object(summary))]
    if out == "-":
        sys.stdout.writelines(parts)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise QuditEpiError(f"cannot write {out!r}: {exc}") from exc


# ------------------------------------------------------------------- arguments


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one, so a taskset or cpuset limit is not oversubscribed)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, default=2, help=f"qudit dimension d, 2..{MAX_DIM}")
    p.add_argument("--env-dim1", type=int, default=2, help=f"first environment dimension, 1..{MAX_ENV_DIM}")
    p.add_argument("--env-dim2", type=int, default=2, help=f"second environment dimension, 1..{MAX_ENV_DIM}")
    p.add_argument("--trials", type=int, default=1000, help="number of randomized trials")
    p.add_argument("--tau", default="random", help="'random' or a fixed value in [0, 1]")
    p.add_argument("--kappa", default="grid", help="'grid' (0, k1/2, k1), 'max' (k1) or a number")
    p.add_argument("--seed", type=int, default=42, help="master seed in [0, 2^64) (fixed default, never time-derived)")
    p.add_argument("--tol", type=float, default=1e-9, help="slack/residual tolerance")
    p.add_argument("--out", default="-", help="output JSONL path, '-' for stdout")
    p.add_argument(
        "--parallel",
        type=int,
        default=_usable_cpus(),
        help="worker processes, >= 1 (default: the CPUs this process may run on)",
    )
    p.add_argument("--state-kind", default="ginibre", help="ginibre | pure | rank-k:K")
    p.add_argument(
        "--exploratory-kappa",
        action="store_true",
        help="allow kappa beyond 1/(ln d)^2; those checks become diagnostics",
    )


# Subcommand: (help text, the experiments it runs).
_COMMANDS = {
    "verify-lemma": ("conditional identity and majorization checks", ("lemma",)),
    "verify-theorem": (
        "conditional entropy power inequality at the worst measurement pair a search finds",
        ("theorem",),
    ),
    "verify-qepi": ("unconditional entropy power inequality and majorization", ("qepi",)),
    "concavity-scan": ("midpoint concavity of the entropy power on the simplex", ("concavity",)),
    "search-conjecture": ("counterexample search for the conditional-entropy version", ("conjecture",)),
    "all": ("run every experiment with a shared configuration", EXPERIMENTS),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="qudit-epi", description="Randomized checks of the partial-swap entropy power inequalities.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (desc, _) in _COMMANDS.items():
        _add_common(sub.add_parser(name, help=desc))
    return parser


def _parse_tau(raw) -> float | None:
    if raw == "random":
        return None
    try:
        return float(raw)
    except ValueError:
        raise UsageError(f"--tau must be 'random' or a number, got {raw!r}") from None


def _parse_kappa(raw):
    if raw in ("grid", "max"):
        return raw
    try:
        return float(raw)
    except ValueError:
        raise UsageError(f"--kappa must be 'grid', 'max' or a number, got {raw!r}") from None


def _parse_state_kind(raw: str) -> tuple[str, int | None]:
    if raw.startswith("rank-k:"):
        try:
            return "rank-k", int(raw.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"--state-kind rank-k:K needs integer K, got {raw!r}") from None
    return raw, None


def _config_from_args(args) -> TrialConfig:
    kind, rank = _parse_state_kind(args.state_kind)
    return TrialConfig(
        d=args.dim,
        d_e1=args.env_dim1,
        d_e2=args.env_dim2,
        tau=_parse_tau(args.tau),
        kappa=_parse_kappa(args.kappa),
        state_kind=kind,
        rank=rank,
        trials=args.trials,
        seed=args.seed,
        tolerance=args.tol,
        exploratory_kappa=args.exploratory_kappa,
    )


def dispatch(argv=None) -> int:
    """Parse one subcommand, run it, write output, and return the exit code."""
    try:
        args = build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        _, experiments = _COMMANDS[args.command]
        for experiment in experiments:
            validate_config(cfg, experiment)
        timestamp = _resolve_timestamp()
        _check_out(args.out)

        body: list[str] = []

        def blocks():
            # Render each block as it arrives and hand it to the fold; the
            # block is dropped before the next one runs.
            for experiment in experiments:
                for block in run_experiment(experiment, cfg, args.parallel):
                    body.append(render_block(block, args.command == "all"))
                    yield block
                    del block

        summary = summarize(blocks(), run_metadata(cfg))
        manifest = RunManifest(command=args.command, config=cfg, timestamp=timestamp)
        emit(manifest, body, summary, args.out)
        return 2 if summary.violations else 0
    except QuditEpiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # The import-time heap lives until exit: no collection needs to walk it
    # (see the module docstring).
    gc.freeze()
    try:
        code = dispatch()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull so the flush at exit
        # cannot raise again, and exit with the I/O error code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
