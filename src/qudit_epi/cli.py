"""Command-line entry point: configure, run, emit JSON lines, set exit status.

Output layout: line 1 is the manifest, one line per trial follows, and the
last line is the summary. Trials reach :func:`dispatch` one block at a time
(``harness._run_blocks``); each block's lines are rendered into one string
and its records are dropped before the next block runs, while ``summarize``
folds them. So a run holds its rendered output plus one block of records.
Nothing is written until every trial has run, so a failing run writes only
its error. Floats are serialized in their shortest round-trip
repr (integral floats keep their ".0"), so files round-trip exactly and
repeated runs are byte-identical.

Exit codes: 0 all hard checks passed; 2 a hard violation or a re-verified
conjecture candidate (a finding, not a crash); 1 usage, configuration or I/O
error.
"""

from __future__ import annotations

import argparse
import datetime
import json
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
    TrialConfig,
    TrialRecord,
    _run_blocks,
    run_metadata,
    summarize,
    validate_config,
)
from .rand import RNG_ALGORITHM

_EPOCH_TIMESTAMP = "1970-01-01T00:00:00+00:00"

__all__ = ["RunManifest", "dispatch", "emit", "main", "render_line", "render_records", "parse_lines"]


# ---------------------------------------------------------------- serialization


# json.dumps(obj, separators=(",", ":")) builds this encoder per call. The
# objects rendered here are fresh acyclic trees, so the cycle check is off;
# it changes no byte.
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def render_line(obj: dict) -> str:
    """One compact JSON line, deterministic byte-for-byte."""
    return _ENCODER.encode(obj) + "\n"


def parse_lines(text: str) -> list[dict]:
    """Parse an emitted file back into objects (accepts NaN/Infinity tokens)."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


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
    """Reject an --out path whose directory does not exist. The file itself
    is only opened, and an existing one truncated, once every trial has run."""
    if out == "-":
        return
    directory = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(directory) or os.path.isdir(out):
        raise UsageError(f"cannot write {out!r}: not a file in an existing directory")


def record_to_object(record: TrialRecord, with_experiment: bool) -> dict:
    obj: dict = {"type": "trial"}
    if with_experiment:
        obj["experiment"] = record.experiment
    obj.update(
        {
            "index": record.index,
            "tau": record.tau,
            "kappa": record.kappas,
            "slacks": record.slacks,
            "residuals": record.residuals,
            "pass": record.passed,
        }
    )
    if record.negligible:
        obj["negligible_outcomes"] = record.negligible
    return obj


def summary_to_object(summary: Summary) -> dict:
    return {"type": "summary", **asdict(summary)}


def render_records(records: Iterable[TrialRecord], with_experiment: bool) -> str:
    """The trial lines of `records`, joined into one string."""
    return "".join(render_line(record_to_object(r, with_experiment)) for r in records)


def emit(manifest: RunManifest, body: Iterable[str], summary: Summary, out: str) -> None:
    """Write the manifest line, the rendered trial lines `body` (strings of
    whole lines, see :func:`render_records`), then the summary line."""
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
        default=os.cpu_count() or 1,
        help="worker processes, >= 1",
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
    parser = _Parser(prog="qudit-epi", description=__doc__)
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

        def records():
            # Render each block as it arrives and hand its records to the
            # fold; the block is dropped before the next one runs.
            for experiment in experiments:
                for block in _run_blocks(experiment, cfg, args.parallel):
                    body.append(render_records(block, args.command == "all"))
                    yield from block
                    del block

        summary = summarize(records(), run_metadata(cfg))
        manifest = RunManifest(command=args.command, config=cfg, timestamp=timestamp)
        emit(manifest, body, summary, args.out)
        return 2 if summary.violations else 0
    except QuditEpiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
