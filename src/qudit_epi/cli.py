"""Command-line entry point: configure, run, emit JSON lines, set exit status.

Output layout: line 1 is the manifest, one line per trial follows, and the
last line is the summary. Trials reach :func:`dispatch` one block of columns
at a time (``harness.run_experiment`` yields ``harness.TrialBlock``s); each
block's lines are rendered into one string, appended to the spool (an
anonymous temporary file, ``tempfile.TemporaryFile``) and flushed, and the
block is dropped before the next one runs, while ``summarize`` folds it. So
a run holds one block's columns and lines, whatever --trials is. Nothing is
written until every trial has run, so a failing run writes only its error;
then :func:`emit` copies the spool, a chunk at a time, between the manifest
line and the summary line. The spool has no name: the system frees it when
the run ends, killed or not. Every line has the bytes that
:func:`render_line`, the stdlib JSON encoder, writes for its object. The
trial lines of a uniform, finite block (a qepi or concavity block, or a
lemma or theorem block that skips no outcome, with finite values) fill one
template that this encoder built, each column formatted at once by
``float.__repr__``; those of any other block, a conjecture block included,
are encoded one by one (:func:`render_block`). Floats take their shortest
round-trip repr (integral floats keep their ".0"), so files round-trip
exactly and repeated runs are byte-identical.

Exit codes: 0 all hard checks passed; 2 a hard violation or a re-verified
conjecture candidate (a finding, not a crash); 1 usage, configuration or I/O
error, a stdout closed by its reader and a --help that cannot be written
included (no traceback is printed).

:func:`main`, the launched entry point, calls ``gc.freeze()`` before
:func:`dispatch`. The objects that importing numpy and this package made live
until exit; frozen, they are walked by no collection during the run, and
--parallel workers inherit them frozen. :func:`dispatch`, which tests and
in-process callers use, freezes nothing.

When :func:`dispatch` returns, the run's output is complete: :func:`emit`
has flushed stdout or closed an --out file, and ``run_experiment`` has
joined its pool workers before the last block was handed over. A failed
write, to a full disk or to a pipe its reader closed, raises inside
:func:`dispatch`, the one place that catches errors. :func:`main` then
flushes stderr and ends the process with ``os._exit``, skipping interpreter
teardown, which would only free memory the kernel reclaims anyway: from the
end of main to the reap by the parent, a theorem-d2 launch took about 7 ms
with teardown and 2 ms without it (2-core VM, Python 3.11). Stdout is not
flushed again, so a closed pipe prints nothing more.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable
from contextlib import nullcontext
from functools import partial
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import QuditEpiError, UsageError
from .harness import (
    EXPERIMENTS,
    MAX_DIM,
    MAX_ENV_DIM,
    Summary,
    TrialBlock,
    TrialConfig,
    _usable_cpus,
    run_experiment,
    run_metadata,
    summarize,
    validate_config,
)

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


# --tau's word for a tau drawn per trial, TrialConfig's tau=None: the
# option's default, the word it parses to None and the manifest's tau of None.
_RANDOM_TAU = "random"


class RunManifest(NamedTuple):
    command: str
    config: TrialConfig
    timestamp: str = ""

    def to_object(self) -> dict:
        cfg = self.config
        meta = run_metadata(cfg)
        # A library caller's numpy scalar is written as the Python value it holds.
        config = {name: v.item() if isinstance(v, np.generic) else v for name, v in cfg._asdict().items()}
        return {
            "type": "manifest",
            "command": self.command,
            "config": {**config, "tau": config["tau"] if cfg.tau is not None else _RANDOM_TAU},
            "version": meta["version"],
            "rng": meta["rng"],
            "log_base": meta["log_base"],
            "timestamp": self.timestamp,
            "conventions": {
                "subsystem_order": "leftmost factor is the slowest-varying index",
                "measurement_family": meta["measurement_family"],
            },
        }


def _resolve_timestamp() -> str:
    """Deterministic by default so repeated runs emit identical bytes.

    Wall-clock time only enters when the caller asks for it through
    SOURCE_DATE_EPOCH, integer seconds as `date +%s` writes them: ASCII
    digits with an optional leading '-'. Any other value, or one that names
    no representable date, is a usage error.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if not epoch:
        return _EPOCH_TIMESTAMP
    malformed = UsageError(f"SOURCE_DATE_EPOCH must be integer seconds of a representable date, got {epoch!r}")
    digits = epoch.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise malformed
    try:
        return datetime.datetime.fromtimestamp(int(epoch), tz=datetime.timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError):
        raise malformed from None


def _check_out(out: str) -> None:
    """Reject an empty --out path, one whose directory does not exist, one
    that names a directory, and '-' when the launch had stdout closed
    (sys.stdout is then None). The directory is the path up to its last
    separator, unnormalized, as open() resolves it: `run.jsonl/` is rejected
    whether or not run.jsonl exists. The file itself is only opened, and an
    existing one truncated, once every trial has run."""
    if out == "-":
        if sys.stdout is None:
            raise UsageError("cannot write '-': stdout is closed")
        return
    directory = os.path.dirname(out) or os.curdir
    if not out or not os.path.isdir(directory) or os.path.isdir(out):
        raise UsageError(f"cannot write {out!r}: not a file in an existing directory")


# A trial line's template holds this string where a scalar goes. The encoder
# writes it as `"\u0000"`, and `:"\u0000"` occurs in a line only where a dict
# value is this string: an unescaped `"` opens or closes a string, and one
# that closes a string is followed by `:`, `,`, `}` or `]`, never by `\`.
_HOLE = "\0"
_HOLE_JSON = ":" + _ENCODER.encode(_HOLE)
_JSON_BOOL = {True: "true", False: "false"}


def _trial_object(block: TrialBlock, row: tuple, with_experiment: bool) -> dict:
    """The line object of `row`, (index, tau, *slacks, *residuals, pass,
    negligible) of `block`, without None values and a negligible count of 0."""
    index, tau, *values, passed, negligible = row
    line: dict = {"type": "trial"}
    if with_experiment:
        line["experiment"] = block.experiment
    line |= {
        "index": index,
        "tau": tau,
        "kappa": block.kappas,
        "slacks": {key: v for key, v in zip(block.slacks, values) if v is not None},
        "residuals": {key: v for key, v in zip(block.residuals, values[len(block.slacks) :]) if v is not None},
        "pass": passed,
    }
    if negligible:
        line["negligible_outcomes"] = negligible
    return line


def render_block(block: TrialBlock, with_experiment: bool) -> str:
    """The trial lines of `block`, joined into one string: row i's line is
    what :func:`render_line` writes for its :func:`_trial_object`.

    A uniform, finite block (every row holds every slack and residual and
    counts no negligible outcome, and each float column has a finite sum)
    fills one template that the encoder built from a row of holes, each
    column formatted at once by ``float.__repr__``. Any other block is
    written line by line by :func:`render_line`.
    """
    values = [*block.slacks.values(), *block.residuals.values()]
    # A column whose sum is not finite holds a NaN or an infinity, or overflows.
    uniform = (
        not any(block.negligible)
        and not any(None in column for column in values)
        and all(math.isfinite(sum(column)) for column in (block.taus, *values))
    )
    if not uniform:
        rows = zip(block.indices, block.taus, *values, block.passed, block.negligible)
        return "".join([render_line(_trial_object(block, row, with_experiment)) for row in rows])
    holes = (_HOLE,) * (len(values) + 3) + (0,)
    template = render_line(_trial_object(block, holes, with_experiment))
    template = template.replace("%", "%%").replace(_HOLE_JSON, ":%s")
    scalars = zip(
        map(int.__repr__, block.indices),
        *(map(float.__repr__, column) for column in (block.taus, *values)),
        map(_JSON_BOOL.__getitem__, block.passed),
    )
    return "".join(map(template.__mod__, scalars))


def emit(manifest: RunManifest, body: Iterable[str], summary: Summary, out: str) -> None:
    """Write the manifest line, the trial lines `body`, then the summary line,
    to the file `out` or, for '-', to stdout, and flush it.

    `body` yields the text of the rendered trial lines (see
    :func:`render_block`) in order, in chunks that need not end at a line
    break. Each chunk is written as it comes, so emit holds one at a time."""
    summary_line = render_line({"type": "summary", **summary._asdict()})
    parts = chain((render_line(manifest.to_object()),), body, (summary_line,))
    with nullcontext(sys.stdout) if out == "-" else open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(parts)
        fh.flush()


# Characters per read when emit copies the spool out.
_SPOOL_CHUNK = 1 << 16


# ------------------------------------------------------------------- arguments


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        raise UsageError(message)

    def print_help(self, file=None):
        # argparse's own write drops an OSError, and its SystemExit leaves
        # dispatch before stdout is flushed. Writing and flushing here makes
        # a --help that cannot be written an error of dispatch's rule.
        if file is None:
            if sys.stdout is None:
                raise UsageError("cannot write the help: stdout is closed")
            file = sys.stdout
        file.write(self.format_help())
        file.flush()


# Command: (help text, the experiments it runs).
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
    """One parser: the command is a positional choice, and every command
    takes the same options, before or after it, with TrialConfig's defaults
    (--tau's "random" is its None)."""
    cfg = TrialConfig()
    p = _Parser(
        prog="qudit-epi",
        description="Randomized checks of the partial-swap entropy power inequalities.",
        epilog="commands:\n" + "".join(f"  {name:<19}{desc}\n" for name, (desc, _) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("command", choices=_COMMANDS, metavar="command", help="one of the commands below")
    p.add_argument("--dim", type=int, default=cfg.d, help=f"qudit dimension d, 2..{MAX_DIM}")
    p.add_argument("--env-dim1", type=int, default=cfg.d_e1, help=f"first environment dimension, 1..{MAX_ENV_DIM}")
    p.add_argument("--env-dim2", type=int, default=cfg.d_e2, help=f"second environment dimension, 1..{MAX_ENV_DIM}")
    p.add_argument("--trials", type=int, default=cfg.trials, help="number of randomized trials")
    p.add_argument("--tau", default=_RANDOM_TAU, help=f"'{_RANDOM_TAU}' or a fixed value in [0, 1]")
    p.add_argument("--kappa", default=cfg.kappa, help="'grid' (0, k1/2, k1), 'max' (k1) or a number")
    p.add_argument(
        "--seed", type=int, default=cfg.seed, help="master seed in [0, 2^64) (fixed default, never time-derived)"
    )
    p.add_argument("--tol", type=float, default=cfg.tolerance, help="slack/residual tolerance")
    p.add_argument("--out", default="-", help="output JSONL path, '-' for stdout")
    p.add_argument(
        "--parallel",
        type=int,
        default=_usable_cpus(),
        help="worker processes, >= 1 (default: the CPUs this process may run on)",
    )
    p.add_argument("--state-kind", default=cfg.state_kind, help="ginibre | pure | rank-k:K")
    p.add_argument(
        "--exploratory-kappa",
        action="store_true",
        help="allow kappa beyond 1/(ln d)^2; those checks become diagnostics",
    )
    return p


def _parse_number(flag: str, raw: str, words: dict):
    """The value `words` gives the word `raw`, or else `raw` as a float."""
    if raw in words:
        return words[raw]
    try:
        return float(raw)
    except ValueError:
        raise UsageError(f"{flag} must be {', '.join(map(repr, words))} or a number, got {raw!r}") from None


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
        tau=_parse_number("--tau", args.tau, {_RANDOM_TAU: None}),
        kappa=_parse_number("--kappa", args.kappa, {"grid": "grid", "max": "max"}),
        state_kind=kind,
        rank=rank,
        trials=args.trials,
        seed=args.seed,
        tolerance=args.tol,
        exploratory_kappa=args.exploratory_kappa,
    )


def dispatch(argv=None) -> int:
    """Parse one command and its options, run it, write output, and return the exit code.

    The one place that catches a failure: a broken pipe returns 1 and prints
    nothing; a QuditEpiError or any other OSError (of the spool or of the
    output) prints one `error:` line to stderr, if the launch has one, and
    returns 1."""
    try:
        args = build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        _, experiments = _COMMANDS[args.command]
        for experiment in experiments:
            validate_config(cfg, experiment)
        timestamp = _resolve_timestamp()
        _check_out(args.out)

        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:

            def blocks():
                # Spool each block's lines as it arrives and hand the block
                # to the fold; it is dropped before the next one runs. The
                # flush leaves no buffered text for a forked pool worker to
                # inherit.
                for experiment in experiments:
                    for block in run_experiment(experiment, cfg, args.parallel):
                        spool.write(render_block(block, args.command == "all"))
                        spool.flush()
                        yield block
                        del block

            summary = summarize(blocks(), run_metadata(cfg))
            manifest = RunManifest(command=args.command, config=cfg, timestamp=timestamp)
            spool.seek(0)
            emit(manifest, iter(partial(spool.read, _SPOOL_CHUNK), ""), summary, args.out)
        return 2 if summary.violations else 0
    except BrokenPipeError:
        # The reader closed stdout: nothing more is printed.
        return 1
    except (QuditEpiError, OSError) as exc:
        if sys.stderr is not None:  # None if the launch had descriptor 2 closed
            print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # The import-time heap lives until exit: no collection needs to walk it,
    # and the launch ends without interpreter teardown (see the module
    # docstring).
    gc.freeze()
    code = dispatch()
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
