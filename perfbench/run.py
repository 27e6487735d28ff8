"""Trial-throughput benchmark for the qudit-epi CLI.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--out PATH]

Run from the repository root; the package is imported from ./src, nothing has
to be installed or built.

--trace 0 launches the CLI (`python -m qudit_epi.cli`) as a child process
again and again for `--seconds`. Each step is one launch at the workload's
fixed trial count, one launch of the fixed reference program reference.py,
and one launch of the CLI at `--trials 1`. It reports end-to-end metrics:

    trials_per_s      trial records / wall time of the CLI process, launch to exit
    trials_per_cpu_s  trial records / user+sys CPU of the CLI and its reaped pool workers
    setup_s           wall time of the same command at --trials 1
    peak_rss_mb       peak resident memory of the largest process in the CLI tree

The three times are scaled to the machine speed at which the reference takes
REFERENCE_S seconds: each CLI time is multiplied by REFERENCE_S over the
time of the reference launch of the same step (see `speed_scaled`). On a
shared host the speed of a core changes by tens of percent from one second to
the next and from one minute to the next, and the CLI and the reference slow
down together; the unscaled medians are in the details line. Each metric is
the median over the steps of one run. CPU time and peak memory come from
os.wait4 on each child, whose rusage covers the pool workers it reaped.

--trace 1 runs the same command in this process, alternating untraced runs
with runs under the span tracer in tracer.py, and reports per-layer metrics
(medians over the traced runs) plus `trace.overhead`, the traced wall time
over the untraced one, minus 1.

Every CLI run gets a correctness verdict (see `verdict`); `failed` counts the
runs that fail it, `attempted` all runs. The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it holds the details: the environment the CLI ran in,
the provenance of the measurement (nproc, Python, numpy, BLAS, the kernel
backend named in the CLI's manifest, git revision and dirty flag), the output
digest, failed_share (failed / attempted) and this process's own peak memory,
which must stay below peak_rss_mb (see `judge`). `--out` writes both lines
to a JSON file as well. With `--workload all` every workload runs in turn
and the metric names carry the workload name as a prefix.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
# Wall time of reference.py at the machine speed that end-to-end times are
# scaled to; about its median on a 2-core Xeon VM at 2.0 GHz.
REFERENCE_S = 0.4

# BLAS threads are pinned so that --parallel is the only source of
# parallelism; the QUDIT_EPI_* overrides are dropped because THREADS overrides
# --parallel and BACKEND changes the code under test, and the two timestamp
# variables would make outputs differ between runs.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DROPPED_ENV = ("QUDIT_EPI_THREADS", "QUDIT_EPI_BACKEND", "QUDIT_EPI_TIMESTAMP", "SOURCE_DATE_EPOCH")

DEFAULT_SEED = 42
MIN_REPEATS = 3
# A CLI run that takes longer than this is killed and counted as failed, so
# that one run of the benchmark stays within a few minutes.
LAUNCH_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments, without --trials and --seed
    trials: int  # --trials of a timed run
    experiments: int  # trial records written per requested trial
    exit_codes: frozenset[int]  # exit codes of a correct run


# Trial counts make one timed CLI run last about two seconds on a 2-core
# Xeon VM, so that trials rather than interpreter start-up dominate
# trials_per_s.
#
# BENCHMARK.json gates qepi-d3 and theorem-d2 only. On a 2-core machine shared
# with other jobs, run-to-run spread falls with run length, and the time
# budget of a full benchmark pass allows runs of about a minute for two
# workloads; between them every layer is entered. lemma-d3e33 and all-d2-par2
# run by name or with --workload all.
WORKLOADS = {
    w.name: w
    for w in (
        # Fixed per-trial overhead on 3x3 matrices: rand, states, kernels,
        # harness and cli; measurement, the optimizer and the global channel
        # are not used.
        Workload("qepi-d3", ("verify-qepi", "--dim", "3", "--parallel", "1"), 4000, 1, frozenset({0})),
        # The 81x81 global channel, the 9-outcome conditioning grid and 27
        # validations per trial; no optimizer, little output.
        Workload(
            "lemma-d3e33",
            ("verify-lemma", "--dim", "3", "--env-dim1", "3", "--env-dim2", "3", "--parallel", "1"),
            400,
            1,
            frozenset({0}),
        ),
        # The min-form basis hill climb in entropy and its eigensolves.
        Workload(
            "theorem-d2", ("verify-theorem", "--dim", "2", "--kappa", "grid", "--parallel", "1"), 50, 1, frozenset({0})
        ),
        # The only workload through harness's process pool; also covers
        # concavity and conjecture, whose re-verified candidates exit 2.
        Workload(
            "all-d2-par2",
            ("all", "--dim", "2", "--env-dim1", "2", "--env-dim2", "2", "--parallel", "2"),
            50,
            5,
            frozenset({0, 2}),
        ),
    )
}


def hermetic_env(base) -> dict[str, str]:
    """`base` with BLAS pinned to one thread, the overrides dropped and ./src importable."""
    env = {k: v for k, v in base.items() if k not in DROPPED_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def env_settings(env) -> dict:
    return {k: env.get(k) for k in (*PINNED_ENV, *DROPPED_ENV, "PYTHONPATH")}


def cli_argv(w: Workload, trials: int, seed: int) -> list[str]:
    return [*w.argv, "--trials", str(trials), "--seed", str(seed), "--out", "-"]


@dataclass
class Run:
    """One CLI run: its output, exit code and resource use."""

    output: bytes  # only the manifest line once `judge` has seen the run
    returncode: int
    wall_s: float
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    stderr: bytes = b""
    records: int = 0
    output_bytes: int = 0
    failure: str | None = None  # why the run is not correct; None when it is


def launch(argv: list[str], env: dict[str, str]) -> Run:
    """Run the CLI as a child process and reap it with os.wait4."""
    return spawn(["-m", "qudit_epi.cli", *argv], env)


def spawn(args: list[str], env: dict[str, str]) -> Run:
    """Run the Python interpreter on `args` as a child process and reap it with os.wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    watchdog = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        output = proc.stdout.read()
        # The CLI and the reference write to stderr only when they fail, so
        # reading it after stdout reached end of file cannot block on a full
        # pipe.
        stderr = proc.stderr.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        output=output,
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stderr=stderr,
    )


def verdict(run: Run, w: Workload, trials: int) -> str | None:
    """Why `run` is not a correct run of `w` at `trials`, or None if it is.

    Sets `run.records` from the summary line. Byte identity across runs is
    checked separately, by `Digests`.
    """
    if run.returncode not in w.exit_codes:
        err = run.stderr.decode(errors="replace").strip()
        return f"exit code {run.returncode}: {err[-200:]}"
    lines = run.output.splitlines()
    try:
        manifest, summary = json.loads(lines[0]), json.loads(lines[-1])
        # One record at a time, so that parsing adds little to this
        # process's peak memory (see `judge`).
        trial_count, bad, first_bad = 0, 0, None
        for line in lines[1:-1]:
            record = json.loads(line)
            trial_count += record.get("type") == "trial"
            # Re-verified conjecture candidates are an expected finding; any
            # other violating record is a failed check.
            if not record.get("pass") and record.get("experiment") != "conjecture":
                bad += 1
                first_bad = record.get("index") if first_bad is None else first_bad
    except (IndexError, ValueError) as exc:
        return f"output is not JSON lines: {exc!r}"
    if manifest.get("type") != "manifest" or summary.get("type") != "summary":
        return "output lacks the manifest or the summary line"
    run.records = summary.get("trials", 0)
    if run.records != trials * w.experiments:
        return f"summary reports {run.records} trials, expected {trials * w.experiments}"
    if trial_count != run.records:
        return "record count differs from the summary"
    if bad:
        return f"{bad} violating records, first at index {first_bad}"
    return None


class Digests:
    """SHA-256 of every output, grouped by CLI arguments; all in a group must agree."""

    def __init__(self):
        self.by_argv: dict[tuple, str] = {}

    def check(self, argv, output: bytes) -> str | None:
        digest = hashlib.sha256(output).hexdigest()
        expected = self.by_argv.setdefault(tuple(argv), digest)
        if digest != expected:
            return f"output digest {digest[:12]} differs from the first run's {expected[:12]}"
        return None


def judge(run: Run, w: Workload, argv, trials: int, digests: Digests) -> Run:
    """Give `run` its verdict, then drop its output but for the manifest line.

    Outputs are not kept because a child started later inherits this
    process's peak resident memory as the floor of its own: the kernel
    carries the high-water mark of the address space a child was started from
    into the child at exec.
    """
    run.failure = verdict(run, w, trials) or digests.check(argv, run.output)
    run.output_bytes = len(run.output)
    run.output = run.output.split(b"\n", 1)[0]
    return run


def reference_failure(run: Run, digests: Digests) -> str | None:
    """Why a launch of reference.py is not a correct one, or None if it is."""
    if run.returncode != 0:
        err = run.stderr.decode(errors="replace").strip()
        return f"reference exit code {run.returncode}: {err[-200:]}"
    return digests.check(("reference",), run.output)


def speed_scaled(runs: list[Run], references: list[Run], attr: str) -> list[float]:
    """`attr` of each run, scaled to the machine speed at which the reference
    takes REFERENCE_S seconds, by the reference launched next to it."""
    return [getattr(r, attr) * REFERENCE_S / getattr(ref, attr) for r, ref in zip(runs, references)]


def repeat_for(seconds: float, step) -> None:
    """Call `step` at least MIN_REPEATS times, and again while the next call
    is expected to end within `seconds` of the first."""
    start = time.perf_counter()
    done = 0
    while True:
        step()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= MIN_REPEATS and elapsed * (done + 1) / done > seconds:
            return


def measure_cli(w: Workload, seed: int, seconds: float) -> tuple[dict, list[Run], dict]:
    """Untraced run: end-to-end metrics, every CLI run, and details."""
    env = hermetic_env(os.environ)
    digests = Digests()
    main_argv = cli_argv(w, w.trials, seed)
    setup_argv = cli_argv(w, 1, seed)
    # Untimed warm-up: compiles bytecode on the first run in a checkout and
    # brings the interpreter and numpy into the page cache.
    warmup = judge(launch(setup_argv, env), w, setup_argv, 1, digests)
    reference_argv = [str(REFERENCE)]
    warmup_reference = spawn(reference_argv, env)
    warmup_reference.failure = reference_failure(warmup_reference, digests)
    mains: list[Run] = []
    references: list[Run] = []
    setups: list[Run] = []

    def step():
        mains.append(judge(launch(main_argv, env), w, main_argv, w.trials, digests))
        reference = spawn(reference_argv, env)
        reference.failure = reference_failure(reference, digests)
        references.append(reference)
        setups.append(judge(launch(setup_argv, env), w, setup_argv, 1, digests))

    repeat_for(seconds, step)
    records = w.trials * w.experiments
    steps = [(m, ref) for m, ref in zip(mains, references) if m.failure is None and ref.failure is None]
    good, good_refs = map(list, zip(*steps)) if steps else (mains, references)
    metrics = {
        "trials_per_s": (records / statistics.median(speed_scaled(good, good_refs, "wall_s")), "1/s"),
        "trials_per_cpu_s": (records / statistics.median(speed_scaled(good, good_refs, "cpu_s")), "1/s"),
        "setup_s": (statistics.median(speed_scaled(setups, references, "wall_s")), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in good), "MB"),
    }
    details = {
        "env": env_settings(env),
        "launches": len(mains),
        "setup_launches": len(setups),
        "reference_s": REFERENCE_S,
        "unscaled": {
            "trials_per_s": records / statistics.median(r.wall_s for r in good),
            "trials_per_cpu_s": records / statistics.median(r.cpu_s for r in good),
            "setup_s": statistics.median(r.wall_s for r in setups),
            "reference_wall_s": statistics.median(r.wall_s for r in references),
        },
        "output_sha256": digests.by_argv[tuple(main_argv)],
        "benchmark_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "manifest_line": warmup.output,
    }
    return metrics, [warmup, warmup_reference, *mains, *references, *setups], details


def dispatch_in_process(argv: list[str], tracer=None) -> Run:
    """Run the CLI's `dispatch` in this process, under `tracer` if one is given."""
    import contextlib
    import io

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from qudit_epi import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
        t0 = time.perf_counter()
        code = cli.dispatch(argv)
        wall = time.perf_counter() - t0
    return Run(buffer.getvalue().encode(), code, wall)


def measure_traced(w: Workload, seed: int, seconds: float) -> tuple[dict, list[Run], dict]:
    """Traced run in this process: per-layer metrics, every CLI run, and details."""
    from tracer import Tracer

    digests = Digests()
    argv = cli_argv(w, w.trials, seed)
    warmup_argv = cli_argv(w, 1, seed)
    # Untimed warm-up: imports the package and fills numpy's lazy caches.
    warmup = judge(dispatch_in_process(warmup_argv), w, warmup_argv, 1, digests)
    untraced: list[Run] = []
    traced: list[tuple[Run, Tracer]] = []

    def step():
        untraced.append(judge(dispatch_in_process(argv), w, argv, w.trials, digests))
        tracer = Tracer()
        traced.append((judge(dispatch_in_process(argv, tracer), w, argv, w.trials, digests), tracer))

    repeat_for(seconds, step)
    per_run = [t.layer_metrics(r.wall_s, r.records or 1, r.output_bytes) for r, t in traced]
    metrics = {name: (statistics.median(m[name] for m in per_run), unit_of(name)) for name in per_run[0]}
    traced_wall = statistics.median(r.wall_s for r, _ in traced)
    metrics["trace.overhead"] = (traced_wall / statistics.median(r.wall_s for r in untraced) - 1.0, "ratio")
    details = {
        "env": env_settings(os.environ),
        "untraced_runs": len(untraced),
        "traced_runs": len(traced),
        "output_sha256": digests.by_argv[tuple(argv)],
        "manifest_line": warmup.output,
    }
    return metrics, [warmup, *untraced, *(r for r, _ in traced)], details


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("share"):
        return "fraction"
    if metric == "cli.bytes_per_trial":
        return "B/trial"
    return "1/trial"


def _command_output(cmd) -> str | None:
    try:
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


# Run in a child so that this process never imports numpy (see `judge`).
_TOOLCHAIN_SCRIPT = """
import json, sys, numpy
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas": {"name": blas.get("name"), "version": blas.get("version")}}))
"""


def provenance(manifest_line: bytes) -> dict:
    """Machine, toolchain and source revision behind a result."""
    toolchain = _command_output([sys.executable, "-c", _TOOLCHAIN_SCRIPT])
    try:
        manifest = json.loads(manifest_line)
    except ValueError:
        manifest = {}
    toplevel = _command_output(["git", "rev-parse", "--show-toplevel"])
    in_repo = toplevel is not None and Path(toplevel.strip()).resolve() == ROOT
    revision = _command_output(["git", "rev-parse", "HEAD"]) if in_repo else None
    status = _command_output(["git", "status", "--porcelain"]) if in_repo else None
    return {
        "nproc": os.cpu_count(),
        **(json.loads(toolchain) if toolchain else {"python": None, "numpy": None, "blas": None}),
        "kernels_backend": manifest.get("kernels_backend"),
        "git_revision": revision.strip() if revision else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    measure = measure_traced if trace else measure_cli
    metrics, runs, details = measure(w, seed, seconds)
    failures = [r.failure for r in runs if r.failure is not None]
    attempted = len(runs)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "cli_argv": cli_argv(w, w.trials, seed),
        "failed_share": len(failures) / attempted,
        "failures": failures[:5],
        "provenance": provenance(details.pop("manifest_line")),
        **details,
    }
    return result, details


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="passed to the CLI as --seed")
    parser.add_argument("--seconds", type=float, default=58.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the details and the result to this JSON file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qudit_epi" / "cli.py").is_file():
        print(f"error: no qudit_epi package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # Pinned here too, before the traced run imports numpy.
    env = hermetic_env(os.environ)
    os.environ.clear()
    os.environ.update(env)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results, all_details = {}, []
    for name in names:
        result, details = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        results[name] = result
        all_details.append(details)
        for metric, m in result["metrics"].items():
            print(f"{name:12} {metric:36} {m['value']:12.6g} {m['unit']}", file=sys.stderr)
        print(f"{name:12} {'failed/attempted':36} {result['failed']:>5}/{result['attempted']}", file=sys.stderr)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"details": all_details, "result": final}, fh, indent=1)
    print(json.dumps({"details": all_details}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
