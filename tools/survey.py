"""Compare the CLI's output in two source trees, launch by launch.

    python tools/survey.py --base REV

checks REV out in a detached ``git worktree`` under a temporary directory,
runs every launch of :data:`LAUNCHES` there and in this checkout, and prints
one JSON line per launch: its argv, the exit code and stdout sha256 in each
tree (base first), and whether stdout and stderr are equal. It removes the
worktree, and exits 1 if any launch differs, else 0.

Each launch is ``python -m qudit_epi.cli ARGV`` in the tree's root, with
PYTHONPATH=<tree>/src, BLAS pinned to one thread and SOURCE_DATE_EPOCH unset,
so the manifest carries the fixed timestamp. Telling slack-only changes from
key changes is left to the reader of the lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The launches of record: the two benchmark commands, `all` serial and in the
# pool, and one run of each experiment at a non-default shape or state kind.
LAUNCHES = (
    "verify-qepi --dim 3 --parallel 1 --trials 4000 --seed 42 --out -",
    "verify-theorem --dim 2 --kappa grid --parallel 1 --trials 50 --seed 42 --out -",
    "all --dim 2 --trials 50 --seed 42 --parallel 1 --out -",
    "all --dim 2 --trials 50 --seed 42 --parallel 2 --out -",
    "search-conjecture --dim 2 --trials 400 --seed 3 --parallel 1 --out -",
    "verify-lemma --dim 3 --env-dim1 3 --env-dim2 3 --trials 100 --seed 5 --parallel 1 --out -",
    "verify-theorem --dim 2 --env-dim1 4 --env-dim2 4 --kappa grid --trials 40 --seed 9 --parallel 1 --out -",
    "verify-qepi --dim 5 --state-kind pure --trials 700 --seed 11 --parallel 1 --out -",
    "search-conjecture --dim 3 --env-dim1 2 --trials 200 --seed 4 --parallel 1 --out -",
    "verify-theorem --dim 3 --env-dim1 3 --env-dim2 2 --trials 30 --seed 8 --parallel 1 --out -",
    "concavity-scan --dim 6 --kappa 0.8 --exploratory-kappa --trials 3000 --seed 2 --parallel 1 --out -",
)


def launch(tree: Path, argv: list[str]) -> tuple[int, bytes, bytes]:
    """(exit code, stdout, stderr) of the CLI of `tree` on `argv`."""
    env = {key: value for key, value in os.environ.items() if key != "SOURCE_DATE_EPOCH"}
    env.update(PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "qudit_epi.cli", *argv], cwd=tree, env=env, capture_output=True)
    return done.returncode, done.stdout, done.stderr


def compare(base: Path, head: Path, launches=LAUNCHES) -> list[dict]:
    """One verdict per launch string of `launches`, run in `base` and `head`."""
    verdicts = []
    for line in launches:
        argv = shlex.split(line)
        (code0, out0, err0), (code1, out1, err1) = launch(base, argv), launch(head, argv)
        verdicts.append(
            {
                "argv": argv,
                "exit": [code0, code1],
                "stdout_sha256": [hashlib.sha256(out).hexdigest() for out in (out0, out1)],
                "stdout_equal": out0 == out1,
                "stderr_equal": err0 == err1,
            }
        )
    return verdicts


def differs(verdict: dict) -> bool:
    exit0, exit1 = verdict["exit"]
    return exit0 != exit1 or not (verdict["stdout_equal"] and verdict["stderr_equal"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare this checkout against")
    args = parser.parse_args(argv)
    git = ["git", "-C", str(ROOT), "worktree"]
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        subprocess.run([*git, "add", "--detach", "--quiet", str(base), args.base], check=True)
        try:
            verdicts = compare(base, ROOT)
        finally:
            subprocess.run([*git, "remove", "--force", str(base)], check=True)
    for verdict in verdicts:
        print(json.dumps(verdict))
    return int(any(map(differs, verdicts)))


if __name__ == "__main__":
    sys.exit(main())
