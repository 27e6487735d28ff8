"""``tools/survey.py``: the output comparison of two source trees."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("survey", ROOT / "tools" / "survey.py")
survey = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(survey)

# A run with trial lines, and a usage error (exit 1), whose stderr is compared too.
LAUNCHES = ("verify-qepi --dim 2 --trials 20 --seed 1 --parallel 1 --out -", "verify-qepi --dim 9 --out -")


def _copy_src(tmp_path: Path, name: str) -> Path:
    tree = tmp_path / name
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def test_survey_tells_an_identical_tree_from_a_flipped_qepi_slack(tmp_path):
    base, same, flipped = (_copy_src(tmp_path, name) for name in ("base", "same", "flipped"))
    harness = flipped / "src" / "qudit_epi" / "harness.py"
    line = "dict(zip(keys, values.T.tolist()))"
    assert harness.read_text().count(line) == 1
    harness.write_text(harness.read_text().replace(line, "dict(zip(keys, (-values).T.tolist()))"))

    verdicts = survey.compare(base, same, LAUNCHES)
    assert [v["exit"] for v in verdicts] == [[0, 0], [1, 1]]
    assert not any(map(survey.differs, verdicts))

    run, usage = survey.compare(base, flipped, LAUNCHES)
    assert survey.differs(run) and not run["stdout_equal"]
    assert run["exit"] == [0, 2]  # the negated slacks are violations
    assert not survey.differs(usage)
