"""The README's code runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)  # the sketch writes evals.csv to the working directory
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    np.testing.assert_array_equal(scope["same"].scores, scope["evals"].scores)
    assert sorted(set().union(*scope["groups"])) == list(range(20))
    assert len(scope["models"]) == len(scope["groups"]) and np.isfinite(scope["objective"])
    assert sorted(scope["predictors"]) == list(range(20))
