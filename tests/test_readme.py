"""The README's library quickstart runs as written."""

import re
from pathlib import Path

from synth import grouped_csv_text

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart() -> str:
    """The python block under the README's "Library quickstart" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S)[1]


def test_library_quickstart_runs_on_synthetic_files(tmp_path, monkeypatch):
    (tmp_path / "train.csv").write_text(grouped_csv_text(300, (3, 2), seed=0), encoding="utf-8")
    (tmp_path / "new.csv").write_text(grouped_csv_text(5, (3, 2), seed=1), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(quickstart(), str(README), "exec"), names)
    assert names["label"] in ("normal", "anomaly")
    assert names["score"] == names["model"].score(names["row"])
    assert names["subspaces"].attr_sets()
