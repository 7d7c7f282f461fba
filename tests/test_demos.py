"""Every walkthrough in demos/ runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_present():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def library_snippet() -> str:
    """The code block of the README's "Library use" section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_snippet_runs(tmp_path, monkeypatch):
    (tmp_path / "people.csv").write_text(
        "name,address\n"
        "john smith,12 victoria street\n"
        "smith john,12 victoria street\n"
        "john smith,12 victoria street\n"
        "mary jones,4 george road\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(library_snippet(), "README.md", "exec"), scope)
    assert scope["entity"].tolist() == [0, 0, 0, 3]


def test_star_import_resolves_every_public_name():
    import siglink

    scope: dict = {}
    exec("from siglink import *", scope)  # raises if a name in __all__ is missing
    assert set(siglink.__all__) <= set(scope)
