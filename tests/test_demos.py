"""Each script under ``demos/`` and each Python example of the README runs
to completion against the current API."""

import contextlib
import io
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_script_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # closure_order_study.py writes orders.csv here
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_examples_print_their_equations():
    """The README's ``python`` blocks run in order in one namespace, and each
    equation they print is the one the comment below the print states."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        flags=re.S | re.M)
    assert len(blocks) == 3
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
    stated = [line[2:] for block in blocks for line in block.splitlines()
              if line.startswith("# ∂t U = ")]
    printed = [line for line in out.getvalue().splitlines() if line.startswith("∂t U = ")]
    assert len(stated) == 2
    assert printed == stated
