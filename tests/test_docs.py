"""The documentation's examples run and match the package."""

import contextlib
import io
import json
import re
from pathlib import Path

from fluctuation_bounds.scenarios import builtin_scenario_dict

ROOT = Path(__file__).resolve().parent.parent


def fenced_blocks(path: Path, language: str) -> list:
    """The bodies of the ```language blocks of a Markdown file, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", path.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run():
    blocks = fenced_blocks(ROOT / "README.md", "python")
    assert blocks
    for code in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(code, "README.md", "exec"), {})


def test_schema_example1_is_the_builtin():
    found = [json.loads(b) for b in fenced_blocks(ROOT / "docs" / "scenario_schema.md", "json")
             if '"name": "example1"' in b]
    assert found == [builtin_scenario_dict("example1")]
