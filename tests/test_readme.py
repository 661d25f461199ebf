"""README's Python examples run, and they document every kept name.

Each fenced ```python block of README.md runs as it stands, in a fresh
namespace, so an example that stops matching the package fails here.  A
definition that no run reaches stays in the package only as documented
API (test_lint.KEPT_UNREACHED), so each such name must be called in one
of these blocks.
"""
import re
from pathlib import Path

import pytest

from test_lint import KEPT_UNREACHED

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    flags=re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})


@pytest.mark.parametrize("name", sorted(KEPT_UNREACHED))
def test_kept_name_has_an_example(name):
    assert any(re.search(rf"\b{name}\(", block) for block in BLOCKS)
