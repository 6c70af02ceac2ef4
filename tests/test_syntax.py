"""Every source file parses in the grammar of the oldest Python that
`pyproject.toml` declares. `ast.parse` with `feature_version` rejects the
syntax that came later, such as `except*` (3.11) and type parameter lists
(3.12); it does not see library names that came later."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)


def test_the_oldest_version_is_the_declared_one():
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                         (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert declared and tuple(map(int, declared.groups())) == OLDEST


def test_every_source_file_parses_in_the_oldest_grammar():
    paths = sorted(path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path.relative_to(ROOT)), feature_version=OLDEST)


def test_later_grammar_is_rejected():
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
