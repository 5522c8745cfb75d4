"""The README's library tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library tour\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md, Library tour", "exec"), {})
