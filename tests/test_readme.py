"""README's library example runs as printed: a renamed function or a changed
signature fails here instead of in a reader's first session."""

import re
from pathlib import Path

import numpy as np

from ibddlab.de import threshold_search

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    """The first ```python block under README's "## Library use" heading."""
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)


def test_library_example_runs(capsys):
    namespace = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)
    printed = capsys.readouterr().out
    want = threshold_search("gldpc", namespace["prof"], namespace["rate"])
    assert printed == f"{want}\n"
    decoded = namespace["decoded"]
    assert decoded.shape == (255, 255)
    assert np.isin(decoded, (0, 1)).all()
