"""README's examples run as printed: a renamed function, a changed
signature or a moved threshold fails here instead of in a reader's first
session."""

import re
import shlex
from pathlib import Path

import numpy as np

from ibddlab.cli import main
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


def test_de_threshold_examples_print_readme_values(capsys):
    """Each ``ibddlab de-threshold`` line of that section's sh block prints
    the ``# … dB`` comment under it."""
    section = README.read_text().split("\n### `de-threshold`", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.S | re.M).group(1)
    examples = re.findall(r"^(ibddlab de-threshold .*)\n# (.*)$", block, re.M)
    assert len(examples) == 2
    for command, printed in examples:
        assert main(shlex.split(command)[1:]) == 0
        assert capsys.readouterr().out == f"{printed}\n"
