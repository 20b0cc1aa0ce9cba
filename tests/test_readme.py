"""README's examples run as printed, and the docs name only code that
exists: a renamed function, a changed signature or a moved threshold fails
here instead of in a reader's first session."""

import ast
import importlib
import io
import re
import shlex
import tokenize
from pathlib import Path

import numpy as np

from ibddlab.cli import main
from ibddlab.de import threshold_search

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCES = sorted((README.parent / "src" / "ibddlab").glob("*.py"))
# a backticked ``module.name`` or ``module.name.attr``, optionally ``ibddlab.``-prefixed
DOTTED = re.compile(r"`(?:ibddlab\.)?(bch|channel|cli|de|product|sim|staircase)\.(\w+(?:\.\w+)?)`")


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


def _doc_texts():
    """README, then every docstring and comment of the package's modules."""
    yield README.read_text()
    for path in SOURCES:
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                yield ast.get_docstring(node) or ""
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                yield tok.string


def _resolves(module, attrs) -> bool:
    obj = importlib.import_module(f"ibddlab.{module}")
    for attr in attrs.split("."):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_docs_name_only_code_that_exists():
    """Every backticked dotted name in README and in the package's
    docstrings and comments resolves by ``getattr``: a deleted or renamed
    function cannot linger in the prose that explains it."""
    names = {m.groups() for text in _doc_texts() for m in DOTTED.finditer(text)}
    assert len(names) >= 10  # the pattern still finds the names it checks
    assert sorted(".".join(n) for n in names if not _resolves(*n)) == []
