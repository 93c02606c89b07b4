"""The sources and tests cite no private name that they do not define."""

import ast
import re
from pathlib import Path

import papsim

SOURCES = sorted(Path(papsim.__file__).parent.glob("*.py")) + sorted(
    Path(__file__).parent.glob("*.py"))

# a private name of at least two characters after its underscore, not
# inside a longer word: one-letter subscripts such as ||A||_F are notation
CITED = re.compile(r"(?<!\w)_[A-Za-z]\w+")


def _defined(source: str) -> set:
    """The names a module binds: functions, classes, assigned names and
    attributes, and imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_every_cited_private_name_is_defined():
    """Code, docstrings and comments of every papsim module and test cite
    only private names that some papsim module or test defines, so that
    prose does not outlive the code it names."""
    texts = {path.name: path.read_text() for path in SOURCES}
    defined = set().union(*map(_defined, texts.values()))
    stale = {(module, name) for module, text in texts.items()
             for name in CITED.findall(text) if name not in defined}
    assert not stale
