"""Layout guards: no code in ``src/ltagrank`` that only tests call, and
one place that prints error lines.

Every function, method and class defined in the package (dunder names
skipped) must be named somewhere besides its own definition: in the
package's modules, in ``bench/*.py`` or in ``pyproject.toml``.  The package
``__init__.py`` is left out, since its re-exports are not uses.

The check is name-based: a name counts as used wherever it occurs as a
whole word, so a definition whose name is common (``parse``, ``names``)
passes trivially even if nothing calls it.

Bad input gets one ``error:`` line, printed by ``cli.main`` alone: commands
raise, and ``main`` reports.

No function nested in another names itself: a closure that calls itself
is a reference cycle, which only the cyclic collector frees.

The per-item and per-parse types (``parser._Item``, ``DerivationNode``,
``Attachment``, ``DerivedNode``, ``DerivedTree``, ``RankedParse``) have
slots and no instance ``__dict__``: a sentence makes thousands of each.

Only ``pipeline.analyze_sentence`` touches the ``gc`` module: it pauses the
cyclic collector for each sentence.  The pause is exact only while
everything it covers is acyclic, which the pipeline tests check for the
code it runs today; a pause elsewhere would cover code no such test checks.
"""

import ast
import re
from collections import Counter
from pathlib import Path

from ltagrank.heuristics import RankedParse
from ltagrank.parser import (OP_SUBSTITUTION, Attachment, DerivationNode, DerivedNode,
                             DerivedTree, _Item)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ltagrank"


def definitions():
    """(module file name, defined name) for every def and class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield path.name, node.name


def word_counts():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py")) + [ROOT / "pyproject.toml"]
    return Counter(word for path in files
                   for word in re.findall(r"\w+", path.read_text()))


def test_no_definition_is_used_only_by_tests():
    counts = word_counts()
    unused = sorted(f"{module}: {name}" for module, name in definitions()
                    if counts[name] <= 1)
    assert not unused, "defined but named nowhere else in src/, bench/ or " \
        "pyproject.toml:\n" + "\n".join(unused)


def test_error_lines_are_printed_only_by_cli_main():
    """Every string or f-string part in the package that contains 'error:'
    lies inside ``cli.main``.  The check is text-based: it finds the literal
    text, so an error line pieced together from separate parts escapes it."""
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        main = [(node.lineno, node.end_lineno) for node in tree.body
                if path.name == "cli.py" and isinstance(node, ast.FunctionDef)
                and node.name == "main"]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "error:" in node.value
                    and not any(lo <= node.lineno <= hi for lo, hi in main)):
                stray.append(f"{path.name}:{node.lineno}")
    assert not stray, "'error:' outside cli.main:\n" + "\n".join(stray)


def test_no_nested_function_names_itself():
    """No function defined inside another function in the package has its
    own name in its body.  The check is an AST name check: it looks for a
    ``Name`` node with the function's name, so a nested function that
    reaches itself another way, say through an attribute, escapes it."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if (inner is not outer
                        and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and any(isinstance(node, ast.Name) and node.id == inner.name
                                for node in ast.walk(inner))):
                    found.add(f"{path.name}:{inner.lineno} {inner.name}")
    assert not found, "nested functions that name themselves:\n" + "\n".join(sorted(found))


def test_only_analyze_sentence_touches_the_collector():
    """No module but ``pipeline.py`` imports ``gc``, and every name ``gc``
    in ``pipeline.py`` lies inside ``analyze_sentence``.  The check is an
    AST check: a module reached another way, say through ``importlib``,
    escapes it."""
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = [(node.lineno, node.end_lineno) for node in tree.body
                   if path.name == "pipeline.py" and isinstance(node, ast.FunctionDef)
                   and node.name == "analyze_sentence"]
        for node in ast.walk(tree):
            imported = (isinstance(node, ast.Import)
                        and any(alias.name == "gc" for alias in node.names)
                        or isinstance(node, ast.ImportFrom) and node.module == "gc")
            named = (isinstance(node, ast.Name) and node.id == "gc"
                     and not any(lo <= node.lineno <= hi for lo, hi in allowed))
            if named or (imported and path.name != "pipeline.py"):
                stray.append(f"{path.name}:{node.lineno}")
    assert not stray, "gc used outside pipeline.analyze_sentence:\n" + "\n".join(stray)


def test_per_item_and_per_parse_objects_have_no_dict():
    node = DerivationNode("Noun_Phrase", 0)
    derived = DerivedNode("NP", ["dogs"], 0, 1)
    objects = [_Item((("anchor",),)), node, Attachment(node, OP_SUBSTITUTION, (1,)),
               derived, DerivedTree(node, derived, ["dogs"]),
               RankedParse(node, (0.0,), 0.0, None)]
    assert [type(obj).__name__ for obj in objects if hasattr(obj, "__dict__")] == []
