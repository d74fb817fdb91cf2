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

Only ``parser.py`` names the attributes in which a ``Deriver`` keeps its
memos: the sentence's one ``Deriver`` owns them, and other modules check
and derive through its methods.

Inside ``parser.parse`` one nested function, ``post``, builds every
derived chart item: the rule that keeps an item's ways distinct is stated
once.

No module writes a node's span after building it: every node gets its
span when it is built, by a ``Deriver``, ``parseval.read_bracketed`` or
``parseval.flatten``, and parses share the nodes a ``Deriver`` builds.

Every value type that a reader builds from file input checks itself in
``__post_init__``: the readers only read, so a value built directly is
checked as one read from a file is.

Only ``pipeline.analyze_sentence`` touches the ``gc`` module: it pauses the
cyclic collector for each sentence.  The pause is exact only while
everything it covers is acyclic, which the pipeline tests check for the
code it runs today; a pause elsewhere would cover code no such test checks.
"""

import ast
import re
from collections import Counter
from pathlib import Path

from ltagrank.grammar import ElementaryTree, FrequencyTable, Grammar, TreeNode, loads
from ltagrank.heuristics import Heuristic, HeuristicRegistry, Predicate, RankedParse
from ltagrank.parser import (OP_SUBSTITUTION, Attachment, DerivationNode, DerivedNode,
                             DerivedTree, Deriver, _Item)
from ltagrank.tagging import TaggedWord
from ltagrank.training import TrainConfig

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
               derived, DerivedTree(node, derived),
               RankedParse(node, (0.0,), 0.0, None)]
    assert [type(obj).__name__ for obj in objects if hasattr(obj, "__dict__")] == []


def test_one_post_builds_the_derived_chart_items():
    """Inside ``parser.parse``, ``_Item`` is called only in one nested
    function, ``post``, and for the two items that all the anchor axioms
    and all the foot axioms share.  The check is an AST check on calls of
    the name ``_Item``: an item built another way, say through an alias,
    escapes it."""
    tree = ast.parse((PACKAGE / "parser.py").read_text())
    parse = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "parse")

    def item_calls(node):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name) and call.func.id == "_Item"]

    posts = [node for node in ast.walk(parse)
             if isinstance(node, ast.FunctionDef) and node.name == "post"]
    in_post = {id(call) for post in posts for call in item_calls(post)}
    others = sorted((call.lineno, call.col_offset, ast.unparse(call))
                    for call in item_calls(parse) if id(call) not in in_post)
    assert [text for _, _, text in others] == \
        ["_Item((('anchor',),))", "_Item((('foot',),))"], \
        "_Item called outside parse's post:\n" + \
        "\n".join(f"parser.py:{line} {text}" for line, _, text in others)
    assert len(posts) == 1 and in_post


def test_only_the_parser_names_the_derivers_memos():
    """Outside ``parser.py``, no package module names an attribute in which
    a ``Deriver`` keeps a memo, one of the dicts it holds after deriving a
    tree.  The check is an AST check on attribute names: a memo reached
    another way, say through ``getattr``, escapes it."""
    deriver = Deriver(loads("tree Noun_Phrase : initial (NP N@)\nlex dogs N -> Noun_Phrase\n"),
                      ["dogs"])
    deriver.derive(DerivationNode("Noun_Phrase", 0))
    memos = {name for name in dir(deriver)
             if not name.startswith("_") and isinstance(getattr(deriver, name), dict)}
    assert memos
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "parser.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in memos:
                stray.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not stray, "a Deriver's memos named outside parser.py:\n" + "\n".join(stray)


def test_no_module_assigns_spans():
    """No package module assigns a ``.start`` or ``.end`` attribute.  The
    check is an AST check on assignment targets: a span written another
    way, say through ``setattr``, escapes it."""
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            stray += [f"{path.name}:{target.lineno} .{target.attr}"
                      for root in targets for target in ast.walk(root)
                      if isinstance(target, ast.Attribute) and target.attr in ("start", "end")]
    assert not stray, "spans assigned after a node is built:\n" + "\n".join(stray)


def test_every_type_read_from_a_file_checks_itself():
    """Each type that a reader builds from file input defines
    ``__post_init__``, where it checks what it is given.  The check is by
    name: a ``__post_init__`` that checks nothing passes it."""
    types = [TreeNode, ElementaryTree, Grammar, FrequencyTable, Predicate, Heuristic,
             HeuristicRegistry, TaggedWord, TrainConfig]
    unchecked = [cls.__name__ for cls in types if "__post_init__" not in vars(cls)]
    assert not unchecked, "types without __post_init__: " + ", ".join(unchecked)
