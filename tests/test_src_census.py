"""Census of what src defines and what the CLI accepts.

Two rules keep the library's surface from growing past its callers:

* **Every definition in src has a caller.**  A function, class or
  method stays in ``src/repro`` only if its name is used in src (not
  counting a package ``__init__``'s re-exports), in ``benchmarks/``,
  ``examples/`` or ``perfbench/``, or if ``repro.__all__`` exports it.
  Code that only the tests call belongs in ``tests/``, as the oracle
  modules there do.  The census matches by name: any ``Name``,
  ``Attribute`` or import of a name counts as a use of every function
  or class so named, and only an ``Attribute`` (``obj.name``) as a use
  of a method, so a local variable or parameter that shares a method's
  name does not keep it.  Matching by name finds a lower bound of the
  uncalled code, never a false one.  Dunder methods are skipped.
* **Every CLI option has a test.**  Each option string of
  ``build_parser()``, across all subcommands, must appear in a test
  module under ``tests/`` or in the CI workflow.

A definition that must stay without a caller goes into ``ALLOWED``
with its reason; an entry whose definition has a caller again, or is
gone, fails the census too.
"""

import argparse
import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Definitions kept without a caller: ``"module.Qual.name": reason``.
ALLOWED: Dict[str, str] = {}


def _python_files(directory: Path) -> List[Path]:
    return sorted(directory.rglob("*.py"))


def _definitions(tree: ast.AST, prefix: str, in_class: bool = False
                 ) -> Iterator[Tuple[str, str, bool]]:
    """``(qualified name, name, is a method)`` of every function, class
    and method."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qualified = f"{prefix}.{node.name}"
            is_class = isinstance(node, ast.ClassDef)
            yield qualified, node.name, in_class and not is_class
            yield from _definitions(node, qualified, is_class)
        else:
            yield from _definitions(node, prefix, in_class)


def _used_names(tree: ast.AST, package_init: bool
                ) -> Tuple[Set[str], Set[str]]:
    """The names a module uses as ``Name``s or imports, and the names
    it reads as attributes."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif (isinstance(node, (ast.Import, ast.ImportFrom))
              and not package_init):
            names.update(alias.name.rsplit(".", 1)[-1]
                         for alias in node.names)
    return names, attributes


def _exported() -> Set[str]:
    tree = ast.parse((SRC / "repro" / "__init__.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def uncalled_definitions() -> Set[str]:
    """Qualified names of the src definitions no caller names."""
    definitions = []
    names, attributes = _exported(), set()
    for directory in (SRC / "repro", ROOT / "benchmarks",
                      ROOT / "examples", ROOT / "perfbench"):
        for path in _python_files(directory):
            tree = ast.parse(path.read_text())
            if directory == SRC / "repro":
                module = ".".join(
                    path.relative_to(SRC).with_suffix("").parts)
                definitions.extend(_definitions(tree, module))
            used, read = _used_names(tree, path.name == "__init__.py")
            names |= used
            attributes |= read
    return {qualified for qualified, name, method in definitions
            if not (name.startswith("__") and name.endswith("__"))
            and name not in (attributes if method
                             else names | attributes)}


def cli_options() -> Set[str]:
    """Every option string of every (sub)command, help excluded."""
    options = set()
    parsers = [build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            else:
                options.update(action.option_strings)
    return options - {"-h", "--help"}


def test_every_src_definition_has_a_caller():
    assert all(reason.strip() for reason in ALLOWED.values())
    assert uncalled_definitions() == set(ALLOWED)


def test_every_cli_option_appears_in_a_test_or_ci():
    corpus = "\n".join(
        path.read_text() for path in _python_files(ROOT / "tests")
        if path.name != Path(__file__).name)
    corpus += (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    untested = {option for option in cli_options()
                if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])",
                                 corpus)}
    assert untested == set()
