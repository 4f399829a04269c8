"""No module under ``src/repro`` imports a name at module level that it
never reads.  Neither ``pyflakes`` nor ``ruff`` is a dependency, so this
is the check, on the ``ast``: an imported name counts as read when the
module loads it anywhere (string annotations included), or lists it in
``__all__`` (a re-export)."""

import ast
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _annotation_trees(tree):
    """The expressions quoted in annotations, parsed."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            every += [a for a in (arguments.vararg, arguments.kwarg) if a]
            annotations = [node.returns, *(a.annotation for a in every)]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for quoted in ast.walk(annotation):
                if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                    yield ast.parse(quoted.value, mode="eval")


def unused_imports(source):
    """``(line, name)`` for each module-level import ``source`` never reads
    (``if TYPE_CHECKING:`` blocks included)."""
    tree = ast.parse(source)
    imported = {}
    for statement in tree.body:
        for node in statement.body if isinstance(statement, ast.If) else [statement]:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for root in (tree, *_annotation_trees(tree))
        for node in ast.walk(root)
        if isinstance(node, ast.Name)
    }
    for node in tree.body:
        names = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if isinstance(node, ast.Assign) and "__all__" in names:
            read.update(element.value for element in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_src_has_no_unused_import():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_the_scan_finds_an_unused_import_and_spares_the_read_ones():
    source = textwrap.dedent(
        """
        from __future__ import annotations
        import os.path
        from typing import TYPE_CHECKING, Dict, List, Optional
        from .mod import exported, unused

        if TYPE_CHECKING:
            from .other import Quoted, Forgotten

        __all__ = ["exported"]


        def f(x: "Quoted") -> Optional[int]:
            return os.path.join(x) if TYPE_CHECKING else None


        table: Dict[str, int] = {}
        """
    )
    assert unused_imports(source) == [(4, "List"), (5, "unused"), (8, "Forgotten")]
