"""Every third-party module the suites import is declared in setup.py.

CI installs ``.[test]`` and nothing else, so an undeclared import is a
suite that cannot run there.  The check reads the sources with ``ast``
(nothing is imported or installed) and the declarations from setup.py.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SUITES = ("tests", "benchmarks", "repobench")


def _declared():
    """Import names of ``install_requires`` (the package) and of
    ``install_requires`` + ``extras_require["test"]`` (the suites)."""
    call = next(
        node
        for node in ast.walk(ast.parse((ROOT / "setup.py").read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup"
    )
    keywords = {
        kw.arg: ast.literal_eval(kw.value)
        for kw in call.keywords
        if kw.arg in ("install_requires", "extras_require")
    }

    def modules(dists):
        return {d.split("[")[0].strip().lower().replace("-", "_") for d in dists}

    package = modules(keywords.get("install_requires", ()))
    test = modules(keywords.get("extras_require", {}).get("test", ()))
    return package, package | test


def _imports(directory):
    for path in sorted((ROOT / directory).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield path, alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield path, node.module.split(".")[0]


def _local_modules():
    """The repository's own top-level names: the package, the suite
    directories and every module or package inside them."""
    local = {"repro", *SUITES}
    for directory in SUITES:
        for path in (ROOT / directory).iterdir():
            if path.suffix == ".py" or (path / "__init__.py").exists():
                local.add(path.stem)
    return local


def _undeclared(directories, declared):
    local = _local_modules()
    return sorted(
        f"{path.relative_to(ROOT)}: {name}"
        for directory in directories
        for path, name in _imports(directory)
        if name not in sys.stdlib_module_names
        and name not in local
        and name not in declared
    )


def test_the_suites_import_only_declared_third_party_modules():
    _, declared = _declared()
    assert _undeclared(SUITES, declared) == []


def test_the_package_imports_no_third_party_module():
    package, _ = _declared()
    assert _undeclared(["src"], package) == []


@pytest.mark.parametrize("module", ["pytest", "pytest_benchmark", "hypothesis"])
def test_the_test_extra_names_what_ci_needs(module):
    _, declared = _declared()
    assert module in declared
