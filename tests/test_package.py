"""What a fresh interpreter loads: a layer loads only the layers below it, and
the CLI loads every layer but nothing that slows start-up."""

from __future__ import annotations

import argparse
import ast
import builtins
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
PACKAGE = Path(SRC) / "extremal2"


def run_fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports from ``src``."""
    path_var = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path_var if path_var else SRC)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def loaded_modules(statement: str) -> set[str]:
    """Names in ``sys.modules`` after ``statement`` runs in a fresh interpreter."""
    return set(run_fresh(f"{statement}\nimport sys; print(' '.join(sys.modules))").split())


# each layer with the layers below it, the only ones importing it may load
LAYERS_BELOW = {
    "exactq": set(),
    "genus": set(),
    "reedmuller": set(),
    "chimat": {"exactq", "genus"},
    "bounds": {"exactq", "genus", "chimat"},
    "charser": {"exactq", "genus", "chimat"},
    "classify": {"exactq", "genus", "chimat", "bounds", "charser"},
    "cli": {"exactq", "genus", "chimat", "bounds", "charser", "classify", "reedmuller"},
}


def package_modules(statement: str) -> set[str]:
    """The extremal2 modules, the package root aside, loaded after ``statement``."""
    return {m for m in loaded_modules(statement) if m.startswith("extremal2.")}


@pytest.mark.parametrize("layer", sorted(LAYERS_BELOW))
def test_importing_a_layer_loads_only_the_layers_below(layer):
    assert package_modules(f"import extremal2.{layer}") == {
        f"extremal2.{name}" for name in LAYERS_BELOW[layer] | {layer}}


def test_branching_diagnostic_loads_no_classify():
    loaded = package_modules(
        "from extremal2.charser import branching_diagnostic\nbranching_diagnostic()")
    assert "extremal2.classify" not in loaded


def test_cli_import_loads_no_dataclasses_or_inspect():
    # measured against a bare interpreter, so whatever ``site`` preloads is not counted
    extra = loaded_modules("import extremal2.cli") - loaded_modules("pass")
    assert "dataclasses" not in extra and "inspect" not in extra


def test_cli_import_loads_every_traced_layer():
    """``perfbench/traced_cli.py`` reads these six layers from ``sys.modules``
    right after ``import extremal2.cli`` to wrap their functions, so importing
    a layer only inside the subcommand that needs it would break ``--trace 1``."""
    layers = {"exactq", "chimat", "bounds", "classify", "charser", "reedmuller"}
    assert {f"extremal2.{name}" for name in layers} <= loaded_modules("import extremal2.cli")


def test_cli_import_builds_no_reedmuller_table():
    """Every CLI request imports reedmuller, so a table built at import would
    land in the start-up of requests that never use it."""
    out = run_fresh(
        "import json, extremal2.cli, extremal2.reedmuller as rm\n"
        "print(json.dumps({name: f.cache_info().currsize for name, f in vars(rm).items()"
        " if hasattr(f, 'cache_info')}))")
    sizes = json.loads(out)
    assert {"rm_codes", "_coset_lanes"} <= set(sizes)
    assert set(sizes.values()) == {0}


def test_rm_verify_enumerates_each_code_span_once():
    """``rm verify`` reads every span through ``LinearCode.words``, which is
    cached, so a request enumerates RM(1,4), RM(2,4) and RM(1,6) (dimensions
    5, 11, 7) once each."""
    out = run_fresh(
        "from extremal2 import cli, reedmuller\n"
        "dims = []\n"
        "enumerate_span = reedmuller.LinearCode.words.func\n"
        "def counted(code):\n"
        "    dims.append(code.dim)\n"
        "    return enumerate_span(code)\n"
        "reedmuller.LinearCode.words.func = counted\n"
        "cli.rm_data()\n"
        "print(sorted(dims))")
    assert out == "[5, 7, 11]\n"


@pytest.mark.parametrize(
    "layer", ["exactq", "chimat", "bounds", "classify", "charser", "reedmuller", "genus"])
def test_every_exported_name_exists(layer):
    """``perfbench/traced_cli.py`` reads each name in a layer's ``__all__``
    with ``getattr``, so a stale entry would crash every traced run."""
    module = importlib.import_module(f"extremal2.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def float_uses(tree: ast.AST) -> list[str]:
    """Float and complex literals, the names float, complex and cmath, and math.sqrt."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(repr(node.value))
        elif isinstance(node, ast.Name) and node.id in ("float", "complex", "cmath"):
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr == "sqrt" and (
                isinstance(node.value, ast.Name) and node.value.id == "math"):
            found.append("math.sqrt")
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name == "cmath"]
        elif isinstance(node, ast.ImportFrom) and node.module in ("cmath", "math"):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if node.module == "cmath" or alias.name == "sqrt"]
    return found


def test_no_module_uses_floats():
    """The README promises that no float appears anywhere in the package."""
    with_floats = {path.name: uses for path in sorted(PACKAGE.glob("*.py"))
                   if (uses := float_uses(ast.parse(path.read_text(), str(path))))}
    assert with_floats == {}


def unread_private_names(tree: ast.Module) -> list[str]:
    """Top-level private names (``_x``, not dunders) of a module that no other
    top-level statement of it reads."""
    unread = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        read = {n.id for other in tree.body if other is not node for n in ast.walk(other)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [name for name in names
                   if name.startswith("_") and not name.startswith("__") and name not in read]
    return unread


def test_every_private_helper_has_a_caller_in_its_module():
    """A private helper that only tests call is dead code in the package."""
    unread = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
              if (names := unread_private_names(ast.parse(path.read_text(), str(path))))}
    assert unread == {}


def exported_names(tree: ast.Module) -> list[str]:
    """The strings of a module's ``__all__``."""
    return [elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts]


def names_loaded_in_src() -> set[str]:
    """Names and attributes the package reads, each outside the top-level
    function or class that defines a name of that spelling."""
    loaded = set()
    for path in PACKAGE.glob("*.py"):
        for top in ast.parse(path.read_text(), str(path)).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            loaded |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(top)
                       if isinstance(n, (ast.Name, ast.Attribute))
                       and isinstance(n.ctx, ast.Load)} - {own}
    return loaded


def test_every_exported_name_has_a_reader_outside_tests():
    """An exported name that only tests read is dead code in the package: each
    one is loaded somewhere in ``src/``, or named in a demo or harness script."""
    root = PACKAGE.parents[1]
    scripts = "\n".join(path.read_text() for folder in ("demos", "perfbench")
                        for path in sorted((root / folder).glob("*.py")))
    read = names_loaded_in_src() | set(re.findall(r"\w+", scripts))
    unread = {path.stem: names for path in sorted(PACKAGE.glob("*.py"))
              if (names := [name for name in exported_names(ast.parse(path.read_text(), str(path)))
                            if name not in read])}
    assert unread == {}


def known_names() -> set[str]:
    """Names the README may put in backticks: attributes of the package's
    modules and of their classes, builtins, standard-library modules, the
    package itself, its CLI subcommands, the keys of its fixture documents
    and the attributes of pytest, which runs its tests."""
    modules = [importlib.import_module("extremal2")] + [
        importlib.import_module(f"extremal2.{path.stem}")
        for path in PACKAGE.glob("*.py") if not path.stem.startswith("_")]
    names = {"extremal2", *dir(builtins), *sys.stdlib_module_names, *dir(pytest)}
    for module in modules:
        names.update(dir(module))
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                names.update(dir(value))
    parser = importlib.import_module("extremal2.cli").build_parser()
    names.update(*(action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)))
    for path in (PACKAGE / "fixtures").glob("*.json"):  # the hook sees every object
        json.loads(path.read_text(), object_hook=lambda obj: names.update(obj) or obj)
    return names


def test_readme_names_only_existing_names():
    """Every backticked bare name or call in README.md (``name`` or
    ``name(...)``), one-letter math symbols aside, still exists, so a deleted
    function cannot linger in the prose."""
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    spans = re.findall(r"`([^`\n]+)`", readme)
    bare = {m.group(1) for span in spans
            if (m := re.fullmatch(r"([A-Za-z_]\w*)(\(.*\))?", span)) and len(m.group(1)) > 1}
    assert sorted(bare - known_names()) == []
