"""Every ``def`` and ``class`` under ``src/`` is named somewhere else.

A definition counts as live when its name appears outside its own
definition: as a name, an attribute, an imported name or an identifier
string (``getattr(obj, "name")``, ``"module.attr"``) in any Python file
of ``src/``, ``tests/``, ``examples/``, ``tools/``, ``perfbench/`` or
``setup.py``, or as a word in ``README.md`` or ``docs/``.  A package
``__init__`` re-export (its imports, ``__all__`` and name strings) does
not count, so a name kept alive only by its export is still dead.

The rule skips three kinds of definition and nothing else:

* dunder names, which Python itself calls;
* definitions decorated with something ``src/`` defines (the measurement
  and builder registries hand them out by key, not by name);
* methods that a base class calls: it defines the same attribute, or its
  module builds the name for ``getattr`` (``"do_" + command`` reaches
  ``do_GET``);

and any name that starts with a prefix ``src/`` builds into a
``getattr(..., f"<prefix>{...}")`` call (the ``emit_*`` element handlers).
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import pathlib
import re

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
THIS_FILE = pathlib.Path(__file__).resolve()

_IDENT_STRING = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*")
_WORD = re.compile(r"[A-Za-z_]\w*")


def _python_references(tree: ast.AST, *, package_init: bool) -> set[str]:
    """Identifiers a module names, less a package ``__init__``'s exports."""
    exported: set[int] = set()
    if package_init:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                exported.update(id(n) for n in ast.walk(node))
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                exported.update(id(n) for n in ast.walk(node))
    names: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and not package_init and _IDENT_STRING.fullmatch(node.value)):
            names.update(re.split(r"[.:]", node.value))
    return names


def _module_name(path: pathlib.Path, src: pathlib.Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _built_prefix(expr, assigned: dict[str, str]) -> str | None:
    """The constant head of ``f"do_{x}"`` or ``"do_" + x`` (or of a name
    bound to one)."""
    if (isinstance(expr, ast.JoinedStr) and expr.values
            and isinstance(expr.values[0], ast.Constant)):
        return expr.values[0].value
    if (isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add)
            and isinstance(expr.left, ast.Constant)
            and isinstance(expr.left.value, str)):
        return expr.left.value
    if isinstance(expr, ast.Name):
        return assigned.get(expr.id)
    return None


def getattr_prefixes(tree: ast.AST) -> set[str]:
    """Prefixes of the attribute names a module builds for ``getattr`` or
    ``hasattr`` (``getattr(self, f"emit_{letter}")``)."""
    assigned = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            prefix = _built_prefix(node.value, {})
            if prefix:
                assigned[node.targets[0].id] = prefix
    return {prefix for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr") and len(node.args) >= 2
            for prefix in [_built_prefix(node.args[1], assigned)] if prefix}


@functools.lru_cache(maxsize=None)
def _module_prefixes(module_name: str) -> frozenset[str]:
    try:
        source = inspect.getsource(importlib.import_module(module_name))
    except (OSError, TypeError):
        return frozenset()
    return frozenset(getattr_prefixes(ast.parse(source)))


def _base_class_calls(module_name: str, qualname: list[str], name: str) -> bool:
    """Whether a base class defines ``name`` or dispatches to it by a
    built name (``BaseHTTPRequestHandler`` calls ``"do_" + command``)."""
    owner = importlib.import_module(module_name)
    for part in qualname:
        owner = getattr(owner, part, None)
    if not isinstance(owner, type):
        return False
    return any(name in vars(base)
               or any(name.startswith(p)
                      for p in _module_prefixes(base.__module__))
               for base in owner.__mro__[1:])


def dead_definitions(root: pathlib.Path, src: pathlib.Path | None = None,
                     exclude: tuple[pathlib.Path, ...] = ()) -> list[str]:
    """``module:qualname`` of every definition under ``src`` that nothing
    else in ``root`` names, by the rule in this module's docstring."""
    src = src or root / "src"
    src_files = sorted(src.rglob("*.py"))
    other_py = [p for d in ("tests", "examples", "tools", "perfbench")
                for p in sorted((root / d).rglob("*.py"))]
    other_py += [p for p in (root / "setup.py",) if p.exists()]
    docs = sorted((root / "docs").rglob("*.md")) + [
        p for p in (root / "README.md",) if p.exists()]

    referenced: set[str] = set()
    trees = {}
    for path in src_files + other_py:
        if path.resolve() in exclude:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        if path in src_files:
            trees[path] = tree
        referenced |= _python_references(
            tree, package_init=path in src_files and path.name == "__init__.py")
    for path in docs:
        referenced.update(_WORD.findall(path.read_text()))

    # What src/ itself defines, and the attribute names it builds.
    src_defined = {node.name for tree in trees.values()
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))}
    prefixes = set().union(*map(getattr_prefixes, trees.values()))

    dead = []

    def visit(body, module_name, qualname, in_class):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            registered = any(isinstance(n, ast.Name) and n.id in src_defined
                             for d in node.decorator_list for n in ast.walk(d))
            skipped = ((name.startswith("__") and name.endswith("__"))
                       or registered
                       or any(name.startswith(p) for p in prefixes))
            if (not skipped and name not in referenced
                    and not (in_class and _base_class_calls(
                        module_name, qualname, name))):
                dead.append(f"{module_name}:{'.'.join(qualname + [name])}")
            visit(node.body, module_name, qualname + [name],
                  isinstance(node, ast.ClassDef))

    for path, tree in trees.items():
        visit(tree.body, _module_name(path, src), [], False)
    return dead


def test_every_src_definition_is_named_elsewhere():
    assert dead_definitions(REPO_ROOT, exclude=(THIS_FILE,)) == []


# ----------------------------------------------------------------------
# The rule itself, on a throwaway tree
# ----------------------------------------------------------------------
def _tree(tmp_path, monkeypatch, files: dict[str, str]) -> pathlib.Path:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    return tmp_path


def test_an_export_alone_does_not_keep_a_name_alive(tmp_path, monkeypatch):
    root = _tree(tmp_path, monkeypatch, {
        "src/deadpkg_a/__init__.py":
            "from deadpkg_a.mod import used, unused\n"
            "__all__ = ['used', 'unused']\n",
        "src/deadpkg_a/mod.py": "def used():\n    pass\n\n"
                                "def unused():\n    pass\n",
        "tests/test_mod.py": "from deadpkg_a import used\nused()\n",
    })
    assert dead_definitions(root) == ["deadpkg_a.mod:unused"]


def test_docs_strings_and_getattr_prefixes_count(tmp_path, monkeypatch):
    root = _tree(tmp_path, monkeypatch, {
        "src/deadpkg_b/__init__.py": "",
        "src/deadpkg_b/mod.py":
            "class Emitter:\n"
            "    def emit_r(self):\n        pass\n"
            "    def run(self, letter):\n"
            "        return getattr(self, f'emit_{letter}')()\n"
            "def documented():\n    pass\n"
            "def by_string():\n    pass\n"
            "def lost():\n    pass\n",
        "docs/guide.md": "Call `documented()` first.\n",
        "tools/wrap.py": "TARGET = 'deadpkg_b.mod.by_string'\n"
                         "Emitter().run('r')\n",
    })
    assert dead_definitions(root) == ["deadpkg_b.mod:lost"]


def test_registered_and_overriding_definitions_are_skipped(tmp_path,
                                                           monkeypatch):
    root = _tree(tmp_path, monkeypatch, {
        "src/deadpkg_c/__init__.py": "",
        "src/deadpkg_c/mod.py":
            "import functools, http.server, json\n"
            "REGISTRY = {}\n"
            "def register(fn):\n"
            "    REGISTRY[fn.__name__] = fn\n"
            "    return fn\n"
            "@register\n"
            "def handler():\n    pass\n"
            "@functools.cache\n"
            "def plain():\n    pass\n"
            "class Encoder(json.JSONEncoder):\n"
            "    def default(self, o):\n        return str(o)\n"
            "    def extra(self):\n        pass\n"
            "class Handler(http.server.BaseHTTPRequestHandler):\n"
            "    def do_GET(self):\n        pass\n",
        "tests/test_mod.py":
            "from deadpkg_c.mod import Encoder, Handler, REGISTRY\n",
    })
    assert dead_definitions(root) == ["deadpkg_c.mod:plain",
                                      "deadpkg_c.mod:Encoder.extra"]
