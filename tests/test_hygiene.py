"""Source hygiene under src/linkstate: no module imports a name it never
uses, no attribute stored on self goes unread, no private function,
method, module-level constant, sentinel or class goes unreferenced, and no
parameter default of a module-level private function is one that every
call in src/linkstate overrides or that no call there overrides, and no
line of src/linkstate is longer than 120 characters, so that the code-line
count cannot fall by packing statements onto one line. The import check
covers tests/ too.

Package __init__ modules are exempt from the import check: their imports are
the re-exports. The code-line counter (code_lines.py) is checked here too.
"""

import ast
from pathlib import Path

import pytest
from code_lines import code_lines

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "linkstate"
TESTS = REPO / "tests"
MODULES = sorted(p for d in (SRC, TESTS) for p in d.rglob("*.py") if p.name != "__init__.py")


def _parsed(*dirs):
    return [(p, ast.parse(p.read_text(encoding="utf-8"))) for d in dirs for p in sorted(d.rglob("*.py"))]


def _imported(tree):
    """(bound name, line) for every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            # A quoted annotation names its types inside the string.
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _used(ast.parse(ann.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC if SRC in p.parents else REPO)))
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: 'int' = 0\n")
    assert [name for name, _ in _imported(tree) if name not in _used(tree)] == ["field"]


def _read_attributes(trees):
    """Every attribute name the trees read, as an attribute or a getattr string."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("getattr", "hasattr"):
                read.update(a.value for a in node.args[1:2] if isinstance(a, ast.Constant))
    return read


def _unread_fields(tree, read):
    """(attribute, line) for each attribute stored on self in tree whose
    name is not in read."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", None) == "self"
            and node.attr not in read
        ):
            yield node.attr, node.lineno


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _unreferenced(tree, defs, references):
    """(name, line) for each (name, first line, last line) definition in
    tree that no node outside its own lines names: a Name, an attribute or
    a string (a getattr name, a quoted annotation)."""
    for name, first, last in defs:
        if not any(
            ref == name and not (ref_tree is tree and first <= line <= last) for ref_tree, line, ref in references
        ):
            yield name, first


def _unreferenced_private_functions(tree, references):
    """The private (single-underscore) functions and methods of tree that
    nothing references (_unreferenced)."""
    defs = [
        (node.name, node.lineno, node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(node.name)
    ]
    return _unreferenced(tree, defs, references)


def _unreferenced_private_module_names(tree, references):
    """The private names tree binds at module level, classes and assigned
    constants or sentinels, that nothing references (_unreferenced)."""
    defs = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defs += [(name, node.lineno, node.end_lineno) for name in names if _private(name)]
    return _unreferenced(tree, defs, references)


def _references(trees):
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield tree, node.lineno, node.id
            elif isinstance(node, ast.Attribute):
                yield tree, node.lineno, node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield tree, node.lineno, node.value


def test_every_field_stored_on_self_is_read():
    src = _parsed(SRC)
    read = _read_attributes(tree for _, tree in src + _parsed(TESTS, REPO / "bench"))
    unread = [f"{path.relative_to(SRC)}:{line} self.{attr}" for path, tree in src for attr, line in _unread_fields(tree, read)]
    assert not unread, f"fields stored and never read: {', '.join(unread)}"


def test_every_private_function_is_referenced():
    src = _parsed(SRC)
    references = list(_references(tree for _, tree in src))
    unused = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path, tree in src
        for name, line in _unreferenced_private_functions(tree, references)
    ]
    assert not unused, f"private functions nothing references: {', '.join(unused)}"


def test_every_private_module_name_is_referenced():
    src = _parsed(SRC)
    references = list(_references(tree for _, tree in src))
    unused = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path, tree in src
        for name, line in _unreferenced_private_module_names(tree, references)
    ]
    assert not unused, f"private module-level names nothing references: {', '.join(unused)}"


def test_the_check_sees_an_unreferenced_private_constant_sentinel_and_class():
    tree = ast.parse(
        "_USED = 1\n"
        "_DEAD = object()\n"
        "_TABLE: dict = {}\n"
        "class _Node:\n"
        "    def next(self) -> '_Node':\n"
        "        return _USED\n"
        "class _Base:\n"
        "    pass\n"
        "class Public(_Base):\n"
        "    __slots__ = ()\n"
    )
    assert list(_unreferenced_private_module_names(tree, list(_references([tree])))) == [
        ("_DEAD", 2),
        ("_TABLE", 3),
        ("_Node", 4),
    ]


def test_the_checks_see_an_unread_field_and_an_unreferenced_private_function():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self):\n"
        "        self.kept = self.dead = 0\n"
        "        self.named = 1\n"
        "    def _used(self):\n"
        "        return self.kept + getattr(self, 'named')\n"
        "    def _recursive(self, n):\n"
        "        return self._recursive(n - 1)\n"
        "    def __repr__(self):\n"
        "        return repr(self._used())\n"
    )
    assert list(_unread_fields(tree, _read_attributes([tree]))) == [("dead", 3)]
    assert list(_unreferenced_private_functions(tree, list(_references([tree])))) == [("_recursive", 7)]


def _named(node):
    """The name a Name or an Attribute node reads, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _idle_defaults(trees):
    """(function, parameter, line) for each parameter default of a private
    module-level function in trees that every call in trees overrides, or
    that no call there overrides. A function named anywhere but as the
    callee of a call (passed as a value, say) has callers the check cannot
    see, and is left out; so is a call that spreads *args or **kwargs."""
    functions = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(node.name):
                functions[node.name] = node
    nodes = [node for tree in trees for node in ast.walk(tree)]
    calls = {name: [] for name in functions}
    callees = set()
    for node in nodes:
        if isinstance(node, ast.Call) and _named(node.func) in calls:
            calls[_named(node.func)].append(node)
            callees.add(id(node.func))
    named_otherwise = {_named(node) for node in nodes if id(node) not in callees}
    for name, fn in functions.items():
        spread = any(isinstance(a, ast.Starred) for c in calls[name] for a in c.args) or any(
            k.arg is None for c in calls[name] for k in c.keywords
        )
        if name in named_otherwise or not calls[name] or spread:
            continue
        positional = fn.args.posonlyargs + fn.args.args
        defaulted = positional[len(positional) - len(fn.args.defaults) :]
        defaulted += [a for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
        for arg in defaulted:
            passed = [
                any(k.arg == arg.arg for k in c.keywords) or (arg in positional and positional.index(arg) < len(c.args))
                for c in calls[name]
            ]
            if all(passed) or not any(passed):
                yield name, arg.arg, arg.lineno


def test_no_private_function_has_a_default_that_every_call_or_no_call_overrides():
    src = _parsed(SRC)
    idle = [f"{name}({arg}=) line {line}" for name, arg, line in _idle_defaults([tree for _, tree in src])]
    assert not idle, f"parameter defaults every call or no call overrides: {', '.join(idle)}"


def test_the_check_sees_a_default_every_call_or_no_call_overrides():
    tree = ast.parse(
        "def _all(a, b=1):\n    return a\n"
        "def _none(a, b=1, *, c=2):\n    return a\n"
        "def _mixed(a, b=1):\n    return a\n"
        "def _passed_around(a, b=1):\n    return a\n"
        "_all(1, 2)\n_all(1, b=3)\n"
        "_none(1)\n_none(2)\n"
        "_mixed(1)\n_mixed(1, 2)\n"
        "_passed_around(1)\nmap(_passed_around, [])\n"
    )
    assert list(_idle_defaults([tree])) == [("_all", "b", 1), ("_none", "b", 3), ("_none", "c", 3)]


def test_the_line_counter_counts_code_not_comments_layout_or_docstrings():
    source = (
        '"""Module docstring,\n'  # not counted: a bare string statement
        'second line."""\n'
        "\n"  # layout
        "# a comment\n"
        "import os  # a trailing comment\n"  # 1
        "X = 1\n"  # 2
        '"""An attribute docstring."""\n'
        "def f(a,\n"  # 3
        "      b):\n"  # 4
        "    'Docstring.'\n"
        "    return f'{a}' + '''two\n"  # 5: a string inside an expression
        "lines'''\n"  # 6: the same token's second line
        "    (\n"  # 7: a bare expression that is no string
        "        b)\n"  # 8
    )
    assert code_lines(source) == 8


MAX_LINE = 120


def _long_lines(source):
    """(line number, length) of each line of source longer than MAX_LINE characters."""
    return [(i, len(line)) for i, line in enumerate(source.splitlines(), 1) if len(line) > MAX_LINE]


def test_no_source_line_is_longer_than_120_characters():
    long = [
        f"{path.relative_to(SRC)}:{i} ({n} characters)"
        for path in sorted(SRC.rglob("*.py"))
        for i, n in _long_lines(path.read_text(encoding="utf-8"))
    ]
    assert not long, f"lines longer than {MAX_LINE} characters: {', '.join(long)}"


def test_the_check_sees_a_line_longer_than_120_characters():
    source = "x = 1\n" + "y = " + "1" * 116 + "\n" + "z = " + "2" * 117 + "\n"
    assert _long_lines(source) == [(3, 121)]
