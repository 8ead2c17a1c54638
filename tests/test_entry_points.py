"""Every top-level function, class and constant, and every public method of a
top-level class, that a taxelkit module defines is named somewhere else in
``src/taxelkit`` or in ``bench/``, so no entry point is kept for the tests
alone. Every public attribute that a top-level class assigns on ``self`` is
read somewhere in those files, so no member is kept that nothing reads.

A stdlib ``tokenize`` scan: a definition counts as named where its name is a
name token, or the whole of a string literal (a ``getattr`` target such as a
``bench/layers.WRAPS`` entry), outside the lines of its own definition.
Comments and docstrings do not name anything. The package ``__init__`` is
neither scanned for definitions nor counted as a use, since its imports are
the public re-exports.

The attribute scan is an ``ast`` scan: an attribute counts as read where its
name is loaded as an attribute (``model.in_channels``) or is the whole of a
string literal (a ``getattr`` target).
"""
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "taxelkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))


def definitions(source: str) -> dict[str, set[int]]:
    """Each definition's name and the lines its definitions span."""
    lines: dict[str, set[int]] = {}

    def add(name, node):
        lines.setdefault(name, set()).update(range(node.lineno, node.end_lineno + 1))
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            add(node.name, node)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    add(item.name, item)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(name, ast.Name):
                        add(name.id, node)
    return lines


def names(source: str) -> dict[str, set[int]]:
    """Each name token and whole-string literal of a source, and its lines."""
    found: dict[str, set[int]] = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        value = tok.string
        if tok.type == tokenize.STRING:
            try:
                value = ast.literal_eval(tok.string)
            except ValueError:  # an f-string
                continue
        if tok.type in (tokenize.NAME, tokenize.STRING) and isinstance(value, str):
            found.setdefault(value, set()).add(tok.start[0])
    return found


def unnamed(sources: dict[str, str], defining: list[str]) -> list[str]:
    """``file: name`` of each definition in the ``defining`` files that no
    source names outside its own definition."""
    used = {path: names(source) for path, source in sources.items()}
    dead = []
    for path in defining:
        for name, own in definitions(sources[path]).items():
            if not any(used[p].get(name, set()) - (own if p == path else set()) for p in used):
                dead.append(f"{path}: {name}")
    return dead


def test_scan_finds_a_dead_entry_point():
    module = ("LIMIT = 3\nUNUSED = 4\n\n\ndef dead(n):\n    return dead(n - 1) if n else LIMIT\n"
              "\n\nclass Model:\n    def run(self):\n        pass\n\n    def stop(self):\n"
              "        '''stop'''\n\n    def _hook(self):\n        pass\n")
    caller = "# dead\nfrom module import Model\nModel().run()\nWRAPS = [('module', 'stop')]\n"
    assert unnamed({"module.py": module, "caller.py": caller}, ["module.py"]) == [
        "module.py: UNUSED", "module.py: dead"]


def test_modules_found():
    assert {"nn.py", "pipeline.py", "cli.py"} <= {p.name for p in MODULES}
    assert {"run.py", "layers.py"} <= {p.name for p in BENCH}


def test_every_entry_point_is_named():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in MODULES + BENCH}
    assert unnamed(sources, [str(p.relative_to(ROOT)) for p in MODULES]) == []


def self_attributes(source: str) -> list[tuple[str, str]]:
    """(class, attribute) of each public attribute that a top-level class of
    a source assigns on ``self``, sorted."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name) and sub.value.id == "self"
                        and not sub.attr.startswith("_")):
                    found.add((node.name, sub.attr))
    return sorted(found)


def attribute_reads(source: str) -> set[str]:
    """Each attribute name a source loads, and each of its whole string
    literals (not the pieces of an f-string)."""
    tree = ast.parse(source)
    pieces = {id(value) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
              for value in node.values}
    return ({node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
            | {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
               and isinstance(node.value, str) and id(node) not in pieces})


def unread(sources: dict[str, str], defining: list[str]) -> list[str]:
    """``file: Class.attribute`` of each public attribute that a top-level
    class of the ``defining`` files assigns on ``self`` and no source reads."""
    reads = set().union(*(attribute_reads(source) for source in sources.values()))
    return [f"{path}: {cls}.{attr}" for path in defining
            for cls, attr in self_attributes(sources[path]) if attr not in reads]


def test_scan_finds_an_unread_attribute():
    module = ("class Model:\n    def __init__(self, n):\n        self.n = n\n"
              "        self.dead = n\n        self.named = n\n        self._cache = None\n"
              "        self.dead += 1\n\n    def size(self):\n        return self.n\n\n\n"
              "class Error(ValueError):\n    def __init__(self, axes):\n"
              "        self.axes = axes\n        super().__init__(f'axes {axes}')\n")
    caller = "# model.dead\nimport module\ngetattr(module.Model(1), 'named')\nprint(f'axes')\n"
    assert unread({"module.py": module, "caller.py": caller}, ["module.py"]) == [
        "module.py: Error.axes", "module.py: Model.dead"]


def test_every_self_attribute_is_read():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in MODULES + BENCH}
    assert unread(sources, [str(p.relative_to(ROOT)) for p in MODULES]) == []
