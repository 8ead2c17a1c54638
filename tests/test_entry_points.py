"""Every top-level function, class and constant, and every public method of a
top-level class, that a taxelkit module defines is named somewhere else in
``src/taxelkit`` or in ``bench/``, so no entry point is kept for the tests
alone.

A stdlib ``tokenize`` scan: a definition counts as named where its name is a
name token, or the whole of a string literal (a ``getattr`` target such as a
``bench/layers.WRAPS`` entry), outside the lines of its own definition.
Comments and docstrings do not name anything. The package ``__init__`` is
neither scanned for definitions nor counted as a use, since its imports are
the public re-exports.
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
