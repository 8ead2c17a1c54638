"""The README's physics API table names only public names that exist."""
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def api_table_names() -> list[str]:
    """The backticked names in the first column of the table headed
    ``| function | input | output |``, e.g. ``magnetics.dipole_flux``."""
    lines = README.read_text().splitlines()
    start = lines.index("| function | input | output |") + 2  # skip the header rule
    names = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        names += [re.match(r"[\w.]*", span).group() for span in
                  re.findall(r"`([^`]*)`", line.split("|")[1])]
    return names


def test_api_table_names_resolve():
    names = api_table_names()
    assert len(names) >= 10
    for name in names:
        module, _, attr = name.partition(".")
        assert attr, f"README API table entry {name!r} does not name its module"
        assert hasattr(importlib.import_module(f"taxelkit.{module}"), attr), name
