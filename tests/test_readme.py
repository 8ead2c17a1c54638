"""The README's physics API table and its prose name only taxelkit names
that exist, and its CLI block parses."""
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import taxelkit
from taxelkit.cli import build_parser

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


MODULES = [module.name for module in pkgutil.iter_modules(taxelkit.__path__)]
# last parts that end a benchmark metric row, e.g. ``gestures.synth_recording.calls``,
# or a file name, e.g. ``calibration.json``, not a taxelkit name
NOT_NAMES = {"calls", "s", "self_s", "p50_ms", "tail_ms", "gflop_s", "mb_per_s", "json"}


def prose_names() -> list[str]:
    """The distinct dotted names at the start of backticked spans outside the
    README's code blocks that begin with a taxelkit module, e.g.
    ``dataio.DatasetReader`` or ``pipeline.ablate`` of ``pipeline.ablate(...)``,
    less metric rows and file names."""
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    pattern = re.compile(rf"(?:{'|'.join(MODULES)})\.[\w.]+")
    names = {m.group() for span in re.findall(r"`([^`\n]*)`", prose)
             if (m := pattern.match(span))}
    return sorted(name for name in names if name.rsplit(".", 1)[1] not in NOT_NAMES)


def test_prose_names_resolve():
    names = prose_names()
    assert len(names) >= 25
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"taxelkit.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), f"README names {name!r}, which does not exist"
            obj = getattr(obj, attr)


def cli_block_lines() -> list[str]:
    """The ``taxelkit ...`` lines of the first code block under ``## CLI``."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("taxelkit ")]


def test_cli_block_parses(capsys):
    lines = cli_block_lines()
    assert len(lines) >= 7
    parser = build_parser()
    for line in lines:
        # drop the comment and the [optional] markers, then the program name
        argv = shlex.split(line.split("#")[0].replace("[", "").replace("]", ""))[1:]
        parser.parse_args(argv)  # exits 2 (a failed test) on an unknown flag or value
        # argparse also takes a prefix of a flag, so each flag must be spelled out
        with pytest.raises(SystemExit):
            parser.parse_args([argv[0], "--help"])
        help_text = capsys.readouterr().out
        for flag in (a for a in argv if a.startswith("--")):
            assert re.search(rf"(?<![\w-]){flag}(?![\w-])", help_text), (flag, line)
