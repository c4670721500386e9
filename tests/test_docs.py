"""DESIGN.md's module map (§3) names every module under ``src/repro``.

The map is the one place a reader learns what each module is for, so it
must list every ``.py`` file but the package ``__init__``s, and name no
file that does not exist.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
# A map entry: two spaces per level, then a module or directory name.
ENTRY = re.compile(r"( *)([A-Za-z_]\w*(?:\.py|/))(?:\s|$)")


def mapped_modules():
    """Paths relative to ``src/repro`` that the module map lists."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    block = text.split("\nsrc/repro/\n", 1)[1].split("```", 1)[0]
    directories, paths = [], set()
    for line in block.splitlines():
        match = ENTRY.match(line)
        if match is None:
            continue
        indent, name = match.groups()
        del directories[len(indent) // 2 - 1:]
        if name.endswith("/"):
            directories.append(name)
        else:
            paths.add("".join(directories) + name)
    return paths


def test_module_map_matches_the_tree():
    modules = {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if path.name != "__init__.py"
    }
    mapped = mapped_modules()
    assert sorted(modules - mapped) == [], "modules missing from DESIGN.md §3"
    assert sorted(mapped - modules) == [], "DESIGN.md §3 names missing files"
