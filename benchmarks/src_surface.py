"""Size of the library: ``src/`` line count and public surface.

Prints one JSON line with the number of lines and of ``.py`` files under
``src/``, and the number of names exported across every ``__all__``
under ``src/repro``, so a change that grows or shrinks the code shows
as a number:

    python benchmarks/src_surface.py
    {"src_lines": ..., "py_files": ..., "public_names": ...}
"""

import ast
import json
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def exported_names(tree: ast.Module) -> int:
    """The number of names a module's literal ``__all__`` lists."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return len(node.value.elts)
    return 0


def surface(src: Path = SRC) -> dict:
    files = sorted(src.rglob("*.py"))
    lines = 0
    names = 0
    for path in files:
        text = path.read_text()
        lines += len(text.splitlines())
        if path.is_relative_to(src / "repro"):
            names += exported_names(ast.parse(text))
    return {"src_lines": lines, "py_files": len(files), "public_names": names}


if __name__ == "__main__":
    print(json.dumps(surface(), sort_keys=True))
