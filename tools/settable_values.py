"""Count the settable values of a ``tcflow`` source tree.

Usage: python tools/settable_values.py SRC

A settable value is a default a caller can override: a defaulted parameter
of a function or lambda, a defaulted dataclass field that is not a
``ClassVar``, or a key of ``cli.DEFAULTS`` (one INI key). The first two are
counted from the syntax trees of the modules under SRC/tcflow; the config
keys are read from ``tcflow.cli.DEFAULTS``, imported from SRC, since some
sections are built from the dataclasses. Prints the three counts and their
sum, for example ``parameters 56, dataclass fields 32, config keys 36: 124``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def count_tree(tree: ast.AST) -> tuple[int, int]:
    """(defaulted function and lambda parameters, defaulted dataclass fields)."""
    params = fields = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            params += len(node.args.defaults)
            params += sum(default is not None for default in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(deco) for deco in node.decorator_list):
            fields += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                          and "ClassVar" not in ast.unparse(stmt.annotation)
                          for stmt in node.body)
    return params, fields


def main(src: str) -> int:
    root = Path(src).resolve()
    params = fields = 0
    for path in sorted((root / "tcflow").glob("*.py")):
        p, f = count_tree(ast.parse(path.read_text(), filename=str(path)))
        params, fields = params + p, fields + f
    sys.path.insert(0, str(root))
    from tcflow.cli import DEFAULTS

    keys = sum(len(section) for section in DEFAULTS.values())
    print(f"parameters {params}, dataclass fields {fields}, config keys {keys}: "
          f"{params + fields + keys}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1]))
