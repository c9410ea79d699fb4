"""List and count the settable values of a ``tcflow`` source tree.

Usage: python tools/settable_values.py SRC

A settable value is a default a caller can override: a defaulted parameter
of a function or lambda, a defaulted dataclass field that is not a
``ClassVar``, or a key of ``cli.DEFAULTS`` (one INI key). The first two are
read from the syntax trees of the modules under SRC/tcflow; the config keys
are read from ``tcflow.cli.DEFAULTS``, imported from SRC, since some
sections are built from the dataclasses. Prints one line per value, as
``module:function parameter`` (a method or nested function by its dotted
path, a lambda as ``<lambda>``), ``module:Class field`` or ``[section] key``,
then the three counts and their sum, for example
``parameters 56, dataclass fields 32, config keys 36: 124``. Two trees'
lists can be diffed to name the values a change adds or removes.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def settable_names(tree: ast.AST, module: str) -> tuple[list[str], list[str]]:
    """(defaulted function and lambda parameters, defaulted dataclass
    fields), each as ``module:path name``."""
    params, fields = [], []

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inner = scope + [getattr(child, "name", "<lambda>")]
                where = f"{module}:{'.'.join(inner)}"
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                              if default is not None]
                params.extend(f"{where} {arg.arg}" for arg in defaulted)
            elif isinstance(child, ast.ClassDef):
                inner = scope + [child.name]
                if any("dataclass" in ast.unparse(deco) for deco in child.decorator_list):
                    fields.extend(f"{module}:{'.'.join(inner)} {stmt.target.id}"
                                  for stmt in child.body
                                  if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                                  and "ClassVar" not in ast.unparse(stmt.annotation))
            visit(child, inner)

    visit(tree, [])
    return params, fields


def main(src: str) -> int:
    root = Path(src).resolve()
    params, fields = [], []
    for path in sorted((root / "tcflow").glob("*.py")):
        p, f = settable_names(ast.parse(path.read_text(), filename=str(path)), path.stem)
        params, fields = params + p, fields + f
    sys.path.insert(0, str(root))
    from tcflow.cli import DEFAULTS

    keys = [f"[{section}] {key}" for section, values in DEFAULTS.items() for key in values]
    for name in params + fields + keys:
        print(name)
    print(f"parameters {len(params)}, dataclass fields {len(fields)}, config keys {len(keys)}: "
          f"{len(params) + len(fields) + len(keys)}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1]))
