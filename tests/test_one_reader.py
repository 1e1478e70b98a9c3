"""The package has one reader for files from outside the program: only
``errors.py`` decodes JSON and names the decoder's failures, so every loader
goes through its rule for bytes, syntax, nesting and field types, and
``cli.main`` needs to catch nothing but the package's typed errors and the
operating system's."""

import ast

from test_one_search import PACKAGE, _modules_naming


def test_only_errors_decodes_json():
    assert _modules_naming({"loads", "UnicodeDecodeError", "JSONDecodeError", "RecursionError"}) == ["errors.py"]


def test_cli_main_catches_only_typed_and_os_errors():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    handlers = [ast.unparse(h.type) for h in ast.walk(main) if isinstance(h, ast.ExceptHandler)]
    assert handlers == ["UsageError", "(SitsGraphError, OSError)"]
