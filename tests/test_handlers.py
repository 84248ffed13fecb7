"""No handler in the package catches the errors a bug raises.

No ``except`` clause is bare or names ``Exception``, ``BaseException``,
``LookupError``, ``KeyError``, ``IndexError`` or ``TypeError``, directly or
through a module-level tuple such as ``specs._BUILD_ERRORS``.  The JSON
readers refuse bad input with their own ``ValueError`` or ``SpecError``, so a
``KeyError`` or ``TypeError`` from a bug surfaces as one instead of being
reported as a bad spec.
"""

import ast
from pathlib import Path

import dialectica

BROAD = {"Exception", "BaseException", "LookupError", "KeyError",
         "IndexError", "TypeError"}
_PACKAGE = Path(dialectica.__file__).parent


def _caught(expr, tuples):
    """The class names an ``except`` clause's expression names, a name
    bound to a module-level tuple resolved to the tuple's items."""
    if expr is None:
        yield "<bare>"
    elif isinstance(expr, ast.Tuple):
        for item in expr.elts:
            yield from _caught(item, tuples)
    elif isinstance(expr, ast.Name) and expr.id in tuples:
        yield from _caught(tuples[expr.id], tuples)
    elif isinstance(expr, ast.Name):
        yield expr.id
    elif isinstance(expr, ast.Attribute):
        yield expr.attr


def broad_handlers(source: str) -> list[tuple[int, str]]:
    """(line, name) of each broad class an ``except`` clause catches."""
    tree = ast.parse(source)
    tuples = {target.id: node.value for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
              for target in node.targets if isinstance(target, ast.Name)}
    return [(node.lineno, name) for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler)
            for name in _caught(node.type, tuples) if name in BROAD | {"<bare>"}]


def test_guard_sees_every_form():
    source = """
ERRORS = (KeyError, ValueError)
try:
    pass
except ERRORS:
    pass
except (OSError, builtins.TypeError):
    pass
except Exception as exc:
    pass
except ValueError:
    pass
except:
    pass
"""
    assert broad_handlers(source) == [(5, "KeyError"), (7, "TypeError"),
                                      (9, "Exception"), (13, "<bare>")]


def test_no_handler_catches_a_bug():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(_PACKAGE.glob("*.py"))
             for line, name in broad_handlers(path.read_text(encoding="utf-8"))]
    assert found == []
