"""No handler in the package catches the errors a bug raises, and no
refusal escapes the command line's exit-code table.

No ``except`` clause is bare or names ``Exception``, ``BaseException``,
``LookupError``, ``KeyError``, ``IndexError`` or ``TypeError``, directly or
through a module-level tuple.  The JSON readers refuse bad input with their
own ``ValueError`` or ``SpecError``, so a ``KeyError`` or ``TypeError`` from
a bug surfaces as one instead of being reported as a bad spec.

Every exception class the package defines is one that ``cli.main`` maps to
an exit code, or a subclass of one, except the scheduler's internal
``Quiescent``; so a refusal raised anywhere ends with a documented exit
code, never a traceback.
"""

import ast
import builtins
import importlib
import inspect
import pkgutil
from pathlib import Path

import dialectica
from dialectica import cli
from dialectica.runtime import Quiescent

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


def mapped_classes() -> set[type]:
    """The classes the ``except`` clauses of ``cli.main`` name."""
    tree = ast.parse(inspect.getsource(cli.main))
    names = {name for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)
             for name in _caught(node.type, {})}
    return {vars(cli).get(name) or getattr(builtins, name) for name in names}


def defined_exceptions() -> dict[str, type]:
    """Every exception class a module of the package defines, by name."""
    modules = [importlib.import_module(f"dialectica.{info.name}")
               for info in pkgutil.iter_modules(dialectica.__path__)]
    return {obj.__name__: obj for module in modules
            for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__}


def test_every_exception_class_is_mapped_to_an_exit_code():
    mapped = mapped_classes()
    assert ValueError not in mapped and Exception not in mapped
    unmapped = [name for name, cls in defined_exceptions().items()
                if cls is not Quiescent and not issubclass(cls, tuple(mapped))]
    assert unmapped == []


def test_the_package_defines_the_three_refusal_classes_and_two_more():
    # Builder refusals are ValueErrors; SpaceViolation and CannotDraw are
    # the other two; ShapeMismatch exits as a space violation, and
    # Quiescent never leaves the scheduler.
    assert set(defined_exceptions()) == {"SpecError", "SpaceViolation",
                                         "ShapeMismatch", "CannotDraw",
                                         "Quiescent"}
