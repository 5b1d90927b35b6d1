"""Statements of ``src/detsing`` that neither tier-1 nor the capped
command-line scan executes (pytest does not collect this file).

    PYTHONPATH=src python tests/statement_trace.py

Under ``sys.settrace``, limited to frames of ``src/detsing``, it runs
the tier-1 suite in this process (``pytest.main``) and then every run
of ``cli_scan.runs()`` through ``cli.main``.  It then parses each module
and prints, per module, the line range of each statement no run
executed; a statement inside one already listed is not listed again.
Docstrings, ``global`` and ``nonlocal`` are left out, as they compile to
no code.  A compound statement counts as executed when its header ran
(its decorators, or its lines up to its body); a simple one when any of
its lines did.  Code that only child processes run, such as
``__main__.py`` under ``python -m detsing``, is not traced.

A listed statement is untested, not dead: a model no test or scan run
holds may still reach it.  A tier-1 test that times itself can fail
under the tracer's overhead alone; pytest's summary says which.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "detsing"


def _tracer(lines):
    """A ``sys.settrace`` function that records, per file of the
    package, each line a frame of it executes, and leaves every other
    frame untraced."""
    prefix = str(PACKAGE)
    local_of = {}

    def local_for(filename):
        add = lines.setdefault(filename, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in local_of:
            local_of[filename] = local_for(filename) if filename.startswith(prefix) else None
        return local_of[filename]

    return trace


def _own_lines(node):
    """The lines whose execution shows that a statement ran."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if body:
        return range(first, body[0].lineno)
    return range(first, node.end_lineno + 1)


def _is_docstring(node, parent):
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _missed(node, seen, out):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Global, ast.Nonlocal)) or _is_docstring(child, node):
            continue
        if isinstance(child, ast.stmt) and not any(line in seen for line in _own_lines(child)):
            out.append((child.lineno, child.end_lineno))
        else:
            _missed(child, seen, out)


def missed(path, seen):
    """(first, last) line of each outermost statement in ``path`` that
    ran none of its own lines, in source order."""
    out = []
    _missed(ast.parse(path.read_text(), str(path)), seen, out)
    return sorted(out)


def main():
    import pytest

    lines = {}
    sys.settrace(_tracer(lines))
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
        print(f"tier-1 exit code {code}")
        import cli_scan

        results = cli_scan.scan()
        print(f"{len(results)} scan runs")
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        spans = missed(path, lines.get(str(path), set()))
        total += len(spans)
        if spans:
            where = ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)
            print(f"{path.relative_to(ROOT)}: {where}")
    print(f"{total} statements not executed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
