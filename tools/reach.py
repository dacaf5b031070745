"""Which statements inside function bodies the tier-1 tests never run.

    python3 tools/reach.py --label tier1

Run from the root of a lexgate checkout. The tool runs the tests in this
process through `pytest.main` (by default the tier-1 command's arguments,
`-q --continue-on-collection-errors`, with `--hypothesis-seed=0`; any
arguments after `--` replace them) and records line events under
`--source` (default `src/lexgate`) with a `sys.settrace` and
`threading.settrace` hook. The hook is installed before the first import
of the source, since some function bodies run at import
(`engine._checked` builds the checked built-ins), and again before each
phase of each test, in case a test replaced it.

A statement counts when it lies inside a function body: module and class
level statements run at import. It is found with `ast`, and reached when a
line event fell on its own lines, from its first line (its first decorator
for a decorated `def`) up to the line before its first nested statement,
or its last line when it has none. A function's docstring and `global` and
`nonlocal` declarations compile to no code, so they are not counted.

Writes `REACH_<label>.json` in `--out-dir` (default: the working directory):
the pytest exit code, the statements counted and reached, the unreached
count per file, and each unreached statement's first line. The tracer makes
the run about three times slower than tier-1, so the tool runs outside it.
Standard library only (and pytest, which runs the tests).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import threading
import time
from pathlib import Path

# Hypothesis draws new examples on every run, so without a fixed seed two
# runs of one checkout can reach different statements.
TIER_1_ARGS = ["-q", "--continue-on-collection-errors", "--hypothesis-seed=0"]


class Tracer:
    """A settrace hook recording the lines run in files under `source`."""

    def __init__(self, source: Path):
        self.prefix = str(source.resolve()) + os.sep
        self.lines: dict[str, set[int]] = {}  # resolved file path -> lines run
        self._files: dict[str, object] = {}  # code file name -> its set, or None

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        lines = self._files.get(filename, self)
        if lines is self:
            path = os.path.realpath(filename)
            lines = self._files[filename] = (
                self.lines.setdefault(path, set()) if path.startswith(self.prefix) else None
            )
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def install(self) -> None:
        sys.settrace(self)
        threading.settrace(self)


class Reinstall:
    """The pytest plugin that installs the tracer again before each phase
    of each test."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def pytest_runtest_setup(self, item):
        self.tracer.install()

    def pytest_runtest_call(self, item):
        self.tracer.install()

    def pytest_runtest_teardown(self, item):
        self.tracer.install()


def statements(path: Path) -> dict[int, tuple[int, int]]:
    """The statements inside the function bodies of a file, by first line,
    each with the span of its own lines (see the module docstring)."""
    tree = ast.parse(path.read_bytes(), filename=str(path))
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    docstrings = {id(function.body[0]) for function in functions if ast.get_docstring(function, clean=False) is not None}
    found: dict[int, tuple[int, int]] = {}
    for function in functions:
        for node in (node for top in function.body for node in ast.walk(top)):
            if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)) or id(node) in docstrings:
                continue
            first = min([node.lineno, *(decorator.lineno for decorator in getattr(node, "decorator_list", ()))])
            nested = [child.lineno for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
            found.setdefault(first, (first, max(first, min(nested) - 1) if nested else node.end_lineno))
    return found


def reach(source: Path, pytest_args: list[str]) -> dict:
    """Run pytest on `pytest_args` under the tracer and count the statements
    of every `.py` file under `source` that no line event reached."""
    import pytest

    source = source.resolve()
    early = sorted(
        name for name, module in list(sys.modules.items())
        if os.path.realpath(getattr(module, "__file__", None) or os.devnull).startswith(str(source) + os.sep)
    )
    if early:
        raise SystemExit(f"imported before the hook was installed: {', '.join(early)}")
    tracer = Tracer(source)
    previous = sys.gettrace(), threading.gettrace()
    started = time.perf_counter()
    tracer.install()
    try:
        exit_code = pytest.main(pytest_args, plugins=[Reinstall(tracer)])
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    seconds = time.perf_counter() - started

    counted = reached = 0
    unreached: dict[str, list[int]] = {}
    for path in sorted(source.rglob("*.py")):
        ran = tracer.lines.get(str(path), set())
        missed = []
        for first, (start, end) in sorted(statements(path).items()):
            counted += 1
            if any(line in ran for line in range(start, end + 1)):
                reached += 1
            else:
                missed.append(first)
        if missed:
            unreached[path.relative_to(source).as_posix()] = missed
    return {
        "source": source.name,
        "python": sys.version.split()[0],
        "pytest_args": pytest_args,
        "pytest_exit": int(exit_code),
        "seconds": round(seconds, 1),
        "statements": counted,
        "reached": reached,
        "unreached": counted - reached,
        "unreached_by_file": {name: len(lines) for name, lines in unreached.items()},
        "unreached_lines": unreached,
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    own, pytest_args = (argv[:argv.index("--")], argv[argv.index("--") + 1:]) if "--" in argv else (argv, TIER_1_ARGS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output, REACH_<label>.json")
    parser.add_argument("--source", type=Path, default=Path("src/lexgate"), help="the package directory to count")
    parser.add_argument("--out-dir", type=Path, default=Path.cwd())
    args = parser.parse_args(own)
    result = reach(args.source, pytest_args)
    out = args.out_dir / f"REACH_{args.label}.json"
    out.write_text(json.dumps({"label": args.label, **result}, indent=1) + "\n")
    print(json.dumps({key: result[key] for key in ("pytest_exit", "seconds", "statements", "reached", "unreached")}))
    print(json.dumps(result["unreached_by_file"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
