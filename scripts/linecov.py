#!/usr/bin/env python3
"""Run tier-1 in process under a line tracer and check that it runs every executable line of src/freebraid.

A module's executable lines are the line numbers of its code objects (`co_lines`), so the check needs
nothing beyond the standard library.  `sys.settrace` traces only frames whose file lies in src/freebraid;
subprocesses, such as the console-script runs of the CLI cases, are not traced.  Lines that tier-1 is not
meant to run are listed, each with its reason, in tests/uncovered.py.  Exits 1 if tier-1 fails, if a line
that is not listed never ran, or if a listed line ran or its text does not occur exactly once in its module.
Run from anywhere (tier-1 under the tracer takes a few minutes):

    python scripts/linecov.py
"""

import runpy
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "freebraid"


def executable_lines(path: Path) -> set[int]:
    """Every line number of the module's code objects, nested ones included."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts at line 0
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and, for each file of the package, the lines that ran."""
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    # Neither function allocates once a line has been seen, so tests that measure memory with tracemalloc
    # read what they read untraced: a closure per call made one such test read 50 KiB more.
    def trace_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_line

    def trace_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return trace_line

    import pytest
    sys.path.insert(0, str(ROOT / "src"))
    assert "freebraid" not in sys.modules, "the package must be imported under the tracer"
    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main() -> int:
    listed = runpy.run_path(str(ROOT / "tests" / "uncovered.py"))["UNCOVERED"]
    t0 = time.perf_counter()
    code, ran = run_traced(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    print(f"tier-1 under the tracer: pytest exit {code}, {time.perf_counter() - t0:.0f} s")
    failed = code != 0
    total = unrun_count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        unrun = lines - ran.get(str(path), set())
        total += len(lines)
        unrun_count += len(unrun)
        for (name, line_text), reason in listed.items():
            if name != path.name:
                continue
            at = [k for k, line in enumerate(text, start=1) if line.strip() == line_text]
            if len(at) != 1:
                failed = True
                print(f"STALE {name}: {line_text!r} occurs {len(at)} times")
            elif at[0] in unrun:
                unrun.discard(at[0])
                print(f"listed {name}:{at[0]}: {line_text}  ({reason})")
            else:
                failed = True
                print(f"RAN {name}:{at[0]}: {line_text}  (listed as never run: {reason})")
        for k in sorted(unrun):
            failed = True
            print(f"UNRUN {path.name}:{k}: {text[k - 1].strip()}")
    print(f"{total - unrun_count} of {total} executable lines ran; {len(listed)} listed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
