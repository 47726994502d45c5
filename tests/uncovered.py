"""Lines of src/freebraid that tier-1 does not run, each with the reason, checked by `scripts/linecov.py`.

A key is a module's file name and the line's text, stripped, which must occur exactly once in the module.
The check fails on any other line that tier-1 leaves unrun, and on a listed line that it does run.
"""

UNCOVERED = {
    ("cli.py", "sys.exit(main())"):
        "the `python -m freebraid.cli` entry; the CLI cases run it only in subprocesses, which are not traced",
    ("words.py", "return tuple(t for t, x in enumerate(self.letters) if x > 0)"):
        "`BraidWord.classical_positions`, whose only caller is `perfbench/workloads.py`",
}
