"""Where the benchmark suite's exhibits (tables and figures) go.

Every exhibit is printed; it is also written to a file only when the session
was started with ``pytest --exhibits-out PATH`` (see ``benchmarks/conftest.py``),
so a plain test run leaves the working tree untouched.
"""

from __future__ import annotations

_out_path: str | None = None


def persist_to(path: str | None) -> None:
    """Start a session's exhibit file at ``path`` (``None``: print only)."""
    global _out_path
    _out_path = path
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# Exhibits regenerated by `pytest benchmarks/ --exhibits-out PATH`\n\n")


def report(text: str) -> None:
    """Print an exhibit; append it to the session's exhibit file, if any."""
    print("\n" + text + "\n")
    if _out_path is not None:
        with open(_out_path, "a", encoding="utf-8") as handle:
            handle.write(text + "\n\n")
