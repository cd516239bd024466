#!/usr/bin/env python3
"""Repo invariant lint. Fails CI when a structural rule the test suite can't
see is violated:

  1. No raw std::mutex / std::shared_mutex / std::condition_variable
     declarations in src/ outside src/analysis/ (the wrappers themselves)
     and src/util/ (below the validator in the layering — SimClock's
     internals can't be instrumented by a validator that must never perturb
     virtual time). Everything else must use cntr::analysis::CheckedMutex /
     CheckedSharedMutex / CheckedCondVar so the lockdep validator sees every
     acquisition.

  2. No SimClock reads inside src/obs/. The observability plane mirrors
     virtual-time values recorded by instrumented layers; if it read the
     clock itself, arming metrics/tracing could perturb bench bit-identity.

  3. Every CNTR_FAULT_POINT name registered in code is documented in
     docs/robustness.md — the catalogue there is the contract tests and
     operators grep — and every point the catalogue block names is still
     registered in code, so a deleted point cannot leave its entry behind.

Run from the repo root (or pass it as argv[1]): scripts/lint/check_invariants.py
"""

from __future__ import annotations

import pathlib
import re
import sys

RAW_PRIMITIVE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?)\b"
)
OBS_CLOCK_READ = re.compile(r"\b(SimClock|NowNs|AdvanceTo|clock\(\))\b")
FAULT_POINT = re.compile(r'CNTR_FAULT_POINT\(\s*\w+\s*,\s*"([^"]+)"')
# The fenced block that follows the catalogue's introduction in
# docs/robustness.md: whitespace-separated point names.
FAULT_CATALOGUE = re.compile(
    r"The catalogue \(`FaultRegistry::Points\(\)`\).*?```\n(.*?)```", re.S
)

MUTEX_EXEMPT_DIRS = ("src/analysis/", "src/util/")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string literals, preserving line structure so
    reported line numbers stay accurate."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def check_raw_primitives(root: pathlib.Path) -> list[str]:
    errors = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(root).as_posix()
        if any(rel.startswith(d) for d in MUTEX_EXEMPT_DIRS):
            continue
        code = strip_comments_and_strings(path.read_text())
        for lineno, line in enumerate(code.splitlines(), 1):
            m = RAW_PRIMITIVE.search(line)
            if m:
                errors.append(
                    f"{rel}:{lineno}: raw {m.group(0)} — use the "
                    f"cntr::analysis::Checked* wrapper (src/analysis/lockdep.h) "
                    f"so the lockdep validator sees this lock"
                )
    return errors


def check_obs_clock_reads(root: pathlib.Path) -> list[str]:
    errors = []
    obs = root / "src" / "obs"
    if not obs.is_dir():
        return errors
    for path in sorted(obs.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(root).as_posix()
        code = strip_comments_and_strings(path.read_text())
        for lineno, line in enumerate(code.splitlines(), 1):
            m = OBS_CLOCK_READ.search(line)
            if m:
                errors.append(
                    f"{rel}:{lineno}: {m.group(0)} in src/obs/ — the "
                    f"observability plane must mirror timestamps recorded by "
                    f"instrumented layers, never read the clock itself"
                )
    return errors


def check_fault_points_documented(root: pathlib.Path) -> list[str]:
    doc_path = root / "docs" / "robustness.md"
    doc = doc_path.read_text() if doc_path.is_file() else ""
    errors = []
    seen = set()
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(root).as_posix()
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for m in FAULT_POINT.finditer(line):
                name = m.group(1)
                if name in seen:
                    continue
                seen.add(name)
                if name not in doc:
                    errors.append(
                        f"{rel}:{lineno}: fault point \"{name}\" is not "
                        f"documented in docs/robustness.md — add it to the "
                        f"catalogue section"
                    )
    catalogue = FAULT_CATALOGUE.search(doc)
    if catalogue is None:
        errors.append("docs/robustness.md: fault-point catalogue block not found")
        return errors
    first_line = doc.count("\n", 0, catalogue.start(1)) + 1
    for offset, line in enumerate(catalogue.group(1).splitlines()):
        for name in line.split():
            if name not in seen:
                errors.append(
                    f"docs/robustness.md:{first_line + offset}: the catalogue "
                    f"names fault point \"{name}\", but no CNTR_FAULT_POINT "
                    f"registers it — remove the entry"
                )
    return errors


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    if not (root / "src").is_dir():
        print(f"check_invariants: no src/ under {root} — run from the repo root",
              file=sys.stderr)
        return 2

    errors = (
        check_raw_primitives(root)
        + check_obs_clock_reads(root)
        + check_fault_points_documented(root)
    )
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"check_invariants: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("check_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
