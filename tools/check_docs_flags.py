#!/usr/bin/env python3
"""Checks that the docs only show rdp_cli flags that exist.

Scans README.md and docs/*.md for `rdp_cli <command> ...` invocations --
in fenced code blocks (with backslash continuations joined) and in inline
code spans -- and fails if one of them uses a --flag that
`rdp_cli <command> --help` does not list. The help text is generated from
the flag declarations themselves (src/cli/args.hpp), so this keeps the
docs from drifting away from the parser.

Usage: check_docs_flags.py <path to rdp_cli>

Exit status: 0 when every documented flag exists, 1 with a per-flag
report otherwise.
"""

import pathlib
import re
import subprocess
import sys

COMMANDS = ("generate", "realize", "run", "serve", "obs", "evaluate", "sweep",
            "bounds", "repro", "fuzz", "perf record", "perf compare", "perf gate")
INVOCATION_RE = re.compile(
    r"rdp_cli\s+(perf\s+(?:record|compare|gate)|[a-z]+)\b([^`|;&#]*)")
FLAG_RE = re.compile(r"(?<![\w-])--([a-z][a-z0-9-]*)")


def help_flags(cli, command):
    result = subprocess.run([cli, *command.split(), "--help"], capture_output=True,
                            text=True, check=False)
    if result.returncode != 0:
        sys.exit(f"check_docs_flags: '{command} --help' exited {result.returncode}")
    return set(FLAG_RE.findall(result.stdout)) | {"help"}


def logical_lines(path):
    """Yields (lineno, text) with fenced-block continuations joined."""
    in_fence = False
    pending, start = "", 0
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence and line.rstrip().endswith("\\"):
            pending, start = pending + line.rstrip()[:-1] + " ", start or lineno
            continue
        yield (start or lineno), pending + line
        pending, start = "", 0


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    cli = argv[1]
    known = {command: help_flags(cli, command) for command in COMMANDS}
    repo = pathlib.Path(__file__).resolve().parent.parent
    files = [repo / "README.md"] + sorted((repo / "docs").glob("*.md"))

    unknown = []
    checked = 0
    for path in files:
        for lineno, line in logical_lines(path):
            for match in INVOCATION_RE.finditer(line):
                command = " ".join(match.group(1).split())
                if command not in known:
                    continue
                for flag in FLAG_RE.findall(match.group(2)):
                    checked += 1
                    if flag not in known[command]:
                        unknown.append((path.relative_to(repo), lineno, command, flag))

    for path, lineno, command, flag in unknown:
        print(f"{path}:{lineno}: 'rdp_cli {command}' has no flag --{flag}")
    print(f"check_docs_flags: {checked} documented flags checked across "
          f"{len(files)} files, {len(unknown)} unknown")
    return 1 if unknown else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
