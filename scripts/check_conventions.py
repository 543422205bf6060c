#!/usr/bin/env python3
"""Source-convention lint for the zero-allocation execution path (docs/MEMORY.md).

The execution path promises a zero-allocation steady state, and the grow-only rule
is what keeps warm capacities alive across calls. This script statically
enforces the conventions clang-tidy has no checks for, over the execution-path
subsystems (src/mem, src/collectives, src/compress, src/ddl):

  raw-new           `new` expressions — scratch comes from persistent workspace
                    members, never the heap directly (smart-pointer factories are
                    fine: std::make_unique allocates, but owns).
  raw-delete        `delete` expressions (deleted member functions, `= delete`,
                    are of course allowed).
  shrink-to-fit     `shrink_to_fit()` releases warm capacity.
  shrinking-resize  `resize(0)` destroys warm elements and their capacities;
                    grow-only code writes `clear()` (logical emptying) or
                    `if (c.size() < n) c.resize(n)`.
  unaligned-simd    (src/compress/kernels/ only) raw unaligned vector load/store
                    intrinsics (_mm*_loadu/_mm*_storeu/_mm*_lddqu, NEON vld1/vst1)
                    outside the checked wrappers in aligned.h. Kernel code goes
                    through LoadU/StoreU so every memory touch shares one audited
                    head/tail discipline.

A deliberate cold-path exception (e.g. an explicit Trim() release API) is annotated
in the source with a marker comment on the same line or the line above:

    // conventions:allow(shrink-to-fit) Trim() is the explicit release API
    buffer.shrink_to_fit();

Usage: check_conventions.py [repo_root]   (defaults to the script's parent repo)
Exit status: 0 clean, 1 findings, 2 usage error.
"""

import os
import re
import sys

CHECKED_DIRS = ("src/mem", "src/collectives", "src/compress", "src/ddl")
EXTENSIONS = (".h", ".cc")

ALLOW_MARKER = re.compile(r"conventions:allow\(([a-z-]+)\)")

# Applied to code with comments and string/char literals stripped.
RULES = [
    ("raw-new", re.compile(r"(?<!operator\s)(?<!operator)\bnew\b(?!\s*\()")),
    ("raw-delete", re.compile(r"(?<!=)(?<!=\s)(?<!operator\s)(?<!operator)\bdelete\b")),
    ("shrink-to-fit", re.compile(r"\bshrink_to_fit\s*\(")),
    ("shrinking-resize", re.compile(r"\.\s*resize\s*\(\s*0(u|U|l|L|z|Z)*\s*[),]")),
]

# Rules that apply only under a path prefix (relative to the repo root).
SCOPED_RULES = [
    (
        "src/compress/kernels/",
        "unaligned-simd",
        re.compile(
            r"\b(_mm\d*_(loadu|storeu|lddqu)_\w+|v(ld1q?|st1q?)(_lane)?_\w+)\s*\("
        ),
    ),
]


def strip_code(line: str, in_block_comment: bool) -> tuple[str, bool]:
    """Removes comments and string/char literal contents from one line.

    Returns the stripped code and whether a /* block comment continues past the
    line. Literal contents are blanked (not removed) so column positions and
    token boundaries survive.
    """
    out = []
    i = 0
    n = len(line)
    state = "block" if in_block_comment else "code"
    while i < n:
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                break  # line comment: the allow-marker scan uses the raw line
            if c == "/" and nxt == "*":
                state = "block"
                i += 2
                continue
            if c == '"':
                state = "dquote"
                out.append(c)
            elif c == "'":
                state = "squote"
                out.append(c)
            else:
                out.append(c)
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                i += 1
        else:  # inside a literal
            quote = '"' if state == "dquote" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(c)
                i += 1
            else:
                out.append(" ")
                i += 1
    return "".join(out), state == "block"


def check_file(path: str, rel: str) -> list[str]:
    rel_posix = rel.replace(os.sep, "/")
    rules = RULES + [
        (rule, pattern)
        for prefix, rule, pattern in SCOPED_RULES
        if rel_posix.startswith(prefix)
    ]
    findings = []
    in_block = False
    carried_allows: set[str] = set()
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            code, in_block = strip_code(raw.rstrip("\n"), in_block)
            if not code.strip():
                # A marker on its own (comment) line covers the next code line.
                carried_allows |= set(ALLOW_MARKER.findall(raw))
                continue
            allowed = set(ALLOW_MARKER.findall(raw)) | carried_allows
            carried_allows = set()
            for rule, pattern in rules:
                if pattern.search(code) and rule not in allowed:
                    findings.append(
                        f"{rel}:{lineno}: {rule}: {raw.strip()}"
                    )
    return findings


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.abspath(
        argv[1] if len(argv) == 2 else os.path.join(os.path.dirname(argv[0]), "..")
    )
    findings = []
    files = 0
    for subdir in CHECKED_DIRS:
        base = os.path.join(root, subdir)
        if not os.path.isdir(base):
            print(f"error: missing directory {base}", file=sys.stderr)
            return 2
        for dirpath, _, names in sorted(os.walk(base)):
            for name in sorted(names):
                if not name.endswith(EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                files += 1
                findings.extend(check_file(path, os.path.relpath(path, root)))
    for finding in findings:
        print(finding)
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"check_conventions: {files} files in {', '.join(CHECKED_DIRS)} — {status}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
