#!/usr/bin/env python3
"""Rewrites an `ltc-snapshot v1` text as the `ltc-snapshot v2` text the
same session writes, to check v2 goldens against their v1 versions.

v2 differs from v1 in two places only: the header, and the decision
log. Every shard's `assignments <n>` line and its `a <worker> ...`
lines go; one `assigned <n> [<latest>]` line before `end` carries what
they sum to, their total count and their largest worker (absent when
nothing was assigned). Everything else is copied byte for byte.

Usage (reads stdin, writes stdout):

    git show b434e4a:crates/core/tests/fixtures/golden_laf_end.ltc \\
        | python3 scripts/snapshot_v1_to_v2.py \\
        | diff - crates/core/tests/fixtures/golden_laf_end.ltc

b434e4a is the last commit whose fixtures and docs/SNAPSHOT_FORMAT.md
worked example are v1. The tool is a checking aid, not a reader: the
v2 reader refuses v1 files.
"""

import sys


def convert(text: str) -> str:
    lines = text.split("\n")
    if lines[0] != "ltc-snapshot v1":
        raise SystemExit(f"not an ltc-snapshot v1 text: {lines[0]!r}")
    out = ["ltc-snapshot v2"]
    count, latest = 0, None
    for line in lines[1:]:
        word = line.split(" ", 1)[0]
        if word == "assignments":
            continue
        if word == "a":
            count += 1
            worker = int(line.split()[1])
            latest = worker if latest is None else max(latest, worker)
            continue
        if line == "end":
            out.append(f"assigned {count}" + ("" if latest is None else f" {latest}"))
        out.append(line)
    return "\n".join(out)


if __name__ == "__main__":
    sys.stdout.write(convert(sys.stdin.read()))
