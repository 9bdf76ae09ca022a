#!/usr/bin/env python3
"""Rewrites an `ltc-snapshot v2` text as the `ltc-snapshot v3` text the
same session writes, to check v3 goldens against their v2 versions.

v3 keeps the live tasks only. It differs from v2 in four places:

* the header;
* `taskmap <n> <shard ...>` becomes `posted <n>`;
* each shard line loses its third token (the always-0
  `<next_arrival>`) and counts the shard's live tasks;
* each shard section gains an `ids` line (its live task ids, which the
  task map gave in v2) before `tasks`, keeps the `tasks` and `quality`
  entries of its live tasks only, and loses its `completed` bitstring.

Everything else, the `accuracy` line included (a table already keeps a
row per posted task, keyed by id), is copied byte for byte.

Usage (reads stdin, writes stdout):

    git show 1c8e96e:crates/core/tests/fixtures/golden_laf_end.ltc \\
        | python3 scripts/snapshot_v2_to_v3.py \\
        | diff - crates/core/tests/fixtures/golden_laf_end.ltc

1c8e96e is the last commit whose fixtures and docs/SNAPSHOT_FORMAT.md
worked example are v2. The v3 reader refuses v2 files; a v2 text
converted with this tool reads and continues exactly.
"""

import sys


def convert(text: str) -> str:
    lines = text.split("\n")
    if lines[0] != "ltc-snapshot v2":
        raise SystemExit(f"not an ltc-snapshot v2 text: {lines[0]!r}")
    out = ["ltc-snapshot v3"]
    owners = []
    section = None
    for line in lines[1:]:
        words = line.split(" ")
        if words[0] == "taskmap":
            owners = [int(s) for s in words[2:]]
            out.append(f"posted {words[1]}")
        elif words[0] == "shard":
            if words[3] != "0":
                raise SystemExit(f"a shard's <next_arrival> is not 0: {line!r}")
            section = {"shard": words, "id": int(words[1])}
        elif words[0] in ("tasks", "quality"):
            section[words[0]] = words[1:]
        elif words[0] == "completed":
            live = [c == "0" for c in words[1]]
            ids = [t for t, s in enumerate(owners) if s == section["id"]]
            shard = section["shard"]
            out.append(" ".join([shard[0], shard[1], str(sum(live))] + shard[4:]))
            out.append(" ".join(["ids"] + [str(t) for t, l in zip(ids, live) if l]))
            xy = section["tasks"]
            kept = [w for i, l in enumerate(live) if l for w in xy[2 * i:2 * i + 2]]
            out.append(" ".join(["tasks"] + kept))
            quality = [q for q, l in zip(section["quality"], live) if l]
            out.append(" ".join(["quality"] + quality))
            section = None
        else:
            out.append(line)
    return "\n".join(out)


if __name__ == "__main__":
    sys.stdout.write(convert(sys.stdin.read()))
