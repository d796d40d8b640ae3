"""List the JSON fields and other files that differ between two replay trees.

    python3 tools/diff_replay.py OLD_DIR NEW_DIR

The trees are the ``--out`` directories of two ``tools/replay_digest.py``
runs (one per checkout, each copied aside before the other run reuses
the path). Prints one line per difference: a file found in one tree
only, a non-JSON file (a CSV, say) whose bytes differ, or a key path of
a JSON file whose value differs (``residuals.closed_form``,
``stacked_rank.singular_values[2]``). A summary follows that counts the
differing files per file name and key path, list indices dropped, so
"only ``residuals.closed_form`` changed" reads off one line. Exits 1
when anything differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import defaultdict
from pathlib import Path


def json_diffs(old, new, path=""):
    """Key paths under ``path`` whose values differ between two parsed JSON values."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in old or key not in new:
                yield sub
            else:
                yield from json_diffs(old[key], new[key], sub)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from json_diffs(a, b, f"{path}[{i}]")
    elif old != new or type(old) is not type(new):
        yield path


def tree_diffs(old_dir, new_dir):
    """(relative file, key path or None) for every difference between the trees."""
    files = {p.relative_to(root) for root in (old_dir, new_dir)
             for p in root.rglob("*") if p.is_file()}
    for rel in sorted(files):
        old, new = old_dir / rel, new_dir / rel
        if not (old.is_file() and new.is_file()):
            yield str(rel), "only in " + ("OLD" if old.is_file() else "NEW")
            continue
        old_bytes, new_bytes = old.read_bytes(), new.read_bytes()
        if old_bytes == new_bytes:
            continue
        if rel.suffix == ".json":
            for key in json_diffs(json.loads(old_bytes), json.loads(new_bytes)):
                yield str(rel), key
        else:
            yield str(rel), None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    summary = defaultdict(set)
    for rel, key in tree_diffs(args.old, args.new):
        print(rel if key is None else f"{rel}\t{key}")
        summary[(Path(rel).name, re.sub(r"\[\d+\]", "[]", key or "(bytes)"))].add(rel)
    for (name, key), files in sorted(summary.items()):
        print(f"summary\t{name}\t{key}\t{len(files)} files")
    return 1 if summary else 0


if __name__ == "__main__":
    sys.exit(main())
