#!/usr/bin/env python3
"""Compare two directories of BENCH_*.json artifacts, ignoring host fields.

Every BENCH_<name>.json in DIR_A must have a twin in DIR_B (and vice
versa) whose content is identical once the host-only keys are dropped
at any depth: host, host_wall_ms, git_sha, compiler, build_flags,
threads. These describe the machine and the build, not the simulated
system, so a refactor may move them; anything else that moves is a
behaviour change.

Usage: scripts/compare_artifacts.py DIR_A DIR_B
Prints the first differing dotted path of each differing artifact.
Exit status: 0 identical, 1 a difference, 2 usage error.
"""

import json
import sys
from pathlib import Path

HOST_KEYS = frozenset(
    ("host", "host_wall_ms", "git_sha", "compiler", "build_flags", "threads")
)


def strip_host(value):
    """The artifact with every host-only key removed, recursively."""
    if isinstance(value, dict):
        return {k: strip_host(v) for k, v in value.items() if k not in HOST_KEYS}
    if isinstance(value, list):
        return [strip_host(v) for v in value]
    return value


def first_difference(a, b, path=""):
    """Dotted path of the first place a and b differ, or None."""
    if type(a) is not type(b):
        return path or "<root>"
    if isinstance(a, dict):
        for key in sorted(a.keys() | b.keys()):
            child = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                return child
            found = first_difference(a[key], b[key], child)
            if found is not None:
                return found
        return None
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}.{i}" if path else str(i))
            if found is not None:
                return found
        if len(a) != len(b):
            return f"{path}.{min(len(a), len(b))}" if path else "<root>"
        return None
    return None if a == b else (path or "<root>")


def main(argv):
    if len(argv) != 3:
        print("usage: compare_artifacts.py DIR_A DIR_B", file=sys.stderr)
        return 2
    dirs = [Path(d) for d in argv[1:]]
    for d in dirs:
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    names = [{p.name for p in d.glob("BENCH_*.json")} for d in dirs]
    if not names[0] and not names[1]:
        print("no BENCH_*.json artifacts in either directory", file=sys.stderr)
        return 2

    differing = 0
    for name in sorted(names[0] ^ names[1]):
        side = dirs[0] if name in names[0] else dirs[1]
        print(f"{name}: only in {side}")
        differing += 1
    for name in sorted(names[0] & names[1]):
        a, b = (strip_host(json.loads((d / name).read_text())) for d in dirs)
        path = first_difference(a, b)
        if path is not None:
            print(f"{name}: differs at {path}")
            differing += 1

    total = len(names[0] | names[1])
    if differing:
        print(f"{differing} of {total} artifacts differ")
        return 1
    print(f"identical apart from host fields: {total} artifacts")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
