#!/usr/bin/env python3
"""Compare two campaign manifests byte for byte, wall_seconds aside.

wall_seconds is the one manifest field that differs between runs of the
same campaign; every other byte must match.  Exits 1 (naming both files)
when the masked manifests differ.

Usage: compare_manifests.py A.jsonl B.jsonl
"""
import re
import sys


def masked(path):
    with open(path) as f:
        return re.sub(r'("wall_seconds":)[^,}]*', r'\1X', f.read())


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    a, b = argv[1], argv[2]
    if masked(a) != masked(b):
        print(f"campaign manifests differ: {a} vs {b} (wall_seconds masked)",
              file=sys.stderr)
        return 1
    print(f"campaign manifests identical: {a} vs {b} (wall_seconds masked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
