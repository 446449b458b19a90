#!/usr/bin/env python3
"""Counts the code lines of the library sources under src/.

A code line is a non-blank line of a .hpp or .cpp file under src/ whose
first non-space characters are not `//`. Lines inside block comments and
code lines with a trailing comment count as code.

Prints one line per subsystem directory (src/<dir>/), then the total, so a
change's effect on the size of the library is one command away:

    python3 tools/src_code_lines.py [--root PATH]

`--root` is the repository root (default: the parent of this script's
directory).
"""

import argparse
import collections
import pathlib


def code_lines(path):
    count = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            stripped = line.strip()
            if stripped and not stripped.startswith("//"):
                count += 1
    return count


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent)
    args = parser.parse_args()

    src = args.root / "src"
    per_dir = collections.Counter()
    for path in sorted(src.rglob("*")):
        if path.suffix in (".hpp", ".cpp") and path.is_file():
            rel = path.relative_to(src)
            subsystem = rel.parts[0] if len(rel.parts) > 1 else "."
            per_dir[subsystem] += code_lines(path)

    for subsystem in sorted(per_dir):
        print(f"{subsystem:<12} {per_dir[subsystem]:>7}")
    print(f"{'total':<12} {sum(per_dir.values()):>7}")


if __name__ == "__main__":
    main()
