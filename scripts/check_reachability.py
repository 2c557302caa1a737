#!/usr/bin/env python3
"""Reach it or remove it: every src/ header must be reachable from a workload.

    python3 scripts/check_reachability.py [repo_root]

Walks `#include "..."` from the workload sources -- bench/fig*.cpp,
bench/ablation_design_choices.cpp, examples/*.cpp and perfbench/*.cpp --
and from every .cpp next to a reached header (src/x/y.h pulls in
src/x/y.cpp).  Tests and bench/micro_* are not starting points: code that
only they include is code no workload runs.  Prints every src/ header the
walk does not reach and exits 1 if there is one.
"""

import re
import sys
from pathlib import Path

INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def resolve(name, including, root):
    """The file an #include "name" in `including` refers to, or None."""
    for base in (root / "src", root, including.parent):
        path = (base / name).resolve()
        if path.is_file():
            return path
    return None


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent).resolve()
    starts = [*root.glob("bench/fig*.cpp"), root / "bench/ablation_design_choices.cpp",
              *root.glob("examples/*.cpp"), *root.glob("perfbench/*.cpp")]
    seen = set()
    todo = [p.resolve() for p in starts if p.is_file()]
    while todo:
        path = todo.pop()
        if path in seen:
            continue
        seen.add(path)
        if path.suffix == ".h" and path.with_suffix(".cpp").is_file():
            todo.append(path.with_suffix(".cpp"))
        for name in INCLUDE.findall(path.read_text()):
            target = resolve(name, path, root)
            if target is not None:
                todo.append(target)
    unreached = sorted(str(h.relative_to(root)) for h in (root / "src").rglob("*.h")
                       if h.resolve() not in seen)
    for header in unreached:
        print(f"unreached: {header}")
    if unreached:
        print(f"{len(unreached)} src/ header(s) no fig harness, example or perfbench "
              "workload includes: give each a caller or delete it", file=sys.stderr)
        return 1
    print(f"   reachability ok: {sum(1 for p in seen if root / 'src' in p.parents)} src/ "
          f"files reached from {len(starts)} workload sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
