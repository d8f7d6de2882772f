"""Count the lines of each ``src/grapy/`` module, as ROADMAP.md tracks them.

A line counts unless it is blank or its first non-space character is ``#``;
docstrings count. Prints one ``<lines> <module>`` row per module, then the
subtotal of the training loop and its commands (``cli.py``, ``model.py``,
``mutual.py``), then the total. Run from anywhere: ``python
tools/count_lines.py``; to count another tree, run that checkout's copy.
"""

from __future__ import annotations

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "grapy"
LOOP = ("cli.py", "model.py", "mutual.py")


def counted_lines(path: Path) -> int:
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def main() -> None:
    counts = {p.name: counted_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    for name, n in counts.items():
        print(f"{n:5d} {name}")
    print(f"{sum(counts[name] for name in LOOP):5d} {' + '.join(LOOP)}")
    print(f"{sum(counts.values()):5d} total")


if __name__ == "__main__":
    main()
