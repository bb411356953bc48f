"""Count the non-blank, non-comment lines of each src/blockmark/*.py file.

Usage: python3 tools/sloc.py

A line counts unless it is empty or holds only a `#` comment; docstrings
count.  Prints one `<count> <file>` line per module, then the total.
"""
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blockmark"


def sloc(path: Path) -> int:
    lines = (line.strip() for line in path.read_text(encoding="utf-8")
             .splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main():
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = sloc(path)
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")


if __name__ == "__main__":
    main()
