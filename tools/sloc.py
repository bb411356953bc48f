"""Count the non-blank, non-comment lines of each src/blockmark/*.py file,
and the settable values of the package.

Usage: python3 tools/sloc.py

A line counts unless it is empty or holds only a `#` comment; docstrings
count.  Prints one `<count> <file>` line per module, then the total, then
the number of settable values: every function and method parameter except
`self` and `cls`, every field of a `@dataclass`, and every `add_argument`
call.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blockmark"


def sloc(path: Path) -> int:
    lines = (line.strip() for line in path.read_text(encoding="utf-8")
             .splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable(path: Path) -> int:
    count = 0
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                      *filter(None, (a.vararg, a.kwarg))]
            count += sum(p.arg not in ("self", "cls") for p in params)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "add_argument":
            count += 1
    return count


def main():
    total = values = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = sloc(path)
        total += count
        values += settable(path)
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")
    print(f"{values:5d} settable values")


if __name__ == "__main__":
    main()
