"""Line counts of the ordq package, per module and in total.

Two counts per module: lines as `wc -l` counts them (newline characters),
and code lines, the lines that hold a token other than a comment or layout,
less the module, class and function docstrings.  The last line gives the
code lines an ordinal run compiles: those of the ordq modules loaded after
an in-process `ordq run` of the shipped scenario.

    python3 tools/line_count.py
"""

import ast
import contextlib
import glob
import io
import os
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: bytes) -> int:
    lines = {n for t in tokenize.tokenize(io.BytesIO(source).readline)
             if t.type not in LAYOUT for n in range(t.start[0], t.end[0] + 1)}
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, DOCSTRING_OWNERS)
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ROOT = os.path.join(SRC, "ordq")


def ordinal_run_line() -> str:
    sys.path.insert(0, SRC)
    from ordq import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["run", os.path.join(ROOT, "scenarios", "nextcard_suite.json")])
    names = sorted(n for n in sys.modules if n == "ordq" or n.startswith("ordq."))
    total = 0
    for name in names:
        with open(sys.modules[name].__file__, "rb") as f:
            total += code_lines(f.read())
    return f"an ordinal run compiles {total} code lines: {' '.join(names)}"


def main() -> None:
    rows = []
    for path in sorted(glob.glob(os.path.join(ROOT, "*.py"))):
        with open(path, "rb") as f:
            source = f.read()
        rows.append((os.path.basename(path), source.count(b"\n"), code_lines(source)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'wc -l':>7}{'code':>7}")
    for name, wc, code in rows:
        print(f"{name:<16}{wc:>7}{code:>7}")
    print(ordinal_run_line())


if __name__ == "__main__":
    main()
