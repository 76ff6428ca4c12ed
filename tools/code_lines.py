"""Count the code lines of Python modules: non-blank lines outside comments
and docstrings.

    python tools/code_lines.py [DIR_OR_FILE ...]    # default: src/gnarlib

Prints one line per module and then the total.  A line counts when a token
other than a comment or a line break starts on it or a multi-line token
(a string) spans it; the lines of a module, class or function docstring
never count.
"""

import ast
import io
import pathlib
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(args: list[str]) -> None:
    files = []
    for arg in args or ["src/gnarlib"]:
        path = pathlib.Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
