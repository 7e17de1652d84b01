"""Count the lines of a source tree: physical and code-only.

Code-only lines hold a token other than a comment, a newline or an
indent, and are not part of a module, class or function docstring.

    python tools/src_loc.py [ROOT]    # ROOT defaults to the repo's src/
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(text: str) -> tuple[int, int]:
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in BLANK:
            code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, False):
            first = node.body[0]
            code.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(text.splitlines()), len(code)


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1
                else Path(__file__).resolve().parent.parent / "src")
    totals = [count(path.read_text(encoding="utf-8"))
              for path in sorted(root.rglob("*.py"))]
    print(f"physical lines:  {sum(t[0] for t in totals):,}")
    print(f"code-only lines: {sum(t[1] for t in totals):,}")
