"""Print the size of the package source `src/gevst` as two counts, then the
same pair for each module, in name order:

  * lines: every line of every module, as `wc -l src/gevst/*.py` totals them;
  * code lines: the lines that hold a token other than a comment, outside
    the module, class and function docstrings. Blank lines, comment-only
    lines and docstring lines do not count; a line of a statement that
    spans several lines does, as does each line of a string that is not a
    docstring.

Run from anywhere:

    python tools/src_size.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gevst"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    docs = docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main():
    paths = sorted(SRC.glob("*.py"))
    texts = [path.read_text() for path in paths]
    sizes = [(text.count("\n"), code_lines(text)) for text in texts]
    print(f"lines {sum(lines for lines, _ in sizes)}")
    print(f"code lines {sum(code for _, code in sizes)}")
    for path, (lines, code) in zip(paths, sizes):
        print(f"{path.name:<20} lines {lines:>4}  code lines {code:>4}")


if __name__ == "__main__":
    main()
