"""Print the code lines of each module of src/preord and their total.

A code line is a non-blank line that holds a token other than a comment,
outside statements made of string literals alone (docstrings).  Lines are
read with `tokenize`, so a multi-line string or bracket counts every line
it spans.

    python tools/code_lines.py [package directory]
"""

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines of one Python source file."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                statement.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                # a statement of string literals alone is documentation
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parents[1] / "src" / "preord"
    root = Path(argv[1]) if len(argv) > 1 else default
    counts = {p.name: code_lines(p) for p in sorted(root.glob("*.py"))}
    width = max(map(len, counts), default=5)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
