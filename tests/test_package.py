import ast
from pathlib import Path

import midlayer

README = Path(__file__).resolve().parents[1] / "README.md"


def test_namespace_holds_the_names_callers_import():
    names = ["build", "format_sequence", "parse_sequence", "spectrum", "verify_two_factor"]
    assert sorted(midlayer.__all__) == names
    assert all(callable(getattr(midlayer, name)) for name in names)


def test_readme_library_snippet_gives_what_its_comments_say():
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if isinstance(ast.parse(code).body[0], ast.Expr):
            # the comment starts with the value, then an optional " — note"
            expected = ast.literal_eval(comment.split(" — ")[0].strip())
            assert eval(code, scope) == expected, line
            checked.append(expected)
        else:
            exec(code, scope)
    assert checked == [{70: 1}, True]
