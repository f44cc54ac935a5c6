"""The README's library tour runs and shows the values its comments state."""

from enum import Enum
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_block():
    text = README.read_text(encoding="utf-8")
    after = text.split("## Library tour", 1)[1]
    return after.split("```python\n", 1)[1].split("```", 1)[0]


def stated_value(text):
    """A tour comment's value: a Python expression, or a bare verdict name."""
    try:
        return eval(text, {"Fraction": Fraction})
    except NameError:
        return text


def test_library_tour_shows_the_stated_values():
    block = tour_block()
    namespace = {}
    exec(block, namespace)
    claims = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment and "=" not in code and code.strip():
            claims.append((code.strip(), comment.split(":")[0].strip()))
    assert [stated for _, stated in claims] == [
        "DoesNotInterlace",
        "(1, 'upper')",
        "Fraction(-1)",
        "'Consistent'",
        "True",
        "Interlaces",
    ]
    for code, stated in claims:
        value = eval(code, namespace)
        if isinstance(value, Enum):
            value = value.value
        assert value == stated_value(stated), code
