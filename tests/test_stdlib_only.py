"""The library stays stdlib-only: importing it pulls in no third-party module."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
sys.path.insert(0, {src!r})
import interlacekit
import interlacekit.cli
allowed = set(sys.stdlib_module_names) | {{"interlacekit", "__main__"}}
print(*sorted({{name.partition(".")[0] for name in sys.modules}} - allowed))
"""


def test_package_imports_only_stdlib():
    # -S skips site, so no installed package can be imported as a side
    # effect of start-up; only what interlacekit itself imports shows.
    result = subprocess.run(
        [sys.executable, "-S", "-c", PROBE.format(src=str(SRC))],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == []
