"""`tools/reach.py` on a tiny package: one statement reached, one not."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"


def test_reach_counts_a_reached_and_an_unreached_statement(tmp_path):
    package = tmp_path / "tiny"
    package.mkdir()
    (package / "__init__.py").write_text(
        "def double(x):\n"
        '    """A docstring compiles to no code, so it is not counted."""\n'
        "    return 2 * x\n"
        "\n"
        "\n"
        "TWO = double(1)  # module level, not counted; runs double's body at import\n"
        "\n"
        "\n"
        "def never():\n"
        "    return 0\n"
    )
    # A conftest imports the package before any session hook runs, as the
    # suite's own conftest imports lexgate.
    (tmp_path / "conftest.py").write_text("import tiny  # noqa: F401\n")
    (tmp_path / "test_tiny.py").write_text("import tiny\n\n\ndef test_two():\n    assert tiny.TWO == 2\n")
    run = subprocess.run(
        [sys.executable, str(TOOL), "--label", "tiny", "--source", str(package), "--out-dir", str(tmp_path),
         "--", "-q", "-p", "no:cacheprovider", "test_tiny.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    result = json.loads((tmp_path / "REACH_tiny.json").read_text())
    # The hook is in place before the package is first imported, so the
    # body that runs at import counts as reached.
    assert (result["pytest_exit"], result["statements"], result["reached"], result["unreached"]) == (0, 2, 1, 1)
    assert result["unreached_lines"] == {"__init__.py": [10]}
