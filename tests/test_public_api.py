import contextlib
import io
import re
from pathlib import Path

import dicke_qfi

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve_and_readme_library_example_runs():
    # the documented surface: every exported name, and README's Library
    # example run as written
    missing = [name for name in dicke_qfi.__all__ if not hasattr(dicke_qfi, name)]
    assert not missing
    text = README.read_text()
    example = re.search(r"```python\n(.*?)```", text[text.index("\n## Library\n"):], re.S)[1]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(example, str(README), "exec"), {})
    assert printed.getvalue().splitlines()[0].startswith("1.057")
