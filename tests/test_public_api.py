import contextlib
import io
import re
import shlex
from pathlib import Path

import dicke_qfi
from dicke_qfi.cli import (
    CONVERGENCE_COLUMNS,
    HUSIMI_COLUMNS,
    SCALING_COLUMNS,
    SWEEP_COLUMNS,
    THERMO_COLUMNS,
    main,
)

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


def test_readme_command_examples_run(tmp_path):
    # README's Command line examples, each run as written but for its --out,
    # which goes to a file of the same name under tmp_path
    text = README.read_text()
    block = re.search(r"```sh\n(.*?)```", text[text.index("\n## Command line\n"):], re.S)[1]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert {argv[0] for argv in commands} == {"dicke-qfi"}
    assert {argv[1] for argv in commands} == {"sweep", "thermo", "husimi", "scaling",
                                              "convergence"}
    for _, *argv in commands:
        out = argv.index("--out") + 1
        argv[out] = str(tmp_path / argv[out])
        assert main(argv) == 0, argv
        assert Path(argv[out]).stat().st_size > 0


def test_readme_lists_each_table_s_columns_in_order():
    # README's Output conventions restate every table's header; each list must
    # match the CLI's declaration name for name
    text = README.read_text()
    listed = {mode: tuple(name.strip() for name in names.split(","))
              for mode, names in re.findall(r"^- `(\w+)` (?:CSV )?columns: `([^`]*)`", text, re.M)}
    assert listed == {"sweep": SWEEP_COLUMNS, "thermo": THERMO_COLUMNS,
                      "scaling": SCALING_COLUMNS, "convergence": CONVERGENCE_COLUMNS,
                      "husimi": HUSIMI_COLUMNS}
