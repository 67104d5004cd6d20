"""The demos run to the end as scripts, and the README's Python blocks run in
order, so the package's declared top level cannot drift from the document.

``subspace_pipeline.py`` is left out: it takes about 12 s, and acceptance
criterion 08 runs the same pipeline at a larger size.
"""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", ["bell_covariant", "bft_calibration",
                                  "entangler_layouts", "theory_checks"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    printed = capsys.readouterr().out
    assert printed
    assert "BROKEN" not in printed
    if name == "theory_checks":
        assert "(ok)" in printed


def test_readme_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.startswith("test accuracy:")
    m = len(namespace["train"].labels)
    assert namespace["k_train"].values.shape == (m, m)
