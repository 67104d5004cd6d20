"""The demos run to the end as scripts.

``subspace_pipeline.py`` is left out: it takes about 12 s, and acceptance
criterion 08 runs the same pipeline at a larger size.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["bell_covariant", "bft_calibration",
                                  "entangler_layouts", "theory_checks"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    printed = capsys.readouterr().out
    assert printed
    assert "BROKEN" not in printed
    if name == "theory_checks":
        assert "(ok)" in printed
