"""Every ``examples/*.py`` script runs clean, in-process, within 2 s."""

import pathlib
import runpy
import time

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, capsys):
    start = time.perf_counter()
    runpy.run_path(str(script), run_name="__main__")
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out
    assert elapsed <= 2.0, f"{script.name} took {elapsed:.2f} s"
