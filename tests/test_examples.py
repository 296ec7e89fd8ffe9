"""Every ``examples/*.py`` script runs clean, in-process, doing a fixed
amount of endpoint work.

The work is what the scripts ask of their endpoints — SELECTs, ASKs and
the body rows folded by grouped aggregation — summed over every endpoint
a script opens.  The counts are exact and machine-independent: a change
that makes an example do more (or less) work fails here on any machine,
and the committed values change only with a reason.
"""

import pathlib
import runpy

import pytest

from repro.store import Endpoint

EXAMPLES = sorted((pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py"))

#: (SELECTs, ASKs, aggregate_rows) per example.
EXPECTED_WORK = {
    "advanced_features": (32, 100, 56995),
    "asylum_exploration": (26, 12, 45353),
    "dbpedia_worst_case": (53, 71, 18000),
    "production_analysis": (27, 23, 41521),
    "quickstart": (25, 21, 28000),
}


def test_examples_are_found():
    assert len(EXAMPLES) >= 5
    assert {script.stem for script in EXAMPLES} == set(EXPECTED_WORK)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, capsys, monkeypatch):
    opened = []
    init = Endpoint.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        opened.append(self)

    monkeypatch.setattr(Endpoint, "__init__", recording_init)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
    work = tuple(
        sum(getattr(endpoint.stats, counter) for endpoint in opened)
        for counter in ("select_queries", "ask_queries", "aggregate_rows")
    )
    assert work == EXPECTED_WORK[script.stem]
