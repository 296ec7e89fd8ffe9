"""The JSON session API: exploration steps over the wire.

Each HTTP session is one :class:`~repro.serving.service.ManagedSession`
entry of the shared :class:`~repro.serving.service.QueryService`'s
session table and belongs to one tenant — a session id never resolves for
another tenant, so one analyst's exploration state is invisible to the
next.

Steps arrive as JSON ``{"action": ..., ...}`` documents and are executed
under a per-session lock (an exploration is a sequential dialogue; two
concurrent steps on one session would interleave its state).  The
response carries the session's resilience verdict verbatim: ``ok``,
``degraded`` (REOLAP lost probes to endpoint faults and returned a
partial answer), and the absorbed error message, so a remote client sees
exactly what an in-process driver would.
"""

from __future__ import annotations

from ..core.olap_query import OLAPQuery
from ..core.session import StepOutcome
from ..serving.service import ManagedSession
from ..sparql.results import ResultSet, binding_json
from .http import HTTPError

__all__ = ["run_step", "session_state"]


# -- JSON shapes -------------------------------------------------------------


def _query_json(query: OLAPQuery) -> dict:
    return {"description": query.description, "sparql": query.sparql()}


def _results_json(results: ResultSet) -> dict:
    names = [variable.name for variable in results.variables]
    return {
        "vars": names,
        "size": len(results),
        "bindings": [
            {name: binding_json(value)
             for name, value in zip(names, row) if value is not None}
            for row in results.rows
        ],
    }


def _candidates_json(candidates: list[OLAPQuery]) -> list[dict]:
    return [
        {"index": index, **_query_json(candidate)}
        for index, candidate in enumerate(candidates)
    ]


def _menu_json(kind: str, proposals: list) -> list[dict]:
    return [
        {"index": index, "kind": kind, "explanation": proposal.explanation}
        for index, proposal in enumerate(proposals)
    ]


def _outcome_json(outcome: StepOutcome) -> dict:
    return {
        "action": outcome.action,
        "ok": outcome.ok,
        "degraded": outcome.degraded,
        "error": outcome.error,
    }


def run_step(managed: ManagedSession, payload: dict) -> dict:
    """Execute one step document against a managed session; blocking.

    Runs on a serving worker thread (from the tenant's lane); the
    per-session lock serializes steps of one dialogue.
    Endpoint faults are absorbed by the session's resilience contract and
    reported in the outcome; malformed step documents raise
    :class:`HTTPError` (→ 400) before touching the session.
    """
    action = payload.get("action")
    if not isinstance(action, str):
        raise HTTPError(400, "step document needs a string 'action' field")
    with managed.lock:
        session = managed.session
        if action == "synthesize":
            values = payload.get("values")
            if (not isinstance(values, list) or not values
                    or not all(isinstance(v, str) for v in values)):
                raise HTTPError(
                    400, "synthesize needs 'values': a non-empty string list")
            outcome = session.step("synthesize", *values)
            managed.proposals.clear()
            document = _outcome_json(outcome)
            document["candidates"] = _candidates_json(outcome.value or [])
            if session.last_report is not None:
                document["probe_failures"] = session.last_report.probe_failures
            managed.steps_taken += 1
            return document
        if action == "choose":
            index = payload.get("index")
            if not isinstance(index, int) or isinstance(index, bool):
                raise HTTPError(400, "choose needs an integer 'index' field")
            outcome = session.step("choose", index)
            document = _outcome_json(outcome)
            if outcome.ok and outcome.value is not None:
                document["query"] = _query_json(session.query)
                document["results"] = _results_json(outcome.value)
            managed.steps_taken += 1
            return document
        if action in ("refinements", "all_refinements"):
            if action == "refinements":
                kind = payload.get("kind")
                if not isinstance(kind, str):
                    raise HTTPError(400, "refinements needs a string 'kind'")
                outcome = session.step("refinements", kind)
                menus = {kind: outcome.value or []}
            else:
                outcome = session.step("all_refinements")
                menus = outcome.value or {}
            document = _outcome_json(outcome)
            document["refinements"] = {}
            for kind, proposals in menus.items():
                managed.proposals[kind] = list(proposals)
                document["refinements"][kind] = _menu_json(kind, proposals)
            managed.steps_taken += 1
            return document
        if action == "apply":
            kind = payload.get("kind")
            index = payload.get("index")
            if not isinstance(kind, str):
                raise HTTPError(400, "apply needs a string 'kind' field")
            if not isinstance(index, int) or isinstance(index, bool):
                raise HTTPError(400, "apply needs an integer 'index' field")
            proposals = managed.proposals.get(kind)
            if proposals is None:
                menu = session.step("refinements", kind)
                proposals = menu.value or []
                managed.proposals[kind] = list(proposals)
            if not 0 <= index < len(proposals):
                raise HTTPError(
                    400,
                    f"refinement index {index} out of range "
                    f"(the {kind!r} menu has {len(proposals)} entries)",
                )
            outcome = session.step(
                "apply", proposals[index], options_offered=len(proposals))
            document = _outcome_json(outcome)
            if outcome.ok and outcome.value is not None:
                document["query"] = _query_json(session.query)
                document["results"] = _results_json(outcome.value)
                managed.proposals.clear()
            managed.steps_taken += 1
            return document
        if action == "back":
            outcome = session.step("back")
            document = _outcome_json(outcome)
            if outcome.ok and outcome.value is not None:
                managed.proposals.clear()
                document["query"] = _query_json(outcome.value.query)
            managed.steps_taken += 1
            return document
    raise HTTPError(
        400,
        f"unknown action {action!r}; expected synthesize, choose, "
        "refinements, all_refinements, apply, or back",
    )


def session_state(managed: ManagedSession) -> dict:
    """The GET /sessions/{id} document."""
    with managed.lock:
        session = managed.session
        steps = [
            {
                "kind": step.kind,
                "description": step.query.description,
                "n_tuples": step.n_tuples,
                "options_offered": step.options_offered,
                "elapsed": step.elapsed,
            }
            for step in session.history
        ]
        failures = [
            {"kind": failure.kind, "error": failure.error,
             "error_type": failure.error_type}
            for failure in session.failures
        ]
        current = None
        if steps:
            current = _query_json(session.query)
        return {
            "session": managed.id,
            "tenant": managed.tenant,
            "observation_class": managed.observation_class,
            "steps_taken": managed.steps_taken,
            "steps": steps,
            "failures": failures,
            "degraded_steps": len(failures),
            "current": current,
        }
