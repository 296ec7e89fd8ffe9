"""The two clients that walk a script: in-process and over HTTP.

Both expose the same four calls (``synthesize``, ``choose``, ``refine``,
``export``), each returning a timed :class:`Step`; :func:`script_steps`
walks one script through either of them and checks every answer.  A step
fails on an exception, ``ok=false``/``degraded``, an HTTP status other than
2xx, or a violated invariant.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import subprocess
import sys
import time
import urllib.parse
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from . import checks
from .spec import HTTP_POOL, SCRIPT_KINDS, SRC


@dataclass
class Step:
    kind: str
    seconds: float
    ok: bool
    rows: int = 0
    note: str = ""
    script: int = -1
    slot: int = -1  # position in synthesize, choose, SCRIPT_KINDS
    attempt: int = 0  # choose: candidates looked at before this one
    nbytes: int = 0  # HTTP response bodies
    digest: str = ""  # canonical (order-free) digest of the answer
    body_digest: str = ""  # HTTP: digest of the raw response bodies
    propose_seconds: float = 0.0
    started: float = 0.0  # perf_counter when the step was sent
    explanation: str = ""
    query: object = None  # SelectQuery (in-process) or SPARQL text (HTTP)
    table: checks.Table | None = field(default=None, repr=False)

    def fail(self, note: str) -> None:
        self.ok = False
        self.note = self.note or note


@contextmanager
def _no_span(_name):
    yield None


# -- in-process ---------------------------------------------------------------


class _Session:
    """What both clients share: spans only when a tracer was given."""

    def __init__(self, tracer=None):
        self._tracer = tracer
        self._span = tracer.span if tracer is not None else _no_span

    def at(self, slot: int) -> None:
        """The script position the next spans belong to."""
        if self._tracer is not None:
            self._tracer.step = slot


class InprocSession(_Session):
    """One ``ExplorationSession`` driven through its never-raising ``step``."""

    def __init__(self, endpoint, vgraph, tracer=None):
        from repro.core import ExplorationSession

        super().__init__(tracer)
        self._session = ExplorationSession(endpoint, vgraph)

    def _answer(self, kind, started, outcome, **extra) -> Step:
        seconds = time.perf_counter() - started
        step = Step(kind, seconds, outcome.ok and not outcome.degraded,
                    note=outcome.error or "", started=started, **extra)
        if step.ok and outcome.value is not None:
            step.rows = len(outcome.value)
            step.table = checks.Table.from_result_set(outcome.value)
            step.query = self._session.query.to_select()
        return step

    def synthesize(self, example) -> Step:
        with self._span("step:synthesize"):
            started = time.perf_counter()
            with self._span("core.reolap.synthesize"):
                outcome = self._session.step("synthesize", *example)
            seconds = time.perf_counter() - started
        return Step("synthesize", seconds, outcome.ok and not outcome.degraded,
                    rows=len(outcome.value or ()), note=outcome.error or "",
                    started=started)

    def choose(self, pick: int) -> Step:
        with self._span("step:choose"):
            started = time.perf_counter()
            with self._span("core.session.choose"):
                outcome = self._session.step("choose", pick)
            return self._answer("choose", started, outcome)

    def refine(self, kind: str, pick: int) -> Step | None:
        with self._span(f"step:{kind}"):
            started = time.perf_counter()
            with self._span(f"core.refine.{kind}.propose"):
                menu = self._session.step("refinements", kind)
            proposed = time.perf_counter() - started
            if not menu.ok:
                return Step(kind, proposed, False, started=started,
                            note=menu.error or "menu failed")
            if not menu.value:
                return None
            chosen = menu.value[pick % len(menu.value)]
            with self._span(f"core.refine.{kind}.apply"):
                outcome = self._session.step(
                    "apply", chosen, options_offered=len(menu.value))
            return self._answer(kind, started, outcome,
                                propose_seconds=proposed,
                                explanation=chosen.explanation)

    def export(self, _step: Step) -> Step | None:
        return None  # nothing to re-fetch in-process

    def close(self) -> None:
        pass


# -- over HTTP ----------------------------------------------------------------


class HttpClient:
    """One keep-alive connection speaking for one tenant."""

    def __init__(self, host: str, port: int, tenant: str):
        self._headers = {"X-Repro-Tenant": tenant}
        self._connection = http.client.HTTPConnection(host, port, timeout=120)

    def request(self, method: str, path: str, document: dict | None = None,
                accept: str | None = None) -> tuple[int, bytes, float]:
        headers = dict(self._headers)
        body = None
        if document is not None:
            body = json.dumps(document).encode()
            headers["Content-Type"] = "application/json"
        if accept:
            headers["Accept"] = accept
        started = time.perf_counter()
        self._connection.request(method, path, body=body, headers=headers)
        response = self._connection.getresponse()
        payload = response.read()
        return response.status, payload, time.perf_counter() - started

    def close(self) -> None:
        self._connection.close()


class HttpSession(_Session):
    """One ``/sessions/{id}`` exploration; same surface as InprocSession."""

    def __init__(self, client: HttpClient, tracer=None):
        super().__init__(tracer)
        self._client = client
        status, body, _ = client.request("POST", "/sessions", {})
        if status != 201:
            raise RuntimeError(f"POST /sessions -> {status}: {body[:200]!r}")
        self._steps = f"/sessions/{json.loads(body)['session']}/steps"
        self._path = self._steps[: -len("/steps")]

    def _post(self, document: dict) -> tuple[bool, dict, bytes, float]:
        status, body, seconds = self._client.request("POST", self._steps, document)
        if status != 200:
            return False, {"error": f"HTTP {status}: {body[:200]!r}"}, body, seconds
        answer = json.loads(body)
        return bool(answer["ok"]) and not answer["degraded"], answer, body, seconds

    def _answer(self, kind, ok, answer, body, seconds, **extra) -> Step:
        step = Step(kind, seconds, ok, note=str(answer.get("error") or ""),
                    nbytes=len(body), started=time.perf_counter() - seconds,
                    body_digest=hashlib.blake2b(body, digest_size=12).hexdigest(),
                    **extra)
        if ok and "results" in answer:
            step.rows = answer["results"]["size"]
            step.table = checks.Table.from_json(answer["results"])
            step.query = answer["query"]["sparql"]
        return step

    def synthesize(self, example) -> Step:
        with self._span("step:synthesize"):
            ok, answer, body, seconds = self._post(
                {"action": "synthesize", "values": list(example)})
        step = self._answer("synthesize", ok, answer, body, seconds)
        step.rows = len(answer.get("candidates", ()))
        return step

    def choose(self, pick: int) -> Step:
        with self._span("step:choose"):
            ok, answer, body, seconds = self._post(
                {"action": "choose", "index": pick})
        return self._answer("choose", ok, answer, body, seconds)

    def refine(self, kind: str, pick: int) -> Step | None:
        with self._span(f"step:{kind}"):
            ok, menu, body, proposed = self._post(
                {"action": "refinements", "kind": kind})
            if not ok:
                return self._answer(kind, False, menu, body, proposed)
            entries = menu["refinements"][kind]
            if not entries:
                return None
            entry = entries[pick % len(entries)]
            ok, answer, body, applied = self._post(
                {"action": "apply", "kind": kind, "index": entry["index"]})
        return self._answer(kind, ok, answer, body, proposed + applied,
                            propose_seconds=proposed,
                            explanation=entry["explanation"])

    def export(self, step: Step) -> Step | None:
        """Re-fetch the step's query as CSV through the SPARQL protocol."""
        if not step.ok or not isinstance(step.query, str):
            return None
        path = "/sparql?" + urllib.parse.urlencode({"query": step.query})
        with self._span("step:export"):
            status, body, seconds = self._client.request(
                "GET", path, accept="text/csv")
        export = Step("export", seconds, status == 200, nbytes=len(body),
                      started=time.perf_counter() - seconds,
                      body_digest=hashlib.blake2b(body, digest_size=12).hexdigest())
        if status != 200:
            export.fail(f"HTTP {status}: {body[:200]!r}")
        elif body.count(b"\n") != step.rows + 1:
            lines = body.count(b"\n") - 1
            export.fail(f"CSV has {lines} rows, step had {step.rows}")
        export.rows = step.rows
        return export

    def close(self) -> None:
        self._client.request("DELETE", self._path)


class ServerChild:
    """A ``repro serve --snapshot FILE --port 0`` subprocess.

    The child serves until its stdin reaches EOF, so it ends when this
    process does, however this process ends; :meth:`stop` closes the pipe,
    waits, and kills only if the clean shutdown does not finish.
    """

    def __init__(self, snapshot: str, env: dict):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--snapshot", snapshot,
             "--port", "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
        self.host, self.port = "127.0.0.1", 0

    def wait_ready(self) -> None:
        for line in self.process.stdout:
            if line.startswith("serving SPARQL at http://"):
                address = line.split("http://", 1)[1].split("/", 1)[0]
                self.host, port = address.rsplit(":", 1)
                self.port = int(port)
                return
        raise RuntimeError("repro serve ended before it was ready")

    def _proc(self, name: str) -> str:
        with open(f"/proc/{self.process.pid}/{name}", encoding="ascii") as handle:
            return handle.read()

    def peak_rss_mb(self) -> float:
        for line in self._proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        fields = self._proc("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        process = self.process
        if process.poll() is None:
            try:
                process.stdin.close()
                process.wait(timeout=30)
            except (subprocess.TimeoutExpired, OSError):
                process.kill()
        process.wait()
        process.stdout.close()

    def __enter__(self) -> "ServerChild":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def child_env() -> dict:
    """Environment of every child: the source tree, a pinned hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


# -- walking one script ---------------------------------------------------------


def script_steps(session, script: dict, accept: dict, *, exact_resum: bool,
                 invariants: bool = True) -> Iterator[Step]:
    """Run one script step by step, yielding every timed step, checked.

    ``accept`` maps an example keyword to the members a matching row may
    hold.  Roll-up is exempt from the containment check: it keeps the HAVING
    thresholds earlier steps computed at the finer level, so its answer may
    rightly be empty.  ``invariants=False`` keeps only the failure checks:
    while the data changes under a script (write_mix), thresholds computed
    from the previous answer are stale.
    """
    index = script["index"]
    members = [set(accept[k]) for k in script["example"]]
    picks = iter(script["picks"])

    def finish(step: Step, slot: int) -> Step:
        step.script, step.slot = index, slot
        if step.table is not None and index < HTTP_POOL:
            step.digest = step.table.digest()
        return step

    def check_answer(step: Step, parent: Step | None) -> None:
        if not step.ok or not invariants:
            return
        if step.kind != "rollup" and not checks.contains_example(
                step.table, members):
            step.fail("no row matches the example tuple")
        if step.kind == "topk":
            bound = checks.topk_bound(step.explanation)
            if bound is not None and step.rows > bound:
                step.fail(f"top-{bound} returned {step.rows} rows")
        if step.kind == "disaggregate" and parent is not None and not \
                checks.resums_to_parent(parent.table, step.table, exact_resum):
            step.fail("drill-down groups do not re-sum to the parent")

    session.at(0)
    synthesis = session.synthesize(script["example"])
    if synthesis.ok and synthesis.rows == 0:
        synthesis.fail("no candidate for an example drawn from the data")
    yield finish(synthesis, 0)
    if not synthesis.ok:
        return
    # REOLAP validates candidates for non-emptiness only, so some readings
    # of an ambiguous keyword do not hold the example.  Like an analyst, the
    # script starts at its seeded pick and takes the first candidate whose
    # answer does; every candidate it looked at is a timed choose step.
    session.at(1)
    first = next(picks)
    for attempt in range(synthesis.rows):
        current = session.choose((first + attempt) % synthesis.rows)
        current.attempt = attempt
        last = attempt == synthesis.rows - 1
        if current.ok and invariants and not last and not \
                checks.contains_example(current.table, members):
            yield finish(current, 1)
            continue
        break
    check_answer(current, None)
    yield finish(current, 1)
    if not current.ok:
        return
    for slot, kind in enumerate(SCRIPT_KINDS, start=1):
        if current.slot == slot:  # a new answer: re-fetch it, then refine it
            exported = session.export(current)
            if exported is not None:
                yield finish(exported, slot)
        session.at(slot + 1)
        step = session.refine(kind, next(picks))
        if step is None:
            continue  # empty menu: skipped, not counted
        check_answer(step, current)
        yield finish(step, slot + 1)
        if step.ok:
            current.table = None  # one answer alive at a time
            current = step
    if current.slot == len(SCRIPT_KINDS) + 1:
        exported = session.export(current)
        if exported is not None:
            yield finish(exported, current.slot)
    current.table = None
