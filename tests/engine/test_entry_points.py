"""Differential suite: every entry point returns the same records.

One fixed-seed corpus goes through each way the engine can be driven —
``run``, ``run_batch(jobs=1|2)``, ``stream(jobs=1|2, ordered=True|False)``,
``astream(jobs=1|2)`` and ``POST /scan`` on an in-process ``ServeApp`` —
each on a fresh engine.  Records are compared by source id and must be
identical apart from ``timings``: the same macros, scores, verdicts, lint
findings, recovered strings, diagnostics (the "served from content-hash
cache" note on every resubmission included) and completed stages.

The corpus mixes benign, malicious and obfuscated macros, exact
resubmissions of earlier documents, CRLF/BOM re-encodings, and one poison
document that kills the worker process analysing it.

Two documented exceptions:

* **encoding variants** are compared without ``score``/``verdict``.  The
  normalized-source feature-row cache deliberately serves the feature row
  of the first encoding a process saw (DESIGN.md), and each pool worker
  keeps its own cache, so which encoding's row a variant gets depends on
  which worker saw which encoding first.
* **the poison document** is quarantined by the pool after its retries
  (``BrokenProcessPool`` blamed on exactly that task), while the serial
  entry points run it in the calling process, where the chaos ``exit``
  fault is downgraded to a stage failure.  Its record is therefore
  identical within each group, and the groups are asserted separately.
"""

import asyncio
import json
import random

import pytest

from repro import ObfuscationDetector
from repro.corpus.benign import generate_benign_module
from repro.corpus.documents import build_document_bytes
from repro.corpus.malicious import generate_malicious_macro
from repro.engine import AnalysisEngine
from repro.obfuscation.pipeline import default_pipeline
from repro.resilience import DEFAULT_RETRY, FaultPlan
from repro.resilience import recovery as recovery_module
from repro.serve import ServeApp, ServeConfig
from repro.serve.http import Request

POISON = "poison_0"
_BOM = "﻿"


@pytest.fixture(scope="module")
def detector():
    rng = random.Random(31)
    benign = [generate_benign_module(rng, target_length=600) for _ in range(6)]
    malicious = [generate_malicious_macro(rng, "word") for _ in range(3)]
    pipeline = default_pipeline()
    obfuscated = [
        pipeline.run(source, seed=index).source
        for index, source in enumerate(malicious)
    ]
    sources = benign + malicious + obfuscated
    labels = [0] * (len(benign) + len(malicious)) + [1] * len(obfuscated)
    return ObfuscationDetector("RF").fit(sources, labels)


@pytest.fixture(scope="module")
def corpus():
    """``(inputs, variant_ids)``: 21 ``(source_id, bytes)`` documents."""
    rng = random.Random(1318)
    pipeline = default_pipeline()
    sources = [generate_benign_module(rng, target_length=500) for _ in range(5)]
    malicious = [generate_malicious_macro(rng, "word") for _ in range(3)]
    sources += malicious
    sources += [
        pipeline.run(source, seed=index).source
        for index, source in enumerate(malicious)
    ]
    originals = [
        (f"doc_{index:02d}", build_document_bytes([source], "docm"))
        for index, source in enumerate(sources)
    ]
    inputs = list(originals)
    # Exact resubmissions: the mass-campaign bulk of gateway traffic.
    for index in (0, 3, 3, 8, 10):
        inputs.append((f"resub_{len(inputs):02d}", originals[index][1]))
    variants = {
        "crlf_0": sources[1].replace("\n", "\r\n"),
        "bom_0": _BOM + sources[6],
    }
    for sid, source in variants.items():
        inputs.append((sid, build_document_bytes([source], "docm")))
    poison = generate_benign_module(rng, target_length=400)
    inputs.append((POISON, build_document_bytes([poison], "docm")))
    inputs.append((f"resub_{len(inputs):02d}", originals[1][1]))
    inputs.append((f"resub_{len(inputs):02d}", originals[9][1]))
    return inputs, set(variants)


def make_engine(detector):
    return AnalysisEngine.for_scan(
        detector, lint=True, recover=True, chaos=FaultPlan.parse(f"exit:{POISON}")
    )


def normalized(payload: dict) -> dict:
    """A record dict without timings, through the same JSON the server sends."""
    payload = json.loads(json.dumps(payload, sort_keys=True))
    payload.pop("timings")
    return payload


def drive_sync(detector, inputs, face):
    engine = make_engine(detector)
    try:
        return [record.to_dict() for record in face(engine, inputs)]
    finally:
        engine.close()


def drive_async(detector, inputs, jobs):
    async def scenario():
        engine = make_engine(detector)
        try:
            return [
                record.to_dict() async for record in engine.astream(inputs, jobs=jobs)
            ]
        finally:
            engine.close()

    return asyncio.run(asyncio.wait_for(scenario(), 180))


def drive_serve(detector, inputs):
    engine = make_engine(detector)
    config = ServeConfig(jobs=2, breaker_threshold=1000)
    app = ServeApp(engine, config)

    async def scenario():
        await app.start()
        try:
            payloads = []
            for sid, data in inputs:
                request = Request(
                    method="POST",
                    path="/scan",
                    query={"id": sid},
                    headers={},
                    body=data,
                    client="127.0.0.1",
                )
                response = await app.handle(request)
                assert response.status == 200, response.body
                payloads.append(json.loads(response.body))
            return payloads
        finally:
            await app.drain(budget_s=30.0)

    return asyncio.run(asyncio.wait_for(scenario(), 180))


SERIAL_FACES = {
    "run": lambda engine, inputs: [engine.run(item) for item in inputs],
    "run_batch(jobs=1)": lambda engine, inputs: engine.run_batch(inputs, jobs=1),
    "stream(jobs=1, ordered=True)": lambda engine, inputs: list(
        engine.stream(inputs, jobs=1, ordered=True)
    ),
    "stream(jobs=1, ordered=False)": lambda engine, inputs: list(
        engine.stream(inputs, jobs=1, ordered=False)
    ),
}

POOL_FACES = {
    "run_batch(jobs=2)": lambda engine, inputs: engine.run_batch(inputs, jobs=2),
    "stream(jobs=2, ordered=True)": lambda engine, inputs: list(
        engine.stream(inputs, jobs=2, ordered=True)
    ),
    "stream(jobs=2, ordered=False)": lambda engine, inputs: list(
        engine.stream(inputs, jobs=2, ordered=False)
    ),
}


@pytest.fixture(scope="module")
def outputs(detector, corpus):
    """Entry point name → ``{source_id: normalized record}``."""
    inputs, _ = corpus
    raw = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recovery_module, "_sleep", lambda delay: None)
        for name, face in {**SERIAL_FACES, **POOL_FACES}.items():
            raw[name] = drive_sync(detector, inputs, face)
        raw["astream(jobs=1)"] = drive_async(detector, inputs, 1)
        raw["astream(jobs=2)"] = drive_async(detector, inputs, 2)
        raw["POST /scan"] = drive_serve(detector, inputs)
    by_id = {}
    for name, payloads in raw.items():
        assert len(payloads) == len(inputs), name
        records = {payload["path"]: normalized(payload) for payload in payloads}
        assert set(records) == {sid for sid, _ in inputs}, name
        by_id[name] = records
    return by_id


SERIAL = [*SERIAL_FACES, "astream(jobs=1)"]
POOLED = [*POOL_FACES, "astream(jobs=2)", "POST /scan"]


def without_scores(record: dict) -> dict:
    record = json.loads(json.dumps(record))
    for macro in record["macros"]:
        macro.pop("score")
        macro.pop("verdict")
    return record


class TestEntryPointParity:
    @pytest.mark.parametrize("name", SERIAL[1:] + POOLED)
    def test_records_match_run(self, outputs, corpus, name):
        inputs, variant_ids = corpus
        reference = outputs["run"]
        for sid, _ in inputs:
            if sid == POISON:
                continue
            got, want = outputs[name][sid], reference[sid]
            if sid in variant_ids:
                got, want = without_scores(got), without_scores(want)
            assert got == want, (name, sid)

    def test_resubmissions_are_cache_served_everywhere(self, outputs, corpus):
        inputs, _ = corpus
        for name, records in outputs.items():
            for sid, _ in inputs:
                notes = [d["message"] for d in records[sid]["diagnostics"]]
                cached = "served from content-hash cache" in notes
                assert cached == sid.startswith("resub_"), (name, sid)

    def test_poison_is_quarantined_by_the_pool(self, outputs):
        records = [outputs[name][POISON] for name in POOLED]
        assert all(record == records[0] for record in records), POOLED
        quarantine = records[0]["quarantine"]
        assert quarantine["attempts"] == DEFAULT_RETRY.max_attempts
        assert quarantine["reason"].startswith("BrokenProcessPool")

    def test_poison_degrades_in_process(self, outputs):
        records = [outputs[name][POISON] for name in SERIAL]
        assert all(record == records[0] for record in records), SERIAL
        assert records[0]["quarantine"] is None
        assert records[0]["degraded"] is True
        assert any(d["stage"] == "chaos" for d in records[0]["diagnostics"])
