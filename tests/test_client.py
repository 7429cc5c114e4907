"""Endpoint client behavior against the hermetic stub server."""

import json
import socket

import pytest
import requests

from scenekit.promptgen.client import (
    ApiError,
    EmptyResponseError,
    EndpointConfig,
    TransportError,
    call_llm,
)
from scenekit.promptgen.generate import GenerationRequest, generate_scenario
from scenekit.promptgen.library import builtin_library
from scenekit.promptgen.stubserver import StubLLMServer
from scenekit.promptgen.template import ScenarioType

GOOD_SCRIPT = "```\nego = new Car at (0.0, 0.0) with speed 5.0\nterminate when time above 3.0\n```"
BAD_SCRIPT = "```\nego = new Car at (0.0, 0.0) with speed Range(10.0, 5.0)\n```"


def _config(stub: StubLLMServer, **overrides) -> EndpointConfig:
    defaults = dict(base_url=stub.base_url, model="stub-model", timeout_s=5.0)
    defaults.update(overrides)
    return EndpointConfig(**defaults)


def test_round_trip_and_wire_shape():
    with StubLLMServer(["hello there"]) as stub:
        out = call_llm(_config(stub, api_key="sk-test"), "what is up", 0.7, seed=42)
        assert out == "hello there"
        payload = stub.requests[0]
        assert payload["model"] == "stub-model"
        assert payload["messages"] == [{"role": "user", "content": "what is up"}]
        assert payload["temperature"] == 0.7
        assert payload["seed"] == 42
        assert stub.request_headers[0]["authorization"] == "Bearer sk-test"
        assert stub.request_headers[0]["content-type"] == "application/json"


def test_seed_omitted_when_none():
    with StubLLMServer(["ok"]) as stub:
        call_llm(_config(stub), "p", 0.0, seed=None)
        assert "seed" not in stub.requests[0]


def test_http_error_is_not_retried():
    with StubLLMServer([{"status": 500, "body": "kaput"}]) as stub:
        with pytest.raises(ApiError) as exc:
            call_llm(_config(stub, attempts=3), "p", 0.0)
        assert exc.value.status == 500
        assert len(stub.requests) == 1


def test_quota_error_surfaces_immediately():
    with StubLLMServer([{"status": 429, "body": "slow down"}]) as stub:
        with pytest.raises(ApiError) as exc:
            call_llm(_config(stub), "p", 0.0)
        assert exc.value.status == 429
        assert "slow down" in str(exc.value)


def test_malformed_envelope_is_api_error():
    with StubLLMServer([{"status": 200, "body": json.dumps({"nope": 1})}]) as stub:
        with pytest.raises(ApiError, match="malformed completion body"):
            call_llm(_config(stub), "p", 0.0)


def test_blank_content_is_empty_response():
    with StubLLMServer([{"content": "   \n"}]) as stub:
        with pytest.raises(EmptyResponseError):
            call_llm(_config(stub), "p", 0.0)


@pytest.mark.parametrize(
    "body",
    [b"\xff\xfe\xfd not utf-8", b"[" * 5000 + b"]" * 5000, b"[1]"],
    ids=["not-utf8", "nested-5000", "not-an-object"],
)
def test_stub_rejects_bad_body_before_recording_it(body):
    with StubLLMServer(["first", "second"]) as stub:
        url = stub.base_url + "/chat/completions"
        reply = requests.post(url, data=body, timeout=5)
        assert reply.status_code == 400
        assert stub.requests == []
        assert call_llm(_config(stub), "p", 0.0) == "first"


def test_transport_retry_with_backoff():
    # Grab a port nothing is listening on, then watch the retry schedule.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    waits: list[float] = []
    config = EndpointConfig(
        base_url=f"http://127.0.0.1:{dead_port}/v1",
        model="m",
        timeout_s=1.0,
        attempts=3,
        backoff_s=0.25,
    )
    with pytest.raises(TransportError, match="after 3 attempts"):
        call_llm(config, "p", 0.0, sleep=waits.append)
    assert waits == [0.25, 0.5]


# --- generation loop ----------------------------------------------------


def test_generation_succeeds_first_try():
    lib = builtin_library()
    with StubLLMServer([GOOD_SCRIPT]) as stub:
        t = generate_scenario(
            GenerationRequest(ScenarioType.REAR_END_COLLISION, seed=3), lib, _config(stub)
        )
    assert t.outcome == "success"
    assert t.script == "ego = new Car at (0.0, 0.0) with speed 5.0\n\nterminate when time above 3.0\n"
    assert len(t.rounds) == 1
    assert t.rounds[0].diagnostics == []
    assert len(t.example_ids) == 3
    # The prompt respects the seeded selection: first example is the
    # matching-type entry.
    first = next(e for e in lib.entries if e.id == t.example_ids[0])
    assert first.scenario_type is ScenarioType.REAR_END_COLLISION


def test_repair_round_fixes_script():
    lib = builtin_library()
    with StubLLMServer([BAD_SCRIPT, GOOD_SCRIPT]) as stub:
        t = generate_scenario(
            GenerationRequest(ScenarioType.T_BONE_COLLISION, seed=0), lib, _config(stub)
        )
    assert t.outcome == "success"
    assert len(t.rounds) == 2
    codes = [d["code"] for d in t.rounds[0].diagnostics]
    assert "E_EMPTY_RANGE" in codes
    # Second prompt carries the failed answer plus machine-readable errors.
    second = t.rounds[1].prompt
    assert second.startswith(t.rounds[0].prompt)
    assert BAD_SCRIPT in second
    assert "Your previous script had these errors:" in second
    assert '"code": "E_EMPTY_RANGE"' in second


def test_repair_rounds_exhaust():
    lib = builtin_library()
    with StubLLMServer([BAD_SCRIPT]) as stub:
        t = generate_scenario(
            GenerationRequest(ScenarioType.VEHICLE_CUT_IN, seed=0, repair_limit=2),
            lib,
            _config(stub),
        )
        assert len(stub.requests) == 3
    assert t.outcome == "exhausted"
    assert t.script is None
    assert len(t.rounds) == 3


def test_chatter_only_response_counts_as_empty_script():
    lib = builtin_library()
    with StubLLMServer(["I cannot help with that.", GOOD_SCRIPT]) as stub:
        t = generate_scenario(
            GenerationRequest(ScenarioType.VEHICLE_CUT_IN, seed=0), lib, _config(stub)
        )
    assert t.outcome == "success"
    assert t.rounds[0].extracted is None
    assert [d["code"] for d in t.rounds[0].diagnostics] == ["E_EMPTY_SCRIPT"]


def test_transcript_serializes():
    lib = builtin_library()
    with StubLLMServer([GOOD_SCRIPT]) as stub:
        t = generate_scenario(
            GenerationRequest(ScenarioType.VEHICLE_CUT_IN, seed=1), lib, _config(stub)
        )
    data = json.loads(t.to_json())
    assert data["outcome"] == "success"
    assert data["scenario_type"] == "vehicle-cut-in"
    assert data["seed"] == 1
    assert len(data["rounds"]) == 1
    assert data["rounds"][0]["response"] == GOOD_SCRIPT


def test_api_failure_propagates_out_of_generation():
    lib = builtin_library()
    with StubLLMServer([{"status": 429, "body": "later"}]) as stub:
        with pytest.raises(ApiError):
            generate_scenario(
                GenerationRequest(ScenarioType.VEHICLE_CUT_IN, seed=0), lib, _config(stub)
            )
