"""Backend contract: synthetic determinism, HTTP client behaviour, replay."""

import json
import logging
import re
import sys
import threading
import time

import pytest
import requests

from lanefuse.backends import (
    FACTOR_PROMPTS,
    LANE_CLARITY_PROMPT_ID,
    PROMPT_TEXTS,
    RemoteScorer,
    ReplayScorer,
    Scenario,
    ScorerRequest,
    SyntheticScorer,
    collect_assessment,
    collect_assessments,
    parse_response,
    synthetic_score,
    write_replay_log,
)
from lanefuse.confidence import CLEAR_DAY_CONTEXT, with_confidence
from lanefuse.errors import (
    ConfigError,
    ProtocolError,
    ReplayMissError,
    ResponseValidationError,
    TransportError,
)
from lanefuse.scoring import FactorKind

F = FactorKind

CLEAN = Scenario(name="clean", factor_ranges={F.LANE_VISIBILITY: (9, 10)})
DEGRADED = Scenario(
    name="degraded",
    factor_ranges={F.LANE_VISIBILITY: (2, 4), F.BLUR_DAY: (4, 6)},
    noise_sigma=0.5,
)


def test_catalog_invariants():
    assert len(PROMPT_TEXTS) == 12
    assert set(FACTOR_PROMPTS) == set(FactorKind)
    assert "Q1" not in FACTOR_PROMPTS.values()
    assert len(set(FACTOR_PROMPTS.values())) == 11
    assert set(FACTOR_PROMPTS.values()) <= set(PROMPT_TEXTS)
    assert LANE_CLARITY_PROMPT_ID not in PROMPT_TEXTS


def test_synthetic_clean_scenario_values():
    for k in range(20):
        resp = synthetic_score(CLEAN, 0, f"img{k}", FACTOR_PROMPTS[F.BLUR_DAY])
        assert resp.score == 0
        clarity = synthetic_score(CLEAN, 0, f"img{k}", LANE_CLARITY_PROMPT_ID, "clarity")
        assert clarity.l_clear is not None
        backend = SyntheticScorer(CLEAN, seed=0)
        assessment = collect_assessment(backend, f"img{k}")
        assert assessment.lane_visibility in (9, 10)
        assert all(v == 0 for v in assessment.factor_scores.values())


def test_synthetic_is_deterministic():
    a = synthetic_score(DEGRADED, 5, "img", "Q2")
    b = synthetic_score(DEGRADED, 5, "img", "Q2")
    assert a == b
    # distinct keys draw from distinct streams: across many images the
    # degraded blur range must show more than one value
    scores = {synthetic_score(DEGRADED, 5, f"img{k}", "Q2").score for k in range(60)}
    assert len(scores) > 1


def test_synthetic_respects_ranges_over_seed_sweep():
    for seed in range(100):
        resp = synthetic_score(DEGRADED, seed, "img", FACTOR_PROMPTS[F.BLUR_DAY])
        assert resp.score in (4, 5, 6)
        vis = synthetic_score(DEGRADED, seed, "img", LANE_CLARITY_PROMPT_ID, "clarity")
        backend = SyntheticScorer(DEGRADED, seed=seed)
        assessment = collect_assessment(backend, "img")
        assert assessment.lane_visibility in (2, 3, 4)
        assert assessment.factor_scores[F.BLUR_DAY] in (4, 5, 6)


def test_synthetic_logits_mode_flows_through_softmax():
    resp = synthetic_score(DEGRADED, 1, "img", "Q2", mode="logits")
    assert resp.logits is not None
    assert max(resp.logits.values) == 50.0


# --- remote client -----------------------------------------------------------


def test_remote_direct_roundtrip(stub_server):
    url, handler = stub_server
    scorer = RemoteScorer(url, backoff=0.01)
    resp = scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q12", mode="direct"))
    assert resp.score == 7
    assert resp.model == "stub"
    sent = handler.calls[-1]
    assert sent["prompt"] == PROMPT_TEXTS["Q12"]


def test_remote_logits_forwarded_unmodified(stub_server):
    url, _ = stub_server
    scorer = RemoteScorer(url, backoff=0.01)
    resp = scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q2", mode="logits"))
    assert resp.logits.values[8] == 50.0


def test_remote_out_of_range_score_is_validation_error(stub_server):
    url, handler = stub_server
    handler.behaviors["Q2"] = lambda body: (200, {"mode": "direct", "score": 14})
    scorer = RemoteScorer(url, backoff=0.01)
    with pytest.raises(ResponseValidationError):
        scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q2"))


def test_remote_malformed_response_is_protocol_error(stub_server):
    url, handler = stub_server
    handler.behaviors["Q3"] = lambda body: (200, {"mode": "direct"})
    handler.behaviors["Q4"] = lambda body: (200, {"mode": "logits", "score": 3})
    scorer = RemoteScorer(url, backoff=0.01)
    with pytest.raises(ProtocolError):
        scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q3"))
    with pytest.raises(ProtocolError):  # mode mismatch
        scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q4"))


def test_remote_retries_transient_failures_then_succeeds(stub_server):
    url, handler = stub_server
    attempts = []

    def flaky(body):
        attempts.append(1)
        if len(attempts) < 3:
            return 503, {"error": "busy"}
        return 200, {"mode": "direct", "score": 4}

    handler.behaviors["Q5"] = flaky
    scorer = RemoteScorer(url, backoff=0.001)
    resp = scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q5"))
    assert resp.score == 4
    assert len(attempts) == 3


def test_remote_gives_up_after_max_retries(stub_server):
    url, handler = stub_server
    handler.behaviors["Q6"] = lambda body: (500, {"error": "down"})
    scorer = RemoteScorer(url, max_retries=2, backoff=0.001)
    with pytest.raises(TransportError):
        scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q6"))
    assert len([c for c in handler.calls if c["prompt_id"] == "Q6"]) == 3


def test_remote_unreachable_endpoint_is_transport_error():
    scorer = RemoteScorer("http://127.0.0.1:9/score", max_retries=1, backoff=0.001, timeout=0.2)
    with pytest.raises(TransportError):
        scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q2"))


def test_remote_score_many_in_order(stub_server):
    url, handler = stub_server
    handler.behaviors["Q2"] = lambda body: (200, {"mode": "direct", "score": 2})
    handler.behaviors["Q3"] = lambda body: (200, {"mode": "direct", "score": 3})
    scorer = RemoteScorer(url, max_in_flight=3, backoff=0.01)
    reqs = [
        ScorerRequest(image="a.jpg", prompt_id="Q2"),
        ScorerRequest(image="a.jpg", prompt_id="Q3"),
        ScorerRequest(image="b.jpg", prompt_id="Q2"),
    ]
    out = scorer.score_many(reqs)
    assert [r.score for r in out] == [2, 3, 2]


def _image_index(body):
    return int(body["image"].removeprefix("img"))


def test_remote_score_many_logs_in_request_order(tmp_path, stub_server):
    url, handler = stub_server
    n = 16
    answered = []

    def reverse_delay(body):
        # Earlier requests wait longer, so responses arrive out of order.
        i = _image_index(body)
        time.sleep((n - i) * 0.004)
        answered.append(i)
        return 200, {"mode": "direct", "score": i % 11}

    handler.behaviors["Q2"] = reverse_delay
    reqs = [ScorerRequest(image=f"img{i:02d}", prompt_id="Q2") for i in range(n)]
    logs = {}
    for in_flight in (4, 1):
        logs[in_flight] = tmp_path / f"log{in_flight}.jsonl"
        scorer = RemoteScorer(url, max_in_flight=in_flight, log_path=logs[in_flight])
        answered.clear()
        out = scorer.score_many(reqs)
        assert [r.score for r in out] == [i % 11 for i in range(n)]
        if in_flight == 4:
            assert answered != sorted(answered)
    assert logs[4].read_bytes() == logs[1].read_bytes()
    keys = [json.loads(line)["key"] for line in logs[4].read_text().splitlines()]
    assert keys == [r.key() for r in reqs]


def test_remote_score_many_failure_logs_prefix_and_cancels_the_rest(tmp_path, stub_server):
    url, handler = stub_server
    n, failing, in_flight = 200, 50, 4

    def fail_one(body):
        if _image_index(body) == failing:
            return 500, {"error": "down"}
        return 200, {"mode": "direct", "score": 1}

    handler.behaviors["Q2"] = fail_one
    reqs = [ScorerRequest(image=f"img{i:03d}", prompt_id="Q2") for i in range(n)]
    alone = RemoteScorer(url, max_retries=0)
    with pytest.raises(TransportError) as single:
        alone.score(reqs[failing])
    handler.calls = []
    log = tmp_path / "log.jsonl"
    scorer = RemoteScorer(url, max_retries=0, max_in_flight=in_flight, log_path=log)
    with pytest.raises(TransportError) as batch:
        scorer.score_many(reqs)
    assert str(batch.value) == str(single.value)
    keys = [json.loads(line)["key"] for line in log.read_text().splitlines()]
    assert keys == [r.key() for r in reqs[:failing]]
    assert failing < len(handler.calls) <= failing + 1 + 2 * in_flight


def test_remote_score_many_raises_the_first_failure_in_request_order(tmp_path, stub_server):
    # Several failures race under more workers than cores and a short switch
    # interval; the lowest failing index must win every time.
    url, handler = stub_server
    failing = {30: 530, 31: 531, 33: 533, 60: 560}

    def fail_some(body):
        status = failing.get(_image_index(body))
        if status:
            return status, {"error": "down"}
        return 200, {"mode": "direct", "score": 1}

    handler.behaviors["Q2"] = fail_some
    reqs = [ScorerRequest(image=f"img{i:03d}", prompt_id="Q2") for i in range(100)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(5):
            log = tmp_path / f"log{trial}.jsonl"
            scorer = RemoteScorer(url, max_retries=0, max_in_flight=8, log_path=log)
            with pytest.raises(TransportError, match="server error 530"):
                scorer.score_many(reqs)
            keys = [json.loads(line)["key"] for line in log.read_text().splitlines()]
            assert keys == [r.key() for r in reqs[:30]]
    finally:
        sys.setswitchinterval(interval)


def test_remote_reaches_max_in_flight_without_discarding_connections(stub_server, caplog):
    url, handler = stub_server
    # The first 12 requests answer only once all 12 are in flight at once, so
    # the peak does not depend on thread scheduling; a client that never has
    # 12 in flight breaks the barrier and the scoring fails.
    first = threading.Barrier(12, timeout=10)

    def slow(body):
        if int(body["image"].removeprefix("img")) < 12:
            first.wait()
        time.sleep(0.02)
        return 200, {"mode": "direct", "score": 0}

    handler.behaviors["Q2"] = slow
    reqs = [ScorerRequest(image=f"img{i}", prompt_id="Q2") for i in range(48)]
    caplog.set_level(logging.WARNING, logger="urllib3.connectionpool")
    RemoteScorer(url, max_in_flight=12).score_many(reqs)
    assert handler.peak_in_flight == 12
    assert not [r for r in caplog.records if "Connection pool is full" in r.getMessage()]


def test_remote_reads_proxy_environment_only_at_construction(monkeypatch, stub_server):
    url, handler = stub_server
    scorer = RemoteScorer(url)
    scans = []

    def counting(original):
        def wrapper(*args, **kwargs):
            scans.append(args)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        requests.sessions, "get_environ_proxies", counting(requests.sessions.get_environ_proxies)
    )
    monkeypatch.setattr(
        requests.utils, "get_environ_proxies", counting(requests.utils.get_environ_proxies)
    )
    scorer.score_many([ScorerRequest(image=f"img{i}", prompt_id="Q2") for i in range(8)])
    assert len(handler.calls) == 8
    assert scans == []


_PROXY_VARS = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")


def test_remote_uses_proxy_set_before_construction(monkeypatch, stub_server):
    url, handler = stub_server
    for name in _PROXY_VARS:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    proxy = url.removesuffix("/score")
    monkeypatch.setenv("http_proxy", proxy)
    # Nothing listens on port 9: only the proxy (the stub) can answer.
    scorer = RemoteScorer("http://127.0.0.1:9/score", max_retries=0, timeout=5.0)
    monkeypatch.delenv("http_proxy")
    resp = scorer.score_many([ScorerRequest(image="a.jpg", prompt_id="Q12")])
    assert resp[0].score == 7
    assert len(handler.calls) == 1


def test_remote_leaves_injected_session_untouched(stub_server):
    url, _ = stub_server
    session = requests.Session()
    adapters = dict(session.adapters)
    scorer = RemoteScorer(url, max_in_flight=12, session=session)
    assert scorer.session is session
    assert session.trust_env is True
    assert session.proxies == {} and session.auth is None
    assert session.adapters == adapters
    assert scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q12")).score == 7


@pytest.mark.parametrize(
    "setting, match",
    [
        ({"max_in_flight": 0}, "max_in_flight"),
        ({"max_in_flight": -2}, "max_in_flight"),
        ({"max_retries": -1}, "max_retries"),
        ({"timeout": 0.0}, "timeout"),
        ({"timeout": -1.0}, "timeout"),
        ({"timeout": float("nan")}, "timeout"),
    ],
)
def test_remote_rejects_unusable_settings(setting, match):
    with pytest.raises(ConfigError, match=match):
        RemoteScorer("http://127.0.0.1:9/score", **setting)


# --- replay ------------------------------------------------------------------


def test_record_then_replay_matches_live(tmp_path, stub_server):
    url, _ = stub_server
    log = tmp_path / "log.jsonl"
    scorer = RemoteScorer(url, log_path=log, backoff=0.01)
    request = ScorerRequest(image="a.jpg", prompt_id="Q12", mode="direct")
    clarity_req = ScorerRequest(image="a.jpg", prompt_id=LANE_CLARITY_PROMPT_ID, mode="clarity")
    live = scorer.score(request)
    live_clarity = scorer.score(clarity_req)
    replay = ReplayScorer(log)
    assert replay.score(request) == live
    assert replay.score(clarity_req) == live_clarity
    with pytest.raises(ReplayMissError):
        replay.score(ScorerRequest(image="other.jpg", prompt_id="Q12"))


def test_full_pipeline_identical_live_vs_replay(tmp_path, stub_server):
    url, _ = stub_server
    log = tmp_path / "log.jsonl"
    live_backend = RemoteScorer(url, log_path=log, backoff=0.01)
    live = with_confidence(collect_assessment(live_backend, "img1"))
    replayed = with_confidence(collect_assessment(ReplayScorer(log), "img1"))
    assert replayed == live


def test_replay_log_preserves_bytes(tmp_path):
    request = ScorerRequest(image="x.jpg", prompt_id="Q2", mode="direct")
    write_replay_log(tmp_path / "log.jsonl", [(request, {"mode": "direct", "score": 3})])
    replay = ReplayScorer(tmp_path / "log.jsonl")
    assert replay.raw_body(request) == '{"mode": "direct", "score": 3}'
    assert replay.score(request).score == 3


def test_replay_missing_log_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        ReplayScorer(tmp_path / "nope.jsonl")


@pytest.mark.parametrize("latency", ["fast", None, True])
def test_non_numeric_latency_is_protocol_error(tmp_path, stub_server, latency):
    url, handler = stub_server
    body = {"mode": "direct", "score": 3, "latency_ms": latency}
    handler.behaviors["Q2"] = lambda _: (200, body)
    request = ScorerRequest(image="a.jpg", prompt_id="Q2")
    with pytest.raises(ProtocolError, match="'latency_ms' must be a number"):
        RemoteScorer(url, backoff=0.01).score(request)
    log = tmp_path / "log.jsonl"
    write_replay_log(log, [(request, body)])
    with pytest.raises(ProtocolError, match="'latency_ms' must be a number"):
        ReplayScorer(log).score(request)
    assert parse_response({**body, "latency_ms": 12}, "direct").latency_ms == 12.0


def test_parse_response_rejects_unknown_mode():
    with pytest.raises(ProtocolError):
        parse_response({"mode": "direct", "score": 3}, "logits")
    with pytest.raises(ProtocolError):
        parse_response({"score": 3}, "direct")


@pytest.mark.parametrize(
    "record",
    [
        "[1, 2]",
        '"text"',
        '{"key": "a.jpg|Q2|direct", "body": {"mode": "direct", "score": 3}}',
        '{"key": 7, "body": "{}"}',
        '{"body": "{}"}',
    ],
    ids=["array", "string", "object-body", "number-key", "no-key"],
)
def test_replay_bad_record_is_protocol_error_naming_its_line(tmp_path, record):
    log = tmp_path / "log.jsonl"
    good = json.dumps({"key": "a.jpg|Q3|direct", "body": "{}"})
    log.write_text(f"{good}\n\n{record}\n")
    with pytest.raises(ProtocolError, match=re.escape(f"{log}:3: bad replay record")):
        ReplayScorer(log)


def test_remote_record_log_appears_with_its_first_record(tmp_path, stub_server):
    url, _ = stub_server
    log = tmp_path / "log.jsonl"
    scorer = RemoteScorer(url, log_path=log)
    scorer.score_many([])
    assert not log.exists()
    scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q12"))
    assert [json.loads(line)["key"] for line in log.read_text().splitlines()] == [
        "a.jpg|Q12|direct"
    ]


# --- the request layout the replay log depends on ------------------------------


class RecordingScorer(SyntheticScorer):
    """Synthetic backend that keeps every batch it is sent."""

    def __init__(self, scenario: Scenario):
        super().__init__(scenario, seed=0)
        self.batches = []

    def score_many(self, requests_):
        self.batches.append([(r.image, r.prompt_id, r.mode) for r in requests_])
        return super().score_many(requests_)


def test_collect_assessments_request_layout():
    # The factor order `score` uses: the context's factors sorted by key.
    factors = sorted(CLEAR_DAY_CONTEXT.active_factors, key=lambda f: f.value)
    images = [("a.jpg", 0.0), ("b.jpg", 1.0)]
    backend = RecordingScorer(DEGRADED)
    batched = collect_assessments(backend, images, factors=factors)
    per_image = [("Q2", "direct"), ("Q10", "direct"), ("Q5", "direct"), ("Q11", "direct"),
                 ("LC", "clarity")]
    expected = [(image, p, mode) for image, _ in images for p, mode in per_image]
    assert backend.batches == [expected]

    one = RecordingScorer(DEGRADED)
    singles = [
        collect_assessment(one, image, factors=factors, timestamp=ts) for image, ts in images
    ]
    assert batched == singles
    assert one.batches == [expected[:5], expected[5:]]
    assert [a.timestamp for a in batched] == [0.0, 1.0]
    assert batched[0].factor_scores[F.BLUR_DAY] in (4, 5, 6)


def test_remote_unknown_prompt_id_is_config_error_before_any_post(stub_server):
    url, handler = stub_server
    scorer = RemoteScorer(url, backoff=0.01)
    with pytest.raises(ConfigError, match="unknown prompt id 'Q13'"):
        scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q13"))
    with pytest.raises(ConfigError, match="unknown prompt id 'Q13'"):
        scorer.score_many([ScorerRequest(image="a.jpg", prompt_id="Q13")])
    assert handler.calls == []
