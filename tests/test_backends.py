"""Backend contract: synthetic determinism, HTTP client behaviour, replay."""

import base64
import dataclasses
import hashlib
import http.client
import json
import math
import re
import socket
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanefuse import backends
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
)
from lanefuse.cli import main
from lanefuse.confidence import CLEAR_DAY_CONTEXT, dpcs_detail, with_confidence
from lanefuse.errors import (
    ConfigError,
    InvalidInputError,
    ProtocolError,
    ReplayMissError,
    ResponseValidationError,
    TransportError,
)
from lanefuse.evaluation import standard_config, synth_generate
from lanefuse.mapmodel import save_link_area
from lanefuse.scoring import FactorKind

from conftest import TLS_CERT, ok_reply
from replaylog import write_replay_log

F = FactorKind

CLEAN = Scenario(name="clean", visibility=(9, 10))
DEGRADED = Scenario(
    name="degraded",
    visibility=(2, 4),
    factor_ranges={F.BLUR_DAY: (4, 6)},
    noise_sigma=0.5,
)


@pytest.fixture(autouse=True)
def fast_retries(monkeypatch):
    # Production waits RETRY_BACKOFF (0.2 s) before the first retry; these
    # tests retry on purpose and need not wait that long.
    monkeypatch.setattr(backends, "RETRY_BACKOFF", 0.001)


def test_catalog_invariants():
    assert len(PROMPT_TEXTS) == 12
    assert set(FACTOR_PROMPTS) == set(FactorKind)
    assert "Q1" not in FACTOR_PROMPTS.values()
    assert "Q12" not in FACTOR_PROMPTS.values()
    assert len(set(FACTOR_PROMPTS.values())) == 10
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


@pytest.mark.parametrize(
    "kwargs, key",
    [({"factor_ranges": {F.RAIN: (1, 2, 3)}}, "rain"), ({"visibility": 5}, "lane_visibility")],
    ids=["three-bounds", "not-a-list"],
)
def test_scenario_range_that_is_not_a_pair_is_invalid_input(kwargs, key):
    with pytest.raises(InvalidInputError, match=rf"'x': {key} range must be a list \[lo, hi\]"):
        Scenario("x", **kwargs)


def test_scenario_range_keyed_by_a_name_is_invalid_input():
    # A factor is a FactorKind; its key text is a different, unknown, factor.
    with pytest.raises(InvalidInputError, match="scenario 'x': unknown factor 'rain'"):
        Scenario("x", {"rain": (1, 2)})


def test_synthetic_answers_are_the_requests_seeded_draw():
    # Each answer is the draw of a generator seeded by the request's SHA-256;
    # a range of one value answers that value.
    fixed = Scenario(name="fixed", visibility=(3, 3), factor_ranges={F.RAIN: (0, 10)})
    rain = FACTOR_PROMPTS[F.RAIN]
    for k in range(30):
        digest = hashlib.sha256(f"7|img{k}|{rain}".encode()).digest()
        want = int(np.random.default_rng(int.from_bytes(digest[:8], "big")).integers(0, 11))
        assert synthetic_score(fixed, 7, f"img{k}", rain).score == want
        assert synthetic_score(fixed, 7, f"img{k}", FACTOR_PROMPTS[F.FOG]).score == 0
        clarity = synthetic_score(fixed, 7, f"img{k}", LANE_CLARITY_PROMPT_ID, "clarity")
        assert clarity.l_clear == math.log(0.3 / 0.7)


def test_synthetic_answers_the_clarity_probe_only_in_clarity_mode():
    # The remote and replay backends reject an answer whose mode differs from
    # the request's, so the synthetic one must not give one either. A request
    # takes its mode from its prompt; the benchmark's stub scorer passes the
    # mode a wire body names, which may be the wrong one.
    with pytest.raises(ConfigError, match="'LC' is not bound to a factor"):
        synthetic_score(DEGRADED, 1, "img", LANE_CLARITY_PROMPT_ID, "direct")
    clarity = synthetic_score(DEGRADED, 1, "img", LANE_CLARITY_PROMPT_ID, "clarity")
    assert clarity.mode == "clarity"
    scorer = SyntheticScorer(DEGRADED, seed=1)
    assert scorer.score(ScorerRequest(image="img", prompt_id=LANE_CLARITY_PROMPT_ID)) == clarity
    for factor, prompt_id in FACTOR_PROMPTS.items():
        answer = scorer.score(ScorerRequest(image="img", prompt_id=prompt_id))
        assert answer.mode == "direct" and answer.score in range(11), factor


@pytest.mark.parametrize("prompt_id", ["Q1", "Q12"])
def test_synthetic_direct_request_for_an_unbound_prompt_is_a_config_error(prompt_id):
    # Q1 (scene description) and Q12 (overall lane visibility) name no
    # factor; lane visibility is the clarity probe's answer.
    with pytest.raises(ConfigError, match=f"{prompt_id!r} is not bound to a factor"):
        synthetic_score(DEGRADED, 1, "img", prompt_id, "direct")


def test_a_request_asks_for_a_direct_score_or_the_clarity_logit():
    # The prompt fixes the mode: the clarity probe asks for the logit, every
    # catalog prompt for a direct score. A request has no mode of its own.
    assert ScorerRequest(image="img", prompt_id=LANE_CLARITY_PROMPT_ID).mode == "clarity"
    assert {ScorerRequest(image="img", prompt_id=p).mode for p in PROMPT_TEXTS} == {"direct"}
    assert [f.name for f in dataclasses.fields(ScorerRequest)] == ["image", "prompt_id"]
    with pytest.raises(AttributeError):
        ScorerRequest(image="img", prompt_id="Q2").mode = "clarity"
    # Replay keys, and so record logs, still name the mode.
    assert ScorerRequest(image="img", prompt_id="Q7").key() == "img|Q7|direct"
    assert ScorerRequest(image="img", prompt_id=LANE_CLARITY_PROMPT_ID).key() == "img|LC|clarity"
    assert {f.name for f in dataclasses.fields(backends.ScorerResponse)} == {
        "mode", "score", "l_clear", "model", "latency_ms"
    }
    # The benchmark's stub scorer passes a client's mode to synthetic_score as sent.
    for prompt_id in ("Q2", LANE_CLARITY_PROMPT_ID):
        with pytest.raises(InvalidInputError, match="unknown request mode 'logits'"):
            synthetic_score(DEGRADED, 1, "img", prompt_id, "logits")


def test_zero_lane_visibility_gives_the_saturated_clarity_logit():
    blind = Scenario(name="blind", visibility=(0, 0), factor_ranges={F.RAIN: (3, 3)})
    clarity = synthetic_score(blind, 0, "img", LANE_CLARITY_PROMPT_ID, "clarity")
    assert clarity.l_clear == -40.0
    assessment = collect_assessment(SyntheticScorer(blind), "img")
    assert (assessment.lane_visibility, assessment.factor_scores[F.RAIN]) == (0, 3)
    detail = dpcs_detail(assessment)
    assert (detail.branch, detail.value) == ("zero", 0.0)


# --- remote client -----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    images=st.lists(
        st.tuples(st.text("abc_019", min_size=1, max_size=8), st.floats(0.0, 1e9)), max_size=6
    ),
    seed=st.integers(0, 2**31 - 1),
    factors=st.lists(st.sampled_from(list(FactorKind)), unique=True),
)
def test_collect_assessments_of_a_batch_equal_one_image_at_a_time(images, seed, factors):
    backend = SyntheticScorer(DEGRADED, seed=seed)
    one_at_a_time = [collect_assessments(backend, [image], factors=factors)[0] for image in images]
    assert collect_assessments(backend, images, factors=factors) == one_at_a_time


def test_remote_direct_roundtrip(stub_server):
    url, handler = stub_server
    scorer = RemoteScorer(url)
    resp = scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q12"))
    assert resp.score == 7
    assert resp.model == "stub"
    sent = handler.calls[-1]
    assert sent["prompt"] == PROMPT_TEXTS["Q12"]


def test_remote_out_of_range_score_is_validation_error(stub_server):
    url, handler = stub_server
    handler.behaviors["Q2"] = lambda body: (200, {"mode": "direct", "score": 14})
    scorer = RemoteScorer(url)
    with pytest.raises(ResponseValidationError):
        scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q2"))


def test_remote_malformed_response_is_protocol_error(stub_server):
    url, handler = stub_server
    handler.behaviors["Q3"] = lambda body: (200, {"mode": "direct"})
    handler.behaviors["Q4"] = lambda body: (200, {"mode": "logits", "score": 3})
    scorer = RemoteScorer(url)
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
    scorer = RemoteScorer(url)
    resp = scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q5"))
    assert resp.score == 4
    assert len(attempts) == 3


def test_remote_gives_up_after_max_retries(stub_server):
    url, handler = stub_server
    handler.behaviors["Q6"] = lambda body: (500, {"error": "down"})
    scorer = RemoteScorer(url, max_retries=2)
    with pytest.raises(TransportError):
        scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q6"))
    assert len([c for c in handler.calls if c["prompt_id"] == "Q6"]) == 3


def test_remote_unreachable_endpoint_is_transport_error():
    scorer = RemoteScorer("http://127.0.0.1:9/score", max_retries=1, timeout=0.2)
    with pytest.raises(TransportError):
        scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q2"))


def test_remote_score_many_in_order(stub_server):
    url, handler = stub_server
    handler.behaviors["Q2"] = lambda body: (200, {"mode": "direct", "score": 2})
    handler.behaviors["Q3"] = lambda body: (200, {"mode": "direct", "score": 3})
    scorer = RemoteScorer(url, max_in_flight=3)
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
        index = _image_index(body)
        if index == failing:
            return 500, {"error": "down"}
        if index > failing:
            # Hold every later request, so that the other workers wait on their
            # replies while the failing one records its error, even when the
            # host deschedules it first.
            time.sleep(0.05)
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


def test_remote_reaches_max_in_flight_without_discarding_connections(stub_server):
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
    RemoteScorer(url, max_in_flight=12).score_many(reqs)
    assert handler.peak_in_flight == 12
    assert handler.connections == 12


def _wait_closed(handler, timeout=5.0):
    """The stub's count of ended connections, once it has caught up with the
    client's closes (each is seen by a server thread reading EOF)."""
    deadline = time.monotonic() + timeout
    while handler.closed < handler.connections and time.monotonic() < deadline:
        time.sleep(0.01)
    return handler.closed


@pytest.fixture
def opened(monkeypatch):
    """Every client connection made, kept so that none is closed by the
    garbage collector instead of the client."""
    conns = []
    connect = backends._Route.connect

    def recording(route, timeout):
        conns.append(connect(route, timeout))
        return conns[-1]

    monkeypatch.setattr(backends._Route, "connect", recording)
    return conns


def test_remote_score_many_opens_one_connection_per_worker_and_closes_them(
    stub_server, opened
):
    url, handler = stub_server
    reqs = [ScorerRequest(image=f"img{i}", prompt_id="Q2") for i in range(48)]
    out = RemoteScorer(url, max_in_flight=4).score_many(reqs)
    assert [r.score for r in out] == [7] * 48
    assert len(handler.calls) == 48
    assert 1 <= handler.connections == len(opened) <= 4
    assert all(conn.sock is None for conn in opened)
    assert _wait_closed(handler) == handler.connections


def test_remote_score_closes_its_connection(stub_server, opened):
    url, handler = stub_server
    scorer = RemoteScorer(url)
    for _ in range(3):
        assert scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q12")).score == 7
    assert handler.connections == len(opened) == 3
    assert all(conn.sock is None for conn in opened)
    assert _wait_closed(handler) == 3


@pytest.mark.parametrize("after_reply", ["announce", "drop"])
@pytest.mark.parametrize("in_flight", [1, 3])
def test_remote_reopens_a_closed_keep_alive_connection_without_a_retry(
    stub_server, after_reply, in_flight
):
    # Every connection serves one reply: "announce" says so with
    # Connection: close, "drop" just closes it, as an idle timeout would.
    url, handler = stub_server
    handler.after_reply = after_reply
    reqs = [ScorerRequest(image=f"img{i}", prompt_id="Q2") for i in range(12)]
    out = RemoteScorer(url, max_retries=0, max_in_flight=in_flight).score_many(reqs)
    assert [r.score for r in out] == [7] * 12
    assert len(handler.calls) == 12
    assert handler.connections == 12


def test_remote_server_error_on_a_kept_alive_connection_spends_a_retry(stub_server):
    url, handler = stub_server
    attempts = []

    def second_fails(body):
        attempts.append(body["image"])
        if len(attempts) == 2:
            return 503, {"error": "busy"}
        return 200, {"mode": "direct", "score": 4}

    handler.behaviors["Q5"] = second_fails
    reqs = [ScorerRequest(image=f"img{i}", prompt_id="Q5") for i in range(3)]
    with pytest.raises(TransportError, match="server error 503"):
        RemoteScorer(url, max_retries=0, max_in_flight=1).score_many(reqs)
    attempts.clear()
    out = RemoteScorer(url, max_retries=1, max_in_flight=1).score_many(reqs)
    assert [r.score for r in out] == [4, 4, 4]
    assert attempts == ["img0", "img1", "img1", "img2"]


_ACCENTED_BODY = '{"mode": "direct", "score": 3, "model": "s\u00e9"}'


@pytest.mark.parametrize(
    "content_type, encoding",
    [
        ("application/json", "utf-8"),
        ("application/json; charset=latin-1", "latin-1"),
        ("application/json; charset=no-such-codec", "utf-8"),
    ],
    ids=["utf-8-by-default", "declared-charset", "unknown-charset"],
)
def test_remote_logs_the_body_decoded_by_its_charset(
    tmp_path, stub_server, content_type, encoding
):
    url, handler = stub_server
    handler.content_type = content_type
    handler.behaviors["Q2"] = lambda _: (200, _ACCENTED_BODY.encode(encoding))
    log = tmp_path / "log.jsonl"
    resp = RemoteScorer(url, log_path=log).score(ScorerRequest(image="a.jpg", prompt_id="Q2"))
    assert resp.model == "s\u00e9"
    assert json.loads(log.read_text(encoding="utf-8"))["body"] == _ACCENTED_BODY


# --- reply framing -------------------------------------------------------------


def _payload(body) -> bytes:
    return ok_reply(body)[0].partition(b"\r\n\r\n")[2]


def _framed(status_line: bytes, fields: bytes = b"", interim: bytes = b""):
    """Replies with a Content-Length: ``interim`` replies first, then
    ``status_line`` and the header ``fields``."""

    def reply(body):
        payload = _payload(body)
        head = b"%s\r\n%sContent-Length: %d\r\n\r\n" % (status_line, fields, len(payload))
        return interim + head + payload, False

    return reply


def _chunked(body):
    payload = _payload(body)
    chunks = b"5;ext=1\r\n%s\r\n%x\r\n%s\r\n" % (payload[:5], len(payload) - 5, payload[5:])
    head = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
    return head + chunks + b"0\r\nX-Trailer: t\r\n\r\n", False


def _line_of(size: int) -> bytes:
    """A header line of ``size`` bytes, CRLF included."""
    return b"X-Long: " + b"a" * (size - 10) + b"\r\n"


# Each framing the client reads, and how many connections 11 requests on
# one worker open: one kept alive, or one per reply that ends its connection.
FRAMINGS = {
    "content-length": (ok_reply, 1),
    "chunked": (_chunked, 1),
    "close-delimited": (lambda body: (b"HTTP/1.1 200 OK\r\n\r\n" + _payload(body), True), 11),
    "http-1.0": (_framed(b"HTTP/1.0 200 OK"), 11),
    "100-continue": (_framed(b"HTTP/1.1 200 OK", interim=b"HTTP/1.1 100 Continue\r\n\r\n"), 1),
    "connection-close": (_framed(b"HTTP/1.1 200 OK", b"Connection: close\r\n"), 11),
    "longest-header-line": (_framed(b"HTTP/1.1 200 OK", _line_of(65536)), 1),
    "99-header-lines": (_framed(b"HTTP/1.1 200 OK", b"X: y\r\n" * 98), 1),
}
# Replies the client cannot frame: each spends an attempt.
UNREADABLE = {
    "65537-byte-header-line": _framed(b"HTTP/1.1 200 OK", _line_of(65537)),
    "garbled-status-line": _framed(b"HTTP/1.1 OK 200"),
}


@pytest.fixture
def one_image(tmp_path):
    """An area file with one map of one image: 11 requests to score."""
    config = dataclasses.replace(
        standard_config(0), link_areas=1, maps_per_area=1, images_per_map=1, lane_length=20.0
    )
    (area,) = synth_generate(config)
    save_link_area(area, tmp_path / "area.json")
    return tmp_path / "area.json"


def _score_remote(area, url, max_retries=0):
    """``lanefuse score`` against ``url`` on one worker: its exit code and
    its scores CSV (None on failure)."""
    config = area.parent / "remote.ini"
    config.write_text(
        f"[backend]\nendpoint = {url}\nmax_in_flight = 1\nmax_retries = {max_retries}\n"
    )
    out = area.parent / "out"
    code = main(["score", str(area), "--config", str(config), "--backend", "remote",
                 "--output-dir", str(out)])
    scores = out / "area_scores.csv"
    return code, scores.read_bytes() if code == 0 and scores.exists() else None


@pytest.mark.parametrize("framing", FRAMINGS)
def test_remote_reads_every_reply_framing(one_image, raw_server, framing):
    url, handler = raw_server
    code, reference = _score_remote(one_image, url)
    assert code == 0
    handler.requests, handler.connections = [], 0
    handler.reply, connections = FRAMINGS[framing]
    assert _score_remote(one_image, url) == (0, reference)
    assert len(handler.requests) == 11  # no retry
    assert handler.connections == connections  # an ended connection is reopened


@pytest.mark.parametrize("unreadable", UNREADABLE)
def test_remote_retries_a_reply_it_cannot_frame(one_image, raw_server, unreadable):
    url, handler = raw_server
    replies = iter([UNREADABLE[unreadable]])
    handler.reply = lambda body: next(replies, ok_reply)(body)
    code, scores = _score_remote(one_image, url, max_retries=1)
    assert code == 0 and scores is not None
    assert len(handler.requests) == 12  # one retry
    assert handler.connections == 2  # ... on a new connection
    handler.requests, handler.reply = [], UNREADABLE[unreadable]
    assert _score_remote(one_image, url, max_retries=1) == (3, None)
    assert len(handler.requests) == 2  # both attempts, then exit 3


@pytest.mark.parametrize(
    "reply, error",
    [
        (b"HTTP/1.1 200 OK\r\nContent-Length: 5x\r\n\r\n", "bad Content-Length"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", "IncompleteRead"),
        (b"HTTP/1.1 200 OK\r\n" + b"X: y\r\n" * 100 + b"\r\n", "more than 100 headers"),
        (b"HTTP/2 200\r\n\r\n", "attempts: HTTP/2 200"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc", "7 more expected"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcXY0\r\n\r\n",
         "IncompleteRead"),
    ],
    ids=["content-length", "chunk-size", "header-count", "version", "short-body", "chunk-end"],
)
def test_remote_malformed_framing_is_a_transport_error(raw_server, reply, error):
    url, handler = raw_server
    handler.reply = lambda body: (reply, True)
    with pytest.raises(TransportError, match=error):
        RemoteScorer(url, max_retries=0).score(ScorerRequest(image="a.jpg", prompt_id="Q2"))


@pytest.mark.parametrize(
    "reply, error",
    [
        (b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n", "unexpected status 404"),
        (b"HTTP/1.1 204 No Content\r\n\r\n", "unexpected status 204"),  # a reply with no body
        (b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello", "response is not JSON"),
    ],
    ids=["404", "204", "not-json"],
)
def test_remote_reply_outside_the_contract_is_a_protocol_error(raw_server, reply, error):
    url, handler = raw_server
    handler.reply = lambda body: (reply, False)
    with pytest.raises(ProtocolError, match=error):
        RemoteScorer(url, max_retries=2).score(ScorerRequest(image="a.jpg", prompt_id="Q2"))
    assert len(handler.requests) == 1  # not retried


def _post_with_http_client(route, body: bytes) -> None:
    """POST ``body`` on the route the way ``http.client`` sends a request."""
    if route.tls is None:
        conn = http.client.HTTPConnection(route.host, route.port, timeout=5)
    else:
        conn = http.client.HTTPSConnection(route.host, route.port, timeout=5, context=route.tls)
    if route.tunnel is not None:
        conn.set_tunnel(*route.tunnel)
    try:
        conn.request("POST", route.target, body, dict(route.headers))
        conn.getresponse().read()
    finally:
        conn.close()


def _assert_head_as_http_client_sends(scorer, handler):
    assert scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q12")).score == 7
    (sent,) = handler.requests
    _post_with_http_client(scorer._route, sent.partition(b"\r\n\r\n")[2])
    assert handler.requests == [sent, sent]


@pytest.mark.parametrize(
    "endpoint",
    [
        "http://Example.COM/score",
        "http://example.com:80/a%20b/score?q=1",
        "https://example.com/score",
        "https://example.com:443/score",
        "https://example.com:8443/score",
        "http://[::1]:8080/score",
        "http://[::1]/score",
        "http://b\u00fccher.example/score",
    ],
)
def test_remote_request_bytes_are_http_clients_for_every_host_form(clean_tls_env, endpoint):
    # http.client writes the head, then the body, through send(); nothing
    # connects, since send is replaced.
    route = backends._resolve_endpoint(endpoint)
    kind = http.client.HTTPConnection if route.tls is None else http.client.HTTPSConnection
    conn = kind(route.host, route.port, **({} if route.tls is None else {"context": route.tls}))
    sent = []
    conn.send = sent.append
    conn.request("POST", route.target, b'{"k": 1}', dict(route.headers))
    assert route.message(b'{"k": 1}') == b"".join(sent)
    assert (conn.host, conn.port) == (route.host, route.port)  # an IPv6 host is kept whole


def test_remote_request_is_one_write_of_http_clients_bytes(tmp_path, no_proxy_env, raw_server):
    url, handler = raw_server
    port = int(url.rpartition(":")[2].removesuffix("/score"))
    no_proxy_env.setenv("NETRC", str(tmp_path / "none"))
    scorer = RemoteScorer(url.replace("//", "//ann:pw@"), max_in_flight=1)
    writes = []
    sendall = socket.socket.sendall

    def counting(sock, data, *args):
        if sock.getpeername()[1] == port:  # a client write, not the server's
            writes.append(len(data))
        return sendall(sock, data, *args)

    no_proxy_env.setattr(socket.socket, "sendall", counting)
    scorer.score_many([ScorerRequest(image=f"img{i}", prompt_id="Q12") for i in range(5)])
    assert len(writes) == 5 == len(handler.requests)
    assert writes == [len(sent) for sent in handler.requests]
    handler.requests = []
    _assert_head_as_http_client_sends(scorer, handler)
    assert b"Authorization: Basic " in handler.requests[0]


def test_remote_proxied_request_is_the_one_http_client_sends(tmp_path, no_proxy_env, raw_server):
    url, handler = raw_server
    no_proxy_env.setenv("NETRC", str(tmp_path / "none"))
    no_proxy_env.setenv("http_proxy", url.removesuffix("/score").replace("//", "//bob:pw@"))
    # Nothing listens on port 9: only the proxy (the raw server) can answer.
    scorer = RemoteScorer("http://ann:pw@127.0.0.1:9/score", max_retries=0)
    _assert_head_as_http_client_sends(scorer, handler)
    assert handler.requests[0].startswith(b"POST http://127.0.0.1:9/score HTTP/1.1\r\n")
    assert b"Proxy-Authorization: Basic " in handler.requests[0]


def test_remote_tunnelled_request_is_the_one_http_client_sends(
    tmp_path, clean_tls_env, tls_raw_server, connect_proxy
):
    url, handler = tls_raw_server
    proxy, proxy_handler = connect_proxy
    clean_tls_env.setenv("NETRC", str(tmp_path / "none"))
    clean_tls_env.setenv("REQUESTS_CA_BUNDLE", str(TLS_CERT))
    clean_tls_env.setenv("https_proxy", proxy.replace("//", "//bob:pw@"))
    scorer = RemoteScorer(url, max_retries=0)
    _assert_head_as_http_client_sends(scorer, handler)
    assert len(proxy_handler.tunnels) == 2


def test_remote_reads_proxy_environment_only_at_construction(monkeypatch, stub_server):
    url, handler = stub_server
    scorer = RemoteScorer(url)
    scans = []

    def counting(original):
        def wrapper(*args, **kwargs):
            scans.append(args)
            return original(*args, **kwargs)

        return wrapper

    for name in ("getproxies", "proxy_bypass"):
        monkeypatch.setattr(urllib.request, name, counting(getattr(urllib.request, name)))
    scorer.score_many([ScorerRequest(image=f"img{i}", prompt_id="Q2") for i in range(8)])
    scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q2"))
    assert len(handler.calls) == 9
    assert scans == []
    RemoteScorer(url)  # the counters do see a construction
    assert scans


_PROXY_VARS = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")


@pytest.fixture
def no_proxy_env(monkeypatch):
    for name in _PROXY_VARS:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


def _score_through_proxy(env, url, handler, variable):
    env.setenv(variable, url.removesuffix("/score"))
    # Nothing listens on port 9: only the proxy (the stub) can answer.
    scorer = RemoteScorer("http://127.0.0.1:9/score", max_retries=0, timeout=5.0)
    env.delenv(variable)
    resp = scorer.score_many([ScorerRequest(image="a.jpg", prompt_id="Q12")])
    assert resp[0].score == 7
    assert len(handler.calls) == 1
    assert handler.paths == ["http://127.0.0.1:9/score"]  # absolute-URI form


def test_remote_uses_proxy_set_before_construction(no_proxy_env, stub_server):
    _score_through_proxy(no_proxy_env, *stub_server, "http_proxy")


def test_remote_uses_all_proxy_when_no_scheme_proxy_is_set(no_proxy_env, stub_server):
    _score_through_proxy(no_proxy_env, *stub_server, "all_proxy")


def test_remote_ignores_proxy_set_after_construction(no_proxy_env, stub_server):
    url, handler = stub_server
    scorer = RemoteScorer(url, max_retries=0, timeout=5.0)
    # Nothing listens on port 9: a client that read this proxy would fail.
    no_proxy_env.setenv("http_proxy", "http://127.0.0.1:9")
    assert scorer.score_many([ScorerRequest(image="a.jpg", prompt_id="Q12")])[0].score == 7
    assert handler.paths == ["/score"]


def test_remote_skips_proxy_for_no_proxy_hosts(no_proxy_env, stub_server):
    url, handler = stub_server
    no_proxy_env.setenv("http_proxy", "http://127.0.0.1:9")
    no_proxy_env.setenv("no_proxy", "127.0.0.1")
    scorer = RemoteScorer(url, max_retries=0, timeout=5.0)
    assert scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q12")).score == 7


PROXIES = {
    "https://127.0.0.1:3128": "must be an http:// URL",
    "socks5://127.0.0.1:1080": "must be an http:// URL",
    "http://proxy:abc": "is not a valid URL",
}


@pytest.mark.parametrize("proxy", PROXIES)
def test_remote_rejects_a_proxy_it_cannot_use(no_proxy_env, proxy):
    no_proxy_env.setenv("http_proxy", proxy)
    with pytest.raises(ConfigError, match=PROXIES[proxy]):
        RemoteScorer("http://127.0.0.1:9/score")


def _auth_headers(handler):
    return [h.get("Authorization") for h in handler.seen_headers]


def test_remote_sends_netrc_credentials_read_at_construction(tmp_path, monkeypatch, stub_server):
    url, handler = stub_server
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login ann password s3cret\n")
    monkeypatch.setenv("NETRC", str(netrc))
    scorer = RemoteScorer(url)
    netrc.write_text("machine 127.0.0.1 login bob password other\n")
    scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q12"))
    monkeypatch.setenv("NETRC", str(tmp_path / "none"))
    RemoteScorer(url).score(ScorerRequest(image="a.jpg", prompt_id="Q12"))
    user_url = url.replace("//", "//carl:pw@")
    RemoteScorer(user_url).score(ScorerRequest(image="a.jpg", prompt_id="Q12"))
    # A netrc without the host, and one that does not parse, give no credentials.
    monkeypatch.setenv("NETRC", str(netrc))
    for text in ("machine example.org login dan password x\n", "bogus 127.0.0.1\n"):
        netrc.write_text(text)
        RemoteScorer(url).score(ScorerRequest(image="a.jpg", prompt_id="Q12"))
    assert _auth_headers(handler) == [
        "Basic " + base64.b64encode(b"ann:s3cret").decode(),
        None,
        "Basic " + base64.b64encode(b"carl:pw").decode(),
        None,
        None,
    ]


def test_remote_rejects_credentials_that_are_not_latin_1():
    with pytest.raises(ConfigError, match="Latin-1"):
        RemoteScorer("http://\u20ac:pw@127.0.0.1:9/score")


@pytest.fixture
def clean_tls_env(no_proxy_env):
    for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
        no_proxy_env.delenv(name, raising=False)
    return no_proxy_env


@pytest.mark.parametrize("variable", ["REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"])
def test_remote_https_verifies_with_the_ca_bundle_read_at_construction(
    tmp_path, clean_tls_env, tls_stub_server, variable
):
    url, handler = tls_stub_server
    request = ScorerRequest(image="a.jpg", prompt_id="Q12")
    clean_tls_env.setenv(variable, str(TLS_CERT))
    scorer = RemoteScorer(url, max_retries=0)
    clean_tls_env.delenv(variable)
    assert scorer.score_many([request] * 3)[0].score == 7
    assert scorer.score(request).score == 7
    # Without the bundle the self-signed certificate fails verification, and
    # so it does with a CA directory that lacks it.
    with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
        RemoteScorer(url, max_retries=0).score(request)
    clean_tls_env.setenv(variable, str(tmp_path))
    with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
        RemoteScorer(url, max_retries=0).score(request)
    assert len(handler.calls) == 4


def test_remote_https_goes_through_a_connect_tunnel(clean_tls_env, tls_stub_server, connect_proxy):
    url, handler = tls_stub_server
    proxy, proxy_handler = connect_proxy
    clean_tls_env.setenv("REQUESTS_CA_BUNDLE", str(TLS_CERT))
    clean_tls_env.setenv("https_proxy", proxy.replace("//", "//ann:pw@"))
    scorer = RemoteScorer(url, max_retries=0, max_in_flight=2)
    out = scorer.score_many([ScorerRequest(image=f"img{i}", prompt_id="Q12") for i in range(6)])
    assert [r.score for r in out] == [7] * 6
    target = url.removeprefix("https://").removesuffix("/score")
    auth = "Basic " + base64.b64encode(b"ann:pw").decode()
    assert proxy_handler.tunnels in ([(target, auth)], [(target, auth)] * 2)
    assert handler.paths == ["/score"] * 6


def test_remote_rejects_a_ca_bundle_that_cannot_be_read(tmp_path, monkeypatch):
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(tmp_path / "missing.pem"))
    RemoteScorer("http://127.0.0.1:9/score")  # plain http needs no bundle
    with pytest.raises(ConfigError, match="CA bundle"):
        RemoteScorer("https://127.0.0.1:9/score")


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


def test_remote_rejects_an_empty_endpoint():
    with pytest.raises(ConfigError, match="remote backend needs an endpoint URL"):
        RemoteScorer("")


# --- replay ------------------------------------------------------------------


def test_record_then_replay_matches_live(tmp_path, stub_server):
    url, _ = stub_server
    log = tmp_path / "log.jsonl"
    scorer = RemoteScorer(url, log_path=log)
    request = ScorerRequest(image="a.jpg", prompt_id="Q12")
    clarity_req = ScorerRequest(image="a.jpg", prompt_id=LANE_CLARITY_PROMPT_ID)
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
    live_backend = RemoteScorer(url, log_path=log)
    live = with_confidence(collect_assessment(live_backend, "img1"))
    replayed = with_confidence(collect_assessment(ReplayScorer(log), "img1"))
    assert replayed == live


def test_replay_log_preserves_bytes(tmp_path):
    request = ScorerRequest(image="x.jpg", prompt_id="Q2")
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
        RemoteScorer(url).score(request)
    log = tmp_path / "log.jsonl"
    write_replay_log(log, [(request, body)])
    with pytest.raises(ProtocolError, match="'latency_ms' must be a number"):
        ReplayScorer(log).score(request)
    assert parse_response({**body, "latency_ms": 12}, "direct").latency_ms == 12.0


@pytest.mark.parametrize("model", [None, 7, True, ["m"], {"m": 1}], ids=repr)
def test_non_string_model_is_protocol_error(tmp_path, stub_server, model):
    url, handler = stub_server
    body = {"mode": "direct", "score": 3, "model": model}
    handler.behaviors["Q2"] = lambda _: (200, body)
    request = ScorerRequest(image="a.jpg", prompt_id="Q2")
    with pytest.raises(ProtocolError, match="'model' must be a string"):
        RemoteScorer(url).score(request)
    log = tmp_path / "log.jsonl"
    write_replay_log(log, [(request, body)])
    with pytest.raises(ProtocolError, match="'model' must be a string"):
        ReplayScorer(log).score(request)
    assert parse_response({**body, "model": "m"}, "direct").model == "m"
    assert parse_response({"mode": "direct", "score": 3}, "direct").model == ""


def test_parse_response_rejects_unknown_mode():
    with pytest.raises(ProtocolError):
        parse_response({"mode": "direct", "score": 3}, "logits")
    with pytest.raises(ProtocolError):
        parse_response({"score": 3}, "direct")
    logits = {"mode": "logits", "logits": [0.0] * 8 + [50.0] + [0.0] * 2}
    with pytest.raises(ProtocolError, match="does not match request mode 'direct'"):
        parse_response(logits, "direct")
    with pytest.raises(ProtocolError, match="unknown response mode 'logits'"):
        parse_response(logits, "logits")


def test_replay_log_with_a_logits_record_still_replays_the_others(tmp_path):
    direct = ScorerRequest(image="a.jpg", prompt_id="Q2")
    clarity = ScorerRequest(image="a.jpg", prompt_id=LANE_CLARITY_PROMPT_ID)
    answers = [{"mode": "direct", "score": 4}, {"mode": "clarity", "l_clear": 1.5}]
    log = tmp_path / "log.jsonl"
    write_replay_log(log, zip([direct, clarity], answers))
    # A record of the logits mode that requests no longer have, between the two.
    old = json.dumps({
        "key": "a.jpg|Q3|logits",
        "request": {"image": "a.jpg", "prompt_id": "Q3", "mode": "logits"},
        "body": json.dumps({"mode": "logits", "logits": [0.0] * 11}),
    })
    first, second = log.read_text(encoding="utf-8").splitlines(keepends=True)
    log.write_text(f"{first}{old}\n{second}", encoding="utf-8")
    replay = ReplayScorer(log)
    assert replay.score_many([direct, clarity]) == [
        parse_response(answer, answer["mode"]) for answer in answers
    ]


@pytest.mark.parametrize(
    "record",
    [
        "[1, 2]",
        '"text"',
        '{"key": "a.jpg|Q2|direct", "body": {"mode": "direct", "score": 3}}',
        '{"key": 7, "body": "{}"}',
        '{"body": "{}"}',
        "{not json",
    ],
    ids=["array", "string", "object-body", "number-key", "no-key", "not-json"],
)
def test_replay_bad_record_is_protocol_error_naming_its_line(tmp_path, record):
    log = tmp_path / "log.jsonl"
    good = json.dumps({"key": "a.jpg|Q3|direct", "body": "{}"})
    log.write_text(f"{good}\n\n{record}\n")
    with pytest.raises(ProtocolError, match=re.escape(f"{log}:3: bad replay record")):
        ReplayScorer(log)


def test_replay_body_that_is_not_json_is_protocol_error(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_text(json.dumps({"key": "a.jpg|Q3|direct", "body": "{not json"}) + "\n")
    replay = ReplayScorer(log)
    with pytest.raises(ProtocolError, match=re.escape("body for 'a.jpg|Q3|direct' is not JSON")):
        replay.score(ScorerRequest(image="a.jpg", prompt_id="Q3"))


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


@pytest.mark.parametrize("prompt_id", ["Q99", "Q0", "lc", ""])
def test_a_prompt_outside_the_catalog_is_a_config_error_for_every_backend(prompt_id):
    # The request cannot be made, so no backend answers, misses or sends it.
    with pytest.raises(ConfigError, match=f"unknown prompt id {prompt_id!r}"):
        ScorerRequest(image="img", prompt_id=prompt_id)


def test_remote_unknown_prompt_id_is_config_error_before_any_post(stub_server):
    url, handler = stub_server
    scorer = RemoteScorer(url)
    with pytest.raises(ConfigError, match="unknown prompt id 'Q13'"):
        scorer.score(ScorerRequest(image="a.jpg", prompt_id="Q13"))
    with pytest.raises(ConfigError, match="unknown prompt id 'Q13'"):
        scorer.score_many([ScorerRequest(image="a.jpg", prompt_id="Q13")])
    assert handler.calls == []
