"""Scorer backends: remote HTTP client, deterministic synthetic scorer, replay.

All three expose one contract: ``score_many(Sequence[ScorerRequest]) ->
list[ScorerResponse]``, answers in request order; ``score(request)`` is a
batch of one.
A request pairs an image reference with a prompt from the fixed catalog and
asks for one of three answer shapes: the 11 score-level logits, a direct
integer score, or the lane-clarity logit.
"""

from __future__ import annotations

import base64
import concurrent.futures
import hashlib
import json
import math
import os
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    InvalidInputError,
    ProtocolError,
    ReplayMissError,
    ResponseValidationError,
    TransportError,
)
from .scoring import (
    DEGRADATION_FACTORS,
    FactorKind,
    ImageAssessment,
    LogitVector,
    assess_image,
    bounded_number,
    exact_int,
    finite_number,
)

if TYPE_CHECKING:
    import http.client
    import ssl

# Task-guided question catalog. Q1 is the free-form scene description and is
# not bound to any factor; Q2..Q12 each drive exactly one factor score.
PROMPT_TEXTS: dict[str, str] = {
    "Q1": (
        "Provide a detailed description of the scene in the image, focusing on "
        "lane line visibility, the impact of vehicles or obstacles, weather "
        "conditions, and any other factors affecting clarity."
    ),
    "Q2": (
        "Rating blurred image during daytime: [Score 0-10] - Rate the overall "
        "image clarity/sharpness on a scale of 0-10, where 10 is extremely "
        "blurry and 0 is tack sharp."
    ),
    "Q3": (
        "Rating blurred image during nighttime: [Score 0-10] - Rate the image "
        "clarity on a scale of 0-10, considering lane line visibility."
    ),
    "Q4": (
        "Rating blurred lane lines due to Street Lights at Night: [Score 0-10] "
        "- Rate the clarity of lane lines, where 10 is extremely blurred and 0 "
        "is perfectly sharp."
    ),
    "Q5": (
        "Rating Lane Lines Invisibility due to Illumination (strong "
        "sunshine/shadows/darkness): [Score 0-10] - Rate how invisible lane "
        "lines are due to strong illumination effects."
    ),
    "Q6": (
        "Rating Lane Lines Invisibility due to Fog: [Score 0-10] - Rate the "
        "extent to which lane lines are obscured by fog."
    ),
    "Q7": (
        "Rating Lane Lines Invisibility due to Rain: [Score 0-10] - Rate how "
        "blurred lane lines are due to rain."
    ),
    "Q8": (
        "Rating Lane Lines Invisibility due to Snow: [Score 0-10] - Rate how "
        "snow obscures lane lines."
    ),
    "Q9": (
        "Rating Lane Lines Invisibility due to Sandstorm: [Score 0-10] - Rate "
        "how blurred lane lines are due to sand."
    ),
    "Q10": (
        "Rate the condition of lane lines on a scale of 0 to 10, where 0 is "
        "completely worn off and 10 is perfectly clear."
    ),
    "Q11": (
        "Rate the visibility of lane lines blocked by vehicles, where 10 is "
        "fully blocked and 0 is fully visible."
    ),
    "Q12": (
        "Rate the overall visibility of the lanes and lane markings in the "
        "image on a scale of 0-10, where 10 means they are clearly visible, "
        "and 0 means they are completely invisible."
    ),
}

# Separate clarity probe whose answer is a single logit, sigmoid-squashed
# into the lane confidence.
LANE_CLARITY_PROMPT_ID = "LC"
LANE_CLARITY_PROMPT = (
    "How clearly are the lane markings visible in this image? Rate from 0 "
    "(completely invisible) to 1 (fully visible)."
)

# Each factor's prompt: every factor bound, to distinct prompts, Q1 to none.
FACTOR_PROMPTS: dict[FactorKind, str] = {
    FactorKind.BLUR_DAY: "Q2",
    FactorKind.BLUR_NIGHT: "Q3",
    FactorKind.BLUR_STREETLIGHT: "Q4",
    FactorKind.ILLUMINATION: "Q5",
    FactorKind.FOG: "Q6",
    FactorKind.RAIN: "Q7",
    FactorKind.SNOW: "Q8",
    FactorKind.SANDSTORM: "Q9",
    FactorKind.DEGRADATION: "Q10",
    FactorKind.OCCLUSION: "Q11",
    FactorKind.LANE_VISIBILITY: "Q12",
}

# Every prompt a request may name, by id: the catalog plus the clarity probe.
_REQUEST_PROMPTS: dict[str, str] = {**PROMPT_TEXTS, LANE_CLARITY_PROMPT_ID: LANE_CLARITY_PROMPT}

PROMPT_FACTORS: dict[str, FactorKind] = {v: k for k, v in FACTOR_PROMPTS.items()}

MODES = ("logits", "direct", "clarity")


@dataclass(frozen=True)
class ScorerRequest:
    image: str  # path or opaque reference
    prompt_id: str
    mode: str = "direct"

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidInputError(f"unknown request mode {self.mode!r}")

    def key(self) -> str:
        return f"{self.image}|{self.prompt_id}|{self.mode}"


@dataclass(frozen=True)
class ScorerResponse:
    mode: str
    score: int | None = None
    logits: LogitVector | None = None
    l_clear: float | None = None
    model: str = ""
    latency_ms: float = 0.0

    def payload(self) -> int | LogitVector | float:
        if self.mode == "direct":
            return self.score
        if self.mode == "logits":
            return self.logits
        return self.l_clear


def parse_response(data: dict, expected_mode: str, *, source: str = "backend") -> ScorerResponse:
    """Validate a decoded response body against the wire contract."""
    if not isinstance(data, dict) or "mode" not in data:
        raise ProtocolError(f"{source}: response missing 'mode'")
    mode = data["mode"]
    if mode != expected_mode:
        raise ProtocolError(
            f"{source}: response mode {mode!r} does not match request mode {expected_mode!r}"
        )
    model = str(data.get("model", ""))
    try:
        latency = finite_number(data.get("latency_ms", 0.0), "'latency_ms'")
        if mode == "direct":
            score = exact_int(data.get("score"), "'score'")
            if not 0 <= score <= 10:
                raise ResponseValidationError(f"{source}: score {score} outside 0..10")
            return ScorerResponse(mode=mode, score=score, model=model, latency_ms=latency)
        if mode == "logits":
            raw = data.get("logits")
            if not isinstance(raw, list):
                raise ProtocolError(f"{source}: logits response needs a 'logits' list")
            logits = LogitVector(raw)
            return ScorerResponse(mode=mode, logits=logits, model=model, latency_ms=latency)
        if mode == "clarity":
            l_clear = finite_number(data.get("l_clear"), "'l_clear'")
            return ScorerResponse(mode=mode, l_clear=l_clear, model=model, latency_ms=latency)
    except InvalidInputError as exc:
        raise ProtocolError(f"{source}: {exc}") from exc
    raise ProtocolError(f"{source}: unknown response mode {mode!r}")


# --- synthetic scorer -------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Declared truth for synthetic scoring: per-factor score ranges and the
    geometric noise that goes with them."""

    name: str
    factor_ranges: Mapping[FactorKind, tuple[int, int]]
    noise_sigma: float = 0.0

    def __post_init__(self):
        ranges = {}
        for factor, (lo, hi) in dict(self.factor_ranges).items():
            where = f"scenario {self.name!r}: {factor.key} range"
            lo, hi = exact_int(lo, where), exact_int(hi, where)
            if not (0 <= lo <= hi <= 10):
                raise InvalidInputError(
                    f"scenario {self.name!r}: bad range {lo}..{hi} for {factor.key}"
                )
            ranges[factor] = (lo, hi)
        object.__setattr__(self, "factor_ranges", ranges)
        sigma = bounded_number(self.noise_sigma, "noise_sigma", 0.0)
        object.__setattr__(self, "noise_sigma", sigma)

    def range_for(self, factor: FactorKind) -> tuple[int, int]:
        return self.factor_ranges.get(factor, (0, 0))


def _rng_for(seed: int, image_id: str, prompt_id: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}|{image_id}|{prompt_id}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def _clarity_logit(s_l: int) -> float:
    # Inverse sigmoid of s_l/10; saturated ends use large finite logits.
    if s_l <= 0:
        return -40.0
    if s_l >= 10:
        return 40.0
    p = s_l / 10.0
    return math.log(p / (1.0 - p))


def synthetic_score(
    scenario: Scenario,
    seed: int,
    image_id: str,
    prompt_id: str,
    mode: str = "direct",
) -> ScorerResponse:
    """Deterministic fake scorer: draws inside the scenario's declared ranges.

    The same (seed, image_id, prompt_id) always yields the same response.
    """
    rng = _rng_for(seed, image_id, prompt_id)
    if mode == "clarity" or prompt_id == LANE_CLARITY_PROMPT_ID:
        lo, hi = scenario.range_for(FactorKind.LANE_VISIBILITY)
        target = int(rng.integers(lo, hi + 1))
        return ScorerResponse(mode="clarity", l_clear=_clarity_logit(target), model="synthetic")
    factor = PROMPT_FACTORS.get(prompt_id)
    if factor is None:
        raise ConfigError(f"prompt {prompt_id!r} is not bound to a factor")
    lo, hi = scenario.range_for(factor)
    value = int(rng.integers(lo, hi + 1))
    if mode == "direct":
        return ScorerResponse(mode="direct", score=value, model="synthetic")
    logits = [0.0] * 11
    logits[value] = 50.0  # effectively one-hot after softmax
    return ScorerResponse(mode="logits", logits=LogitVector(logits), model="synthetic")


class SyntheticScorer:
    """Backend wrapper around synthetic_score for one scenario."""

    def __init__(self, scenario: Scenario, seed: int = 0):
        self.scenario = scenario
        self.seed = exact_int(seed, "seed")  # hashed, so any integer works

    def score(self, request: ScorerRequest) -> ScorerResponse:
        return synthetic_score(
            self.scenario, self.seed, request.image, request.prompt_id, request.mode
        )

    def score_many(self, requests_: Sequence[ScorerRequest]) -> list[ScorerResponse]:
        return [self.score(r) for r in requests_]


# --- remote scorer ----------------------------------------------------------


def check_remote_settings(
    max_retries: int, timeout: float, max_in_flight: int, backoff: float = 0.0
) -> tuple[int, float, int, float]:
    """The remote client's settings by the number rule, as (max_retries,
    timeout, max_in_flight, backoff); the INI file sets no backoff. One that
    cannot work is a ConfigError instead of being clamped or converted."""
    return (
        bounded_number(max_retries, "max_retries", 0, error=ConfigError),
        bounded_number(timeout, "timeout", 0.0, exclusive=True, error=ConfigError),
        bounded_number(max_in_flight, "max_in_flight", 1, error=ConfigError),
        bounded_number(backoff, "backoff", 0.0, error=ConfigError),
    )


def _basic_auth(user: str, password: str, where: str) -> str:
    try:
        token = base64.b64encode(f"{user}:{password}".encode("latin-1")).decode("ascii")
    except UnicodeEncodeError:
        raise ConfigError(f"{where}: credentials must be Latin-1 text")
    return f"Basic {token}"


def _url_credentials(parts: urllib.parse.SplitResult) -> tuple[str, str] | None:
    if parts.username is None or parts.password is None:
        return None
    return urllib.parse.unquote(parts.username), urllib.parse.unquote(parts.password)


def _netrc_credentials(host: str) -> tuple[str, str] | None:
    """(login, password) for ``host`` from ``$NETRC``, else ``~/.netrc`` or
    ``~/_netrc``; None when there is no such file, entry or readable file."""
    import netrc

    named = os.environ.get("NETRC")
    for candidate in (named,) if named is not None else ("~/.netrc", "~/_netrc"):
        path = os.path.expanduser(candidate)
        if os.path.exists(path):
            break
    else:
        return None
    try:
        entry = netrc.netrc(path).authenticators(host)
    except (netrc.NetrcParseError, OSError):
        return None
    if not entry:
        return None
    login, account, password = entry
    return login or account, password


def _tls_context() -> ssl.SSLContext:
    """Verifying TLS with the CA bundle in ``REQUESTS_CA_BUNDLE``, else
    ``CURL_CA_BUNDLE``, else certifi's (the system store without certifi)."""
    import ssl

    bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    if not bundle:
        try:
            import certifi
        except ImportError:
            return ssl.create_default_context()
        bundle = certifi.where()
    try:
        if os.path.isdir(bundle):
            return ssl.create_default_context(capath=bundle)
        return ssl.create_default_context(cafile=bundle)
    except OSError as exc:
        raise ConfigError(f"CA bundle {bundle}: {exc}")


@dataclass(frozen=True)
class _Route:
    """How every request to one endpoint is sent: where to connect, the
    request target and the headers. Resolved once, by ``_resolve_endpoint``."""

    host: str
    port: int | None
    target: str
    headers: Mapping[str, str]
    tls: ssl.SSLContext | None = None
    tunnel: tuple[str, int | None, dict[str, str]] | None = None

    def connect(self, timeout: float) -> http.client.HTTPConnection:
        """A new keep-alive connection; its socket opens with the first request."""
        import http.client

        if self.tls is None:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        else:
            conn = http.client.HTTPSConnection(
                self.host, self.port, timeout=timeout, context=self.tls
            )
        if self.tunnel is not None:
            conn.set_tunnel(*self.tunnel)
        return conn

    def post(self, conn: http.client.HTTPConnection, body: bytes) -> tuple[int, str]:
        """POST ``body`` on ``conn`` and read the whole reply: its status and
        body text. A kept-alive connection that the server has closed is
        reopened once, without counting as an attempt."""
        reused = conn.sock is not None
        try:
            conn.request("POST", self.target, body, self.headers)
            reply = conn.getresponse()
        except ConnectionError:
            if not reused:
                raise
            conn.close()
            conn.request("POST", self.target, body, self.headers)
            reply = conn.getresponse()
        raw = reply.read()
        # The body's declared charset, else UTF-8; undecodable bytes become U+FFFD.
        charset = reply.headers.get_content_charset() or "utf-8"
        try:
            text = raw.decode(charset, errors="replace")
        except LookupError:
            text = raw.decode("utf-8", errors="replace")
        return reply.status, text


def _resolve_endpoint(endpoint: str) -> _Route:
    """The route to ``endpoint``, reading the environment once.

    An endpoint that no request could reach is a ``ConfigError``: one that
    does not parse, has no scheme, a scheme other than http or https, or no
    host. The proxy is the one ``urllib.request.getproxies()`` names for the
    endpoint's scheme (``http_proxy``, ``https_proxy``), else ``all_proxy``,
    unless ``urllib.request.proxy_bypass()`` (``no_proxy``) exempts the host.
    An http endpoint is then reached by sending absolute-URI requests to the
    proxy, an https one through a CONNECT tunnel. https verifies against
    ``_tls_context``'s CA bundle. netrc credentials for the host, else those
    in the URL, are sent as a Basic ``Authorization`` header.
    """
    import urllib.request

    try:
        parts = urllib.parse.urlsplit(endpoint)
        port = parts.port  # raises ValueError on a port that is not a number
    except ValueError as exc:
        raise ConfigError(f"endpoint {endpoint!r} is not a valid URL: {exc}")
    if parts.scheme not in ("http", "https"):
        raise ConfigError(f"endpoint {endpoint!r} must be an http:// or https:// URL")
    host = parts.hostname
    if not host:
        raise ConfigError(f"endpoint {endpoint!r} names no host")
    target = urllib.parse.quote(parts.path or "/", safe="!#$%&'()*+,/:;=?@[]~")
    if parts.query:
        target += f"?{parts.query}"
    headers = {"Content-Type": "application/json"}
    credentials = _netrc_credentials(host) or _url_credentials(parts)
    if credentials:
        headers["Authorization"] = _basic_auth(*credentials, where=f"endpoint {host}")
    tls = _tls_context() if parts.scheme == "https" else None
    proxy = None
    if not urllib.request.proxy_bypass(host):
        proxies = urllib.request.getproxies()
        proxy = proxies.get(parts.scheme) or proxies.get("all")
    if not proxy:
        return _Route(host, port, target, headers, tls)
    proxy_parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    try:
        proxy_port = proxy_parts.port
    except ValueError as exc:
        raise ConfigError(f"proxy {proxy!r} for {endpoint!r} is not a valid URL: {exc}")
    if proxy_parts.scheme != "http" or not proxy_parts.hostname:
        raise ConfigError(f"proxy {proxy!r} for {endpoint!r} must be an http:// URL with a host")
    proxy_headers = {}
    proxy_credentials = _url_credentials(proxy_parts)
    if proxy_credentials:
        proxy_headers["Proxy-Authorization"] = _basic_auth(
            *proxy_credentials, where=f"proxy {proxy_parts.hostname}"
        )
    if tls is None:
        absolute = f"http://{parts.netloc.rpartition('@')[2]}{target}"
        return _Route(proxy_parts.hostname, proxy_port, absolute, {**headers, **proxy_headers})
    tunnel = (host, port, proxy_headers)
    return _Route(proxy_parts.hostname, proxy_port, target, headers, tls, tunnel)


class RemoteScorer:
    """HTTP client for an external scoring service.

    POSTs one JSON body per (image, prompt) over keep-alive connections and
    retries transient failures (connection errors, timeouts, 5xx) with
    exponential backoff, at most ``max_retries`` times. When ``log_path`` is
    set every successful exchange is appended to a JSONL replay log, raw body
    included, in request order.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        max_retries: int = 3,
        backoff: float = 0.2,
        timeout: float = 10.0,
        max_in_flight: int = 4,
        log_path=None,
    ):
        if not endpoint:
            raise ConfigError("remote backend needs an endpoint URL")
        self._route = _resolve_endpoint(endpoint)
        self.endpoint = endpoint
        self.max_retries, self.timeout, self.max_in_flight, self.backoff = check_remote_settings(
            max_retries, timeout, max_in_flight, backoff
        )
        self.log_path = Path(log_path) if log_path else None
        # The log file appears with its first record; one that could never be
        # written fails here, before any request is sent.
        if self.log_path is not None and self.log_path.is_dir():
            raise ConfigError(f"record log {self.log_path} is a directory")
        if self.log_path is not None and not self.log_path.parent.is_dir():
            raise ConfigError(f"record log {self.log_path}: no directory {self.log_path.parent}")

    def _exchange(
        self, request: ScorerRequest, conn: http.client.HTTPConnection
    ) -> tuple[ScorerResponse, str]:
        """POST one request on ``conn`` with retries; returns the parsed
        response and the raw body. Writes nothing, so worker threads can run
        it, each on its own connection."""
        import http.client

        prompt = _REQUEST_PROMPTS.get(request.prompt_id)
        if prompt is None:
            raise ConfigError(f"unknown prompt id {request.prompt_id!r}")
        body = json.dumps({
            "image": request.image,
            "prompt_id": request.prompt_id,
            "prompt": prompt,
            "mode": request.mode,
        }).encode()
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                status, text = self._route.post(conn, body)
            except (OSError, http.client.HTTPException) as exc:
                conn.close()  # the next attempt starts on a new connection
                last_error = exc
                continue
            if status >= 500:
                last_error = TransportError(f"{self.endpoint}: server error {status}")
                continue
            if status != 200:
                raise ProtocolError(f"{self.endpoint}: unexpected status {status}")
            try:
                data = json.loads(text)
            except ValueError as exc:
                raise ProtocolError(f"{self.endpoint}: response is not JSON") from exc
            return parse_response(data, request.mode, source=self.endpoint), text
        raise TransportError(
            f"{self.endpoint}: gave up after {self.max_retries + 1} attempts: {last_error}"
        )

    def score(self, request: ScorerRequest) -> ScorerResponse:
        return self.score_many([request])[0]

    def score_many(self, requests_: Sequence[ScorerRequest]) -> list[ScorerResponse]:
        """At most ``max_in_flight`` requests at once, each worker on its own
        keep-alive connection; responses come back, and log records are
        written, in request order. Every connection is closed on return.

        If a request fails, the records before it are logged, requests not yet
        started are cancelled and its error is raised.
        """
        requests_ = list(requests_)
        if not requests_:
            return []
        # Requests after a failed one are skipped: their answers go unused.
        first_failed = len(requests_)
        lock = threading.Lock()
        worker = threading.local()
        conns: list[http.client.HTTPConnection] = []

        def exchange(index: int):
            nonlocal first_failed
            if index > first_failed:
                return None  # never read: an earlier request's error is raised
            conn = getattr(worker, "conn", None)
            if conn is None:
                conn = worker.conn = self._route.connect(self.timeout)
                with lock:
                    conns.append(conn)
            try:
                return self._exchange(requests_[index], conn)
            except BaseException:
                with lock:
                    first_failed = min(first_failed, index)
                raise

        done: list[tuple[ScorerResponse, str]] = []
        pool = concurrent.futures.ThreadPoolExecutor(min(self.max_in_flight, len(requests_)))
        try:
            futures = [pool.submit(exchange, i) for i in range(len(requests_))]
            for future in futures:
                done.append(future.result())
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
            for conn in conns:
                conn.close()
            self._log(zip(requests_, (text for _, text in done)))
        return [parsed for parsed, _ in done]

    def _log(self, exchanges: Iterable[tuple[ScorerRequest, str]]) -> None:
        if self.log_path is None:
            return
        lines = [_log_line(request, body_text) for request, body_text in exchanges]
        if lines:
            with open(self.log_path, "a", encoding="utf-8") as fh:
                fh.writelines(lines)


# --- replay scorer ----------------------------------------------------------


class ReplayScorer:
    """Replays a recorded JSONL log; no network, byte-identical bodies."""

    def __init__(self, log_path):
        self.log_path = Path(log_path)
        self._records: dict[str, str] = {}
        try:
            text = self.log_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ConfigError(f"replay log {self.log_path} does not exist")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"replay log {self.log_path} cannot be read: {exc}")
        for line_no, line in enumerate(text.split("\n"), 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ProtocolError(f"{self.log_path}:{line_no}: bad replay record: {exc}")
            if not (
                isinstance(record, dict)
                and isinstance(record.get("key"), str)
                and isinstance(record.get("body"), str)
            ):
                raise ProtocolError(
                    f"{self.log_path}:{line_no}: bad replay record: "
                    "not an object with string 'key' and 'body'"
                )
            self._records[record["key"]] = record["body"]

    def raw_body(self, request: ScorerRequest) -> str:
        body = self._records.get(request.key())
        if body is None:
            raise ReplayMissError(f"no recorded response for {request.key()!r}")
        return body

    def score(self, request: ScorerRequest) -> ScorerResponse:
        body = self.raw_body(request)
        try:
            data = json.loads(body)
        except ValueError as exc:
            raise ProtocolError(f"replay body for {request.key()!r} is not JSON") from exc
        return parse_response(data, request.mode, source=str(self.log_path))

    def score_many(self, requests_: Sequence[ScorerRequest]) -> list[ScorerResponse]:
        return [self.score(r) for r in requests_]


def _log_line(request: ScorerRequest, body_text: str) -> str:
    """One replay-log record: the request's key and fields plus the raw body."""
    record = {
        "key": request.key(),
        "request": {
            "image": request.image,
            "prompt_id": request.prompt_id,
            "mode": request.mode,
        },
        "body": body_text,
    }
    return json.dumps(record) + "\n"


# --- assessment via a backend ----------------------------------------------


def collect_assessments(
    backend,
    images: Sequence[tuple[str, float]],
    *,
    factors: Iterable[FactorKind] = DEGRADATION_FACTORS,
) -> list[ImageAssessment]:
    """Assess every ``(image_id, timestamp)`` with one ``score_many`` call.

    Each image asks one ``"direct"`` question per active factor, in the order
    given, then the lane-clarity probe, which answers lane visibility. The
    answers are folded per image, in the order given.
    """
    factors = [f for f in factors if f is not FactorKind.LANE_VISIBILITY]
    batch = []
    for image_id, _ in images:
        batch += [ScorerRequest(image_id, FACTOR_PROMPTS[f]) for f in factors]
        batch.append(ScorerRequest(image_id, LANE_CLARITY_PROMPT_ID, "clarity"))
    responses = backend.score_many(batch)
    per_image = len(factors) + 1
    assessments = []
    for i, (image_id, timestamp) in enumerate(images):
        *answers, clarity = responses[i * per_image : (i + 1) * per_image]
        outputs = {factor: answer.payload() for factor, answer in zip(factors, answers)}
        assessments.append(
            assess_image(image_id, outputs, clarity.l_clear, timestamp=timestamp, factors=factors)
        )
    return assessments


def collect_assessment(
    backend,
    image_id: str,
    *,
    factors: Iterable[FactorKind] = DEGRADATION_FACTORS,
    timestamp: float = 0.0,
) -> ImageAssessment:
    """Assess one image: ``collect_assessments`` for a batch of one."""
    return collect_assessments(backend, [(image_id, timestamp)], factors=factors)[0]
