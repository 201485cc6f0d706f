"""Scorer backends: remote HTTP client, deterministic synthetic scorer, replay.

All three expose one contract: ``score_many(Sequence[ScorerRequest]) ->
list[ScorerResponse]``, answers in request order; ``score(request)`` is a
batch of one.
A request pairs an image reference with a catalog prompt, which fixes its
``mode``: the lane-clarity logit for the clarity probe, which alone answers
lane visibility, else a direct integer score. A prompt id outside the
catalog is a ConfigError when the request is made, whatever the backend.
The synthetic scorer's ``Scenario`` (a range per factor plus the clarity
probe's lane visibility range), the standard ladder of them and
``scenario_from_mapping`` (for the INI and JSON configs) live here too.
The remote scorer's record log, which the replay scorer reads, holds one
JSON line per answer: the request's key and the raw body text.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import math
import os
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
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
    FACTOR_BY_KEY,
    FactorKind,
    ImageAssessment,
    assess_image,
    bounded_number,
    exact_int,
    finite_number,
)

if TYPE_CHECKING:
    import http.client
    import ssl

# Task-guided question catalog. Q2..Q11 each drive exactly one factor score.
# Q1, the free-form scene description, and Q12, the overall lane visibility
# rating, are bound to no factor: lane visibility comes from the clarity probe.
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

# Each factor's prompt: every factor bound, to distinct prompts; Q1 and Q12 to none.
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
}

# Every prompt a request may name, by id: the catalog plus the clarity probe.
_REQUEST_PROMPTS: dict[str, str] = {**PROMPT_TEXTS, LANE_CLARITY_PROMPT_ID: LANE_CLARITY_PROMPT}

PROMPT_FACTORS: dict[str, FactorKind] = {v: k for k, v in FACTOR_PROMPTS.items()}


@dataclass(frozen=True)
class ScorerRequest:
    image: str  # path or opaque reference
    prompt_id: str  # a catalog prompt or the clarity probe; it fixes ``mode``

    def __post_init__(self):
        if self.prompt_id not in _REQUEST_PROMPTS:
            raise ConfigError(f"unknown prompt id {self.prompt_id!r}")

    @property
    def mode(self) -> str:
        return "clarity" if self.prompt_id == LANE_CLARITY_PROMPT_ID else "direct"

    def key(self) -> str:
        return f"{self.image}|{self.prompt_id}|{self.mode}"


@dataclass(frozen=True)
class ScorerResponse:
    mode: str
    score: int | None = None
    l_clear: float | None = None
    model: str = ""
    latency_ms: float = 0.0


def parse_response(data: dict, expected_mode: str, *, source: str = "backend") -> ScorerResponse:
    """Validate a decoded response body against the wire contract."""
    if not isinstance(data, dict) or "mode" not in data:
        raise ProtocolError(f"{source}: response missing 'mode'")
    mode = data["mode"]
    if mode != expected_mode:
        raise ProtocolError(
            f"{source}: response mode {mode!r} does not match request mode {expected_mode!r}"
        )
    model = data.get("model", "")
    if not isinstance(model, str):
        raise ProtocolError(f"{source}: 'model' must be a string, got {model!r}")
    try:
        latency = finite_number(data.get("latency_ms", 0.0), "'latency_ms'")
        if mode == "direct":
            score = exact_int(data.get("score"), "'score'")
            if not 0 <= score <= 10:
                raise ResponseValidationError(f"{source}: score {score} outside 0..10")
            return ScorerResponse(mode=mode, score=score, model=model, latency_ms=latency)
        if mode == "clarity":
            l_clear = finite_number(data.get("l_clear"), "'l_clear'")
            return ScorerResponse(mode=mode, l_clear=l_clear, model=model, latency_ms=latency)
    except InvalidInputError as exc:
        raise ProtocolError(f"{source}: {exc}") from exc
    raise ProtocolError(f"{source}: unknown response mode {mode!r}")


# --- synthetic scorer -------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Declared truth for synthetic scoring: per-factor score ranges, the lane
    visibility range the clarity probe answers from, and the geometric noise
    that goes with them. An unnamed factor, and an unset visibility, is 0."""

    name: str
    factor_ranges: Mapping[FactorKind, tuple[int, int]] = field(default_factory=dict)
    noise_sigma: float = 0.0
    visibility: tuple[int, int] = (0, 0)

    def _range(self, key: str, bounds) -> tuple[int, int]:
        where = f"scenario {self.name!r}: {key} range"
        if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2):
            raise InvalidInputError(f"{where} must be a list [lo, hi], got {bounds!r}")
        lo, hi = (exact_int(v, where) for v in bounds)
        if not (0 <= lo <= hi <= 10):
            raise InvalidInputError(f"scenario {self.name!r}: bad range {lo}..{hi} for {key}")
        return lo, hi

    def __post_init__(self):
        for f in self.factor_ranges:
            if not isinstance(f, FactorKind):
                raise InvalidInputError(f"scenario {self.name!r}: unknown factor {f!r}")
        ranges = {f: self._range(f.key, r) for f, r in dict(self.factor_ranges).items()}
        object.__setattr__(self, "factor_ranges", ranges)
        object.__setattr__(self, "visibility", self._range("lane_visibility", self.visibility))
        sigma = bounded_number(self.noise_sigma, "noise_sigma", 0.0)
        object.__setattr__(self, "noise_sigma", sigma)

    def range_for(self, factor: FactorKind) -> tuple[int, int]:
        return self.factor_ranges.get(factor, (0, 0))


# Scenario ladder used by the standard config. Visibility bands are disjoint
# so confidence ranking reproduces the noise ordering; sigma grows as
# conditions worsen, which is what ties confidence to geometric quality.
STANDARD_SCENARIOS: tuple[Scenario, ...] = (
    Scenario(name="pristine", visibility=(9, 10), noise_sigma=0.05),
    Scenario(
        name="clean",
        visibility=(9, 9),
        factor_ranges={FactorKind.BLUR_DAY: (0, 1), FactorKind.ILLUMINATION: (0, 1)},
        noise_sigma=0.055,
    ),
    Scenario(
        name="bright",
        visibility=(8, 8),
        factor_ranges={FactorKind.BLUR_DAY: (0, 2), FactorKind.ILLUMINATION: (1, 2)},
        noise_sigma=0.06,
    ),
    Scenario(
        name="hazy",
        visibility=(6, 7),
        factor_ranges={FactorKind.BLUR_DAY: (1, 3), FactorKind.ILLUMINATION: (2, 4)},
        noise_sigma=0.2,
    ),
    Scenario(
        name="worn",
        visibility=(5, 6),
        factor_ranges={FactorKind.BLUR_DAY: (2, 4), FactorKind.DEGRADATION: (2, 5)},
        noise_sigma=0.24,
    ),
    Scenario(
        name="murky",
        visibility=(3, 4),
        factor_ranges={
            FactorKind.BLUR_DAY: (4, 6),
            FactorKind.ILLUMINATION: (4, 6),
            FactorKind.OCCLUSION: (2, 4),
        },
        noise_sigma=0.42,
    ),
    Scenario(
        name="night-storm",
        visibility=(1, 3),
        factor_ranges={
            FactorKind.BLUR_NIGHT: (5, 8),
            FactorKind.RAIN: (5, 8),
            FactorKind.FOG: (3, 6),
        },
        noise_sigma=0.55,
    ),
)

SCENARIOS_BY_NAME: dict[str, Scenario] = {s.name: s for s in STANDARD_SCENARIOS}


def scenario_from_mapping(name: str, ranges: Mapping, sigma: float, where: str) -> Scenario:
    """A Scenario from {factor key: (lo, hi)}, where the key ``lane_visibility``
    gives the visibility range, and a noise sigma, for the INI and the JSON
    config alike; a bad value is a ConfigError prefixed by ``where``."""
    ranges = dict(ranges)
    visibility = ranges.pop("lane_visibility", (0, 0))
    try:
        factor_ranges = {FACTOR_BY_KEY.get(key, key): r for key, r in ranges.items()}
        return Scenario(name, factor_ranges, sigma, visibility)
    except InvalidInputError as exc:
        raise ConfigError(f"{where}: {exc}")


def _draw(bounds: tuple[int, int], seed: int, image_id: str, prompt_id: str) -> int:
    """An integer in the closed range ``bounds``, drawn from a generator seeded
    by the request. A range of one value needs no generator."""
    lo, hi = bounds
    if lo == hi:
        return lo
    digest = hashlib.sha256(f"{seed}|{image_id}|{prompt_id}".encode()).digest()
    return int(np.random.default_rng(int.from_bytes(digest[:8], "big")).integers(lo, hi + 1))


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

    The same (seed, image_id, prompt_id) always yields the same response. A
    clarity request gets the lane-clarity answer; a direct request must name
    a factor's prompt. Any other mode is an InvalidInputError.
    """
    if mode == "clarity":
        target = _draw(scenario.visibility, seed, image_id, prompt_id)
        return ScorerResponse(mode="clarity", l_clear=_clarity_logit(target), model="synthetic")
    if mode != "direct":
        raise InvalidInputError(f"unknown request mode {mode!r}")
    factor = PROMPT_FACTORS.get(prompt_id)
    if factor is None:
        raise ConfigError(f"prompt {prompt_id!r} is not bound to a factor")
    value = _draw(scenario.range_for(factor), seed, image_id, prompt_id)
    return ScorerResponse(mode="direct", score=value, model="synthetic")


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


RETRY_BACKOFF = 0.2  # seconds before the first retry; each later retry waits twice as long


def check_remote_settings(
    max_retries: int, timeout: float, max_in_flight: int
) -> tuple[int, float, int]:
    """The remote client's settings by the number rule, as (max_retries,
    timeout, max_in_flight). One that cannot work is a ConfigError instead of
    being clamped or converted."""
    return (
        bounded_number(max_retries, "max_retries", 0, error=ConfigError),
        bounded_number(timeout, "timeout", 0.0, exclusive=True, error=ConfigError),
        bounded_number(max_in_flight, "max_in_flight", 1, error=ConfigError),
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


# http.client's limits on a reply: the longest line, and the most lines in
# a header block, its blank end line included.
_MAX_LINE = 65536
_MAX_HEADER_LINES = 100


def _host_header(host: str, port: int, default_port: int) -> str:
    """The Host value http.client sends to ``host``:``port``: an IPv6 address
    in brackets without its zone, the port unless it is the scheme's."""
    if ":" in host:
        host = f"[{host.partition('%')[0]}]"
    return host if port == default_port else f"{host}:{port}"


def _ascii_host(name: str, endpoint: str) -> str:
    """``name`` as it goes into the Host header: IDNA when it is not ASCII."""
    if name.isascii():
        return name
    try:
        return name.encode("idna").decode("ascii")
    except UnicodeError as exc:
        raise ConfigError(f"endpoint {endpoint!r}: host {name!r} has no IDNA form: {exc}")


class _Connection:
    """One keep-alive connection. ``http.client`` opens it, with TLS and the
    CONNECT tunnel where the route has them; each request is then one write
    to its socket, and every reply is read from one buffered reader."""

    def __init__(self, opener: http.client.HTTPConnection):
        self._opener = opener
        self._reader = None

    @property
    def sock(self):
        """The open socket, or None once closed (or before the first request)."""
        return self._opener.sock

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        self._opener.close()

    def post(self, message: bytes) -> tuple[int, str]:
        """Send ``message`` in one write, opening the connection first if it
        is closed, and read the whole reply after any 1xx replies: its status
        and its body text, in the declared charset, else UTF-8 (undecodable
        bytes become U+FFFD). The body is framed by chunked coding,
        Content-Length or the end of the connection, which is closed after a
        reply that ends it, says ``Connection: close`` or is HTTP/1.0. A
        kept-alive connection that the server has closed is reopened once, for
        the send and the head only."""
        for reused in (self._reader is not None, False):
            try:
                if self._reader is None:
                    self._opener.connect()
                    self._reader = self._opener.sock.makefile("rb")
                self._opener.sock.sendall(message)
                status = 100
                while status < 200:
                    line = self._line("status line")
                    version, _, rest = line.partition(b" ")
                    code = rest[:3]
                    status = int(code) if code.isdigit() and len(code) == 3 else 0
                    if status < 100 or rest[3:4] not in b" \r\n" or version[:7] != b"HTTP/1.":
                        import http.client

                        if not line:
                            raise http.client.RemoteDisconnected(
                                "Remote end closed connection without response"
                            )
                        raise http.client.BadStatusLine(line.decode("latin-1"))
                    fields = self._fields()
                break
            except ConnectionError:
                if not reused:
                    raise
                self.close()
        close = version == b"HTTP/1.0" or b"close" in fields.get(b"connection", b"").lower()
        coding = fields.get(b"transfer-encoding")
        length = fields.get(b"content-length")
        if status in (204, 304):
            body = b""
        elif coding is not None and coding.rpartition(b",")[2].strip().lower() == b"chunked":
            body = self._chunked()
        elif coding is None and length is not None:
            if not length.isdigit():
                import http.client

                raise http.client.HTTPException(f"bad Content-Length {length!r}")
            body = self._exactly(int(length))
        else:
            body, close = self._reader.read(), True
        if close:
            self.close()
        try:
            return status, body.decode(_charset(fields.get(b"content-type", b"")), errors="replace")
        except LookupError:
            return status, body.decode("utf-8", errors="replace")

    def _line(self, kind: str) -> bytes:
        line = self._reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            import http.client

            raise http.client.LineTooLong(kind)
        return line

    def _fields(self) -> dict[bytes, bytes]:
        """Header (or trailer) fields up to the blank line that ends them."""
        fields: dict[bytes, bytes] = {}
        for _ in range(_MAX_HEADER_LINES):
            line = self._line("header line")
            if line in (b"\r\n", b"\n", b""):
                return fields
            name, _, value = line.partition(b":")
            fields.setdefault(name.strip().lower(), value.strip())
        import http.client

        raise http.client.HTTPException(f"got more than {_MAX_HEADER_LINES} headers")

    def _exactly(self, size: int) -> bytes:
        """``size`` bytes, read a MiB at a time: memory grows with the bytes
        that arrive, not with the size a reply declares."""
        parts, left = [], size
        while left:
            part = self._reader.read(min(left, 1 << 20))
            if not part:
                import http.client

                raise http.client.IncompleteRead(b"".join(parts), left)
            parts.append(part)
            left -= len(part)
        return b"".join(parts)

    def _chunked(self) -> bytes:
        import http.client

        chunks = []
        while True:
            size = self._line("chunk size").partition(b";")[0].strip()
            if not size or size.strip(b"0123456789abcdefABCDEF"):
                raise http.client.IncompleteRead(b"".join(chunks))
            size = int(size, 16)
            if size == 0:
                self._fields()  # the trailer
                return b"".join(chunks)
            chunk = self._exactly(size + 2)
            if chunk[-2:] != b"\r\n":
                raise http.client.IncompleteRead(b"".join(chunks))
            chunks.append(chunk[:-2])


@dataclass(frozen=True)
class _Route:
    """How every request to one endpoint is sent: where to connect, the
    request target, the Host value and the other headers. Resolved once, by
    ``_resolve_endpoint``; the request head around each Content-Length value
    is built here, once."""

    host: str
    port: int
    target: str
    authority: str
    headers: Mapping[str, str]
    tls: ssl.SSLContext | None = None
    tunnel: tuple[str, int, dict[str, str]] | None = None

    def __post_init__(self):
        # The head http.client sends: request line, Host, Accept-Encoding,
        # Content-Length, then the route's headers.
        start = (
            f"POST {self.target} HTTP/1.1\r\nHost: {self.authority}\r\n"
            "Accept-Encoding: identity\r\nContent-Length: "
        )
        end = "".join(f"\r\n{name}: {value}" for name, value in self.headers.items())
        head = (start.encode("latin-1"), f"{end}\r\n\r\n".encode("latin-1"))
        object.__setattr__(self, "_head", head)

    def connect(self, timeout: float) -> _Connection:
        """A new keep-alive connection; its socket opens with the first request."""
        import http.client

        if self.tls is None:
            opener = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        else:
            opener = http.client.HTTPSConnection(
                self.host, self.port, timeout=timeout, context=self.tls
            )
        if self.tunnel is not None:
            opener.set_tunnel(*self.tunnel)
        return _Connection(opener)

    def message(self, body: bytes) -> bytes:
        """The request that POSTs ``body``: its head, then the body."""
        start, end = self._head
        return b"%s%d%s%s" % (start, len(body), end, body)


def _charset(content_type: bytes) -> str:
    """The ``charset`` parameter of a Content-Type value, else UTF-8."""
    for parameter in content_type.split(b";")[1:]:
        name, _, value = parameter.partition(b"=")
        if name.strip().lower() == b"charset":
            return value.strip().strip(b'"').decode("latin-1") or "utf-8"
    return "utf-8"


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
    # Every port explicit: given none, http.client reads an IPv6 address's
    # last group as the port.
    default_port = 80 if tls is None else 443
    port = default_port if port is None else port
    authority = _host_header(_ascii_host(host, endpoint), port, default_port)
    proxy = None
    if not urllib.request.proxy_bypass(host):
        proxies = urllib.request.getproxies()
        proxy = proxies.get(parts.scheme) or proxies.get("all")
    if not proxy:
        return _Route(host, port, target, authority, headers, tls)
    proxy_parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    try:
        proxy_port = 80 if proxy_parts.port is None else proxy_parts.port
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
        netloc = _ascii_host(parts.netloc.rpartition("@")[2], endpoint)
        return _Route(
            proxy_parts.hostname, proxy_port, f"http://{netloc}{target}", netloc,
            {**headers, **proxy_headers},
        )
    tunnel = (host, port, proxy_headers)
    return _Route(proxy_parts.hostname, proxy_port, target, authority, headers, tls, tunnel)


class RemoteScorer:
    """HTTP client for an external scoring service.

    POSTs one JSON body per (image, prompt) over keep-alive connections, one
    ``_Connection.post`` per attempt, and retries transient failures
    (connection errors, timeouts, 5xx) with exponential backoff from
    ``RETRY_BACKOFF``, at most ``max_retries`` times. When ``log_path`` is set
    every successful exchange is appended to a JSONL replay log as
    ``{"key": ..., "body": ...}``, in request order; a log that cannot be
    written is a ConfigError.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        max_retries: int = 3,
        timeout: float = 10.0,
        max_in_flight: int = 4,
        log_path=None,
    ):
        if not endpoint:
            raise ConfigError("remote backend needs an endpoint URL")
        self._route = _resolve_endpoint(endpoint)
        self.endpoint = endpoint
        self.max_retries, self.timeout, self.max_in_flight = check_remote_settings(
            max_retries, timeout, max_in_flight
        )
        self.log_path = Path(log_path) if log_path else None
        # The log file appears with its first record; one that could never be
        # written fails here, before any request is sent.
        if self.log_path is not None and self.log_path.is_dir():
            raise ConfigError(f"record log {self.log_path} is a directory")
        if self.log_path is not None and not self.log_path.parent.is_dir():
            raise ConfigError(f"record log {self.log_path}: no directory {self.log_path.parent}")

    def _exchange(self, request: ScorerRequest, conn: _Connection) -> tuple[ScorerResponse, str]:
        """POST one request on ``conn`` with retries; returns the parsed
        response and the raw body. Writes nothing, so worker threads can run
        it, each on its own connection."""
        import http.client

        message = self._route.message(json.dumps({
            "image": request.image,
            "prompt_id": request.prompt_id,
            "prompt": _REQUEST_PROMPTS[request.prompt_id],
            "mode": request.mode,
        }).encode())
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(RETRY_BACKOFF * (2 ** (attempt - 1)))
            try:
                status, text = conn.post(message)
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
        """Up to ``max_in_flight`` worker threads, each on its own keep-alive
        connection, take the requests in order; responses come back, and log
        records are written, in request order. Every connection is closed on
        return.

        If a request fails, the records before it are logged, requests not yet
        started are dropped and its error is raised.
        """
        requests_ = list(requests_)
        done: list[tuple[ScorerResponse, str] | None] = [None] * len(requests_)
        errors: dict[int, BaseException] = {}
        lock = threading.Lock()
        taken = 0  # requests handed to a worker; the next one is requests_[taken]

        def work() -> None:
            nonlocal taken
            conn = None
            try:
                while True:
                    with lock:
                        # Indices are taken in order, so every request before
                        # a failed one is already taken: finish those only.
                        if taken == len(requests_) or errors:
                            return
                        index = taken
                        taken += 1
                    if conn is None:
                        conn = self._route.connect(self.timeout)
                    done[index] = self._exchange(requests_[index], conn)
            except BaseException as exc:  # raised again by score_many
                with lock:
                    errors[index] = exc
            finally:
                if conn is not None:
                    conn.close()

        count = min(self.max_in_flight, len(requests_))
        workers = [threading.Thread(target=work) for _ in range(count)]
        for worker in workers:
            worker.start()
        try:
            for worker in workers:
                worker.join()
        finally:
            with lock:
                taken = len(requests_)  # after an interrupt, no worker starts another
            for worker in workers:
                worker.join()
            answered = itertools.takewhile(lambda exchange: exchange is not None, done)
            exchanges = ((request, text) for request, (_, text) in zip(requests_, answered))
            self._log(exchanges, failed=bool(errors))
        if errors:
            raise errors[min(errors)]
        return [parsed for parsed, _ in done]

    def _log(self, exchanges: Iterable[tuple[ScorerRequest, str]], failed: bool) -> None:
        """Append the exchanges' records. A log that cannot be written is a
        ConfigError, unless a request ``failed``: its error is raised instead."""
        if self.log_path is None:
            return
        lines = [_log_line(request, body_text) for request, body_text in exchanges]
        try:
            if lines:
                with open(self.log_path, "a", encoding="utf-8") as fh:
                    fh.writelines(lines)
        except OSError as exc:
            if not failed:
                raise ConfigError(f"record log {self.log_path} cannot be written: {exc}")


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
    """One replay-log record: the request's key and the raw body."""
    return json.dumps({"key": request.key(), "body": body_text}) + "\n"


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
    factors = list(factors)
    batch = []
    for image_id, _ in images:
        batch += [ScorerRequest(image_id, FACTOR_PROMPTS[f]) for f in factors]
        batch.append(ScorerRequest(image_id, LANE_CLARITY_PROMPT_ID))
    responses = backend.score_many(batch)
    per_image = len(factors) + 1
    assessments = []
    for i, (image_id, timestamp) in enumerate(images):
        *answers, clarity = responses[i * per_image : (i + 1) * per_image]
        outputs = {factor: answer.score for factor, answer in zip(factors, answers)}
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
