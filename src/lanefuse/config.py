"""Pipeline configuration: one INI file drives every command.

Sections: ``[pipeline]`` picks profiles/backend/method, ``[icp]``,
``[dbscan]`` and ``[selection]`` override algorithm parameters,
``[backend]`` configures the scorer client, ``[weights.NAME]`` /
``[context.NAME]`` define profiles, and ``[scenario.NAME]`` declares
synthetic-scorer scenarios (factor ranges as ``lo:hi`` plus ``sigma``).
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field
from pathlib import Path

from .backends import Scenario, check_remote_settings
from .clustering import DbscanParams
from .confidence import (
    ALL_FACTORS_CONTEXT,
    BUILTIN_CONTEXTS,
    DEFAULT_WEIGHTS,
    ContextProfile,
    WeightProfile,
    load_profiles,
)
from .errors import ConfigError, InvalidInputError
from .evaluation import SCENARIOS_BY_NAME
from .registration import IcpParams
from .scoring import FACTOR_BY_KEY

ENDPOINT_ENV_VAR = "LANEFUSE_ENDPOINT"

BACKEND_KINDS = ("synthetic", "remote", "replay")


@dataclass
class PipelineConfig:
    weights: WeightProfile = DEFAULT_WEIGHTS
    context: ContextProfile = ALL_FACTORS_CONTEXT
    method: str = "dpcs"
    backend: str = "synthetic"
    scenario_name: str = "clean"
    endpoint: str = ""
    replay_log: str = ""
    record_log: str = ""
    max_retries: int = 3
    timeout: float = 10.0
    max_in_flight: int = 4
    icp: IcpParams = field(default_factory=IcpParams)
    dbscan: DbscanParams = field(default_factory=DbscanParams)
    k_cap: int | None = None
    scenarios: dict[str, Scenario] = field(default_factory=lambda: dict(SCENARIOS_BY_NAME))
    contexts: dict[str, ContextProfile] = field(default_factory=lambda: dict(BUILTIN_CONTEXTS))

    def scenario(self) -> Scenario:
        scenario = self.scenarios.get(self.scenario_name)
        if scenario is None:
            raise ConfigError(
                f"unknown scenario {self.scenario_name!r}; "
                f"known: {', '.join(sorted(self.scenarios))}"
            )
        return scenario

    def resolve_endpoint(self) -> str:
        endpoint = self.endpoint or os.environ.get(ENDPOINT_ENV_VAR, "")
        if not endpoint:
            raise ConfigError(
                f"remote backend needs an endpoint (set [backend] endpoint or "
                f"{ENDPOINT_ENV_VAR})"
            )
        return endpoint


def check_k_cap(k_cap: int | None, name: str) -> None:
    """Reject a band cap below 1; ``name`` says where the value came from."""
    if k_cap is not None and k_cap < 1:
        raise ConfigError(f"{name} must be >= 1")


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        value = int(lo)
        return value, value
    return int(lo), int(hi)


def _parse_scenarios(parser: configparser.ConfigParser) -> dict[str, Scenario]:
    scenarios = dict(SCENARIOS_BY_NAME)
    for section in parser.sections():
        if not section.startswith("scenario."):
            continue
        name = section.partition(".")[2]
        ranges = {}
        sigma = 0.0
        for key, value in parser.items(section):
            if key == "sigma":
                sigma = float(value)
                continue
            factor = FACTOR_BY_KEY.get(key)
            if factor is None:
                raise ConfigError(f"[{section}]: unknown factor {key!r}")
            try:
                ranges[factor] = _parse_range(value)
            except ValueError:
                raise ConfigError(f"[{section}]: bad range {value!r} for {key}")
        try:
            scenarios[name] = Scenario(name=name, factor_ranges=ranges, noise_sigma=sigma)
        except InvalidInputError as exc:
            raise ConfigError(f"[{section}]: {exc}")
    return scenarios


def load_pipeline_config(path=None) -> PipelineConfig:
    """Build a PipelineConfig from an INI file; None yields the defaults."""
    cfg = PipelineConfig()
    if path is None:
        return cfg
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}")

    weight_profiles, context_profiles = load_profiles(path)
    cfg.scenarios = _parse_scenarios(parser)

    def get(section, option, fallback=None):
        return parser.get(section, option, fallback=fallback)

    try:
        weights_name = get("pipeline", "weights", fallback="default")
        if weights_name in weight_profiles:
            cfg.weights = weight_profiles[weights_name]
        elif weights_name != "default":
            raise ConfigError(f"weight profile {weights_name!r} not defined")
        cfg.contexts = dict(BUILTIN_CONTEXTS)
        cfg.contexts.update(context_profiles)
        context_name = get("pipeline", "context", fallback="all")
        if context_name not in cfg.contexts:
            raise ConfigError(f"context profile {context_name!r} not defined")
        cfg.context = cfg.contexts[context_name]
        cfg.method = get("pipeline", "method", fallback="dpcs").strip().lower()
        if cfg.method not in ("dpcs", "gcs"):
            raise ConfigError(f"unknown confidence method {cfg.method!r}")
        cfg.backend = get("pipeline", "backend", fallback="synthetic").strip().lower()
        if cfg.backend not in BACKEND_KINDS:
            raise ConfigError(f"unknown backend {cfg.backend!r}")
        cfg.scenario_name = get("pipeline", "scenario", fallback=cfg.scenario_name)

        cfg.endpoint = get("backend", "endpoint", fallback="")
        cfg.replay_log = get("backend", "replay_log", fallback="")
        cfg.record_log = get("backend", "record_log", fallback="")
        cfg.max_retries = parser.getint("backend", "max_retries", fallback=cfg.max_retries)
        cfg.timeout = parser.getfloat("backend", "timeout", fallback=cfg.timeout)
        cfg.max_in_flight = parser.getint(
            "backend", "max_in_flight", fallback=cfg.max_in_flight
        )
        check_remote_settings(cfg.max_retries, cfg.timeout, cfg.max_in_flight)

        cfg.icp = IcpParams(
            max_iterations=parser.getint("icp", "max_iterations", fallback=50),
            convergence_tol=parser.getfloat("icp", "convergence_tol", fallback=1e-6),
            max_correspondence_dist=parser.getfloat(
                "icp", "max_correspondence_dist", fallback=2.0
            ),
        )
        cfg.dbscan = DbscanParams(
            epsilon=parser.getfloat("dbscan", "epsilon", fallback=0.5),
            min_samples=parser.getint("dbscan", "min_samples", fallback=4),
        )
        raw_k = get("selection", "k_cap", fallback="")
        cfg.k_cap = int(raw_k) if raw_k and raw_k.strip() else None
        check_k_cap(cfg.k_cap, "selection.k_cap")
    except (ValueError, InvalidInputError) as exc:
        raise ConfigError(f"{path}: {exc}")
    return cfg
