"""Pipeline configuration: one INI file drives every command.

Sections: ``[pipeline]`` picks profiles/backend/method, ``[icp]``,
``[dbscan]`` and ``[selection]`` override algorithm parameters,
``[backend]`` configures the scorer client, ``[weights.NAME]`` /
``[context.NAME]`` define profiles, and ``[scenario.NAME]`` declares
synthetic-scorer scenarios (factor ranges as ``lo:hi`` plus ``sigma``).
Unknown sections and keys are rejected; values are literal (no ``%``).
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, replace
from typing import Collection

from .backends import SCENARIOS_BY_NAME, Scenario, check_remote_settings, scenario_from_mapping
from .clustering import DbscanParams
from .confidence import (
    ALL_FACTORS_CONTEXT,
    BUILTIN_CONTEXTS,
    CONFIDENCE_METHODS,
    DEFAULT_WEIGHTS,
    ContextProfile,
    WeightProfile,
)
from .errors import ConfigError, InvalidInputError
from .registration import IcpParams
from .scoring import DEGRADATION_FACTORS, FACTOR_BY_KEY, FactorKind, bounded_number, json_number

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

    def use_context(self, name: str) -> None:
        """Make the named context profile, built in or from the INI, current."""
        if name not in self.contexts:
            raise ConfigError(f"context profile {name!r} not defined")
        self.context = self.contexts[name]

    def resolve_endpoint(self) -> str:
        endpoint = self.endpoint or os.environ.get(ENDPOINT_ENV_VAR, "")
        if not endpoint:
            raise ConfigError(
                f"remote backend needs an endpoint (set [backend] endpoint or "
                f"{ENDPOINT_ENV_VAR})"
            )
        return endpoint


def check_k_cap(k_cap: int | None, name: str) -> int | None:
    """The band cap by the number rule, or None for no cap; a cap below 1 is a
    ConfigError. ``name`` says where the value came from."""
    return None if k_cap is None else bounded_number(k_cap, name, 1, error=ConfigError)


def _one_of(choices: Collection[str]):
    def parse(text: str) -> str:
        value = text.lower()
        if value not in choices:
            raise ValueError(f"not one of {', '.join(choices)}")
        return value

    return parse


def _factor_set(text: str) -> frozenset[FactorKind]:
    if text == "all":
        return frozenset(DEGRADATION_FACTORS)
    return frozenset(FACTOR_BY_KEY[key.strip()] for key in text.split(",") if key.strip())


def _range(text: str) -> tuple[int | float, int | float]:
    lo, sep, hi = text.partition(":")
    return json_number(lo), json_number(hi if sep else lo)


# Every section and key a pipeline INI may hold, each key with the parser of
# its value. A name ending in "." stands for the sections "PREFIX.NAME".
# [DEFAULT] would copy its keys into every section, so it must stay empty.
_KEYS = {
    configparser.DEFAULTSECT: {},
    "pipeline": {
        "weights": str, "context": str, "scenario": str,
        "method": _one_of(CONFIDENCE_METHODS), "backend": _one_of(BACKEND_KINDS),
    },
    "backend": {
        "endpoint": str, "replay_log": str, "record_log": str,
        "max_retries": json_number, "timeout": json_number, "max_in_flight": json_number,
    },
    "icp": dict.fromkeys(
        ("max_iterations", "convergence_tol", "max_correspondence_dist"), json_number
    ),
    "dbscan": {"epsilon": json_number, "min_samples": json_number},
    "selection": {"k_cap": lambda text: json_number(text) if text else None},
    "weights.": {"lane_weight": json_number, **{f.key: json_number for f in DEGRADATION_FACTORS}},
    "context.": {"factors": _factor_set},
    "scenario.": {"sigma": json_number, **{key: _range for key in FACTOR_BY_KEY}},
}


def _read(path) -> dict[str, dict[str, object]]:
    """Parse the INI file once; every value typed by ``_KEYS``."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist")
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}")
    sections: dict[str, dict[str, object]] = {}
    for section, items in parser.items():
        kind, dot, name = section.partition(".")
        keys = _KEYS.get(kind + dot) if name or not dot else None
        if keys is None:
            raise ConfigError(f"{path}: unknown section [{section}]")
        values = sections[section] = {}
        for key, text in items.items():
            if key not in keys:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                values[key] = keys[key](text)
            except KeyError as exc:
                raise ConfigError(f"{path}: [{section}] {key}: unknown factor {exc}")
            except ValueError as exc:
                raise ConfigError(f"{path}: [{section}] {key}: bad value {text!r} ({exc})")
    return sections


def _profiles(sections, path):
    """Weight, context and scenario profiles from the PREFIX.NAME sections."""
    weights: dict[str, WeightProfile] = {}
    contexts = dict(BUILTIN_CONTEXTS)
    scenarios = dict(SCENARIOS_BY_NAME)
    for section, items in sections.items():
        kind, _, name = section.partition(".")
        values = dict(items)
        if kind == "weights":
            lane_weight = values.pop("lane_weight", 1.0)
            try:
                weights[name] = WeightProfile(
                    lane_weight, {FACTOR_BY_KEY[k]: w for k, w in values.items()}
                )
            except InvalidInputError as exc:
                raise ConfigError(f"{path}: bad weight profile [{section}]: {exc}")
        elif kind == "context":
            factors = values.get("factors", frozenset(DEGRADATION_FACTORS))
            contexts[name] = ContextProfile(active_factors=factors)
        elif kind == "scenario":
            sigma = values.pop("sigma", 0.0)
            scenarios[name] = scenario_from_mapping(name, values, sigma, f"{path}: [{section}]")
    return weights, contexts, scenarios


def load_pipeline_config(path=None) -> PipelineConfig:
    """Build a PipelineConfig from an INI file; None yields the defaults."""
    cfg = PipelineConfig()
    if path is None:
        return cfg
    sections = _read(path)
    weight_profiles, cfg.contexts, cfg.scenarios = _profiles(sections, path)
    pipeline = sections.get("pipeline", {})
    weights_name = pipeline.get("weights", "default")
    if weights_name in weight_profiles:
        cfg.weights = weight_profiles[weights_name]
    elif weights_name != "default":
        raise ConfigError(f"weight profile {weights_name!r} not defined")
    cfg.use_context(pipeline.get("context", "all"))
    try:
        cfg = replace(
            cfg,
            method=pipeline.get("method", cfg.method),
            backend=pipeline.get("backend", cfg.backend),
            scenario_name=pipeline.get("scenario", cfg.scenario_name),
            **sections.get("backend", {}),
            **sections.get("selection", {}),
            icp=IcpParams(**sections.get("icp", {})),
            dbscan=DbscanParams(**sections.get("dbscan", {})),
        )
    except InvalidInputError as exc:
        raise ConfigError(f"{path}: {exc}")
    remote = check_remote_settings(cfg.max_retries, cfg.timeout, cfg.max_in_flight)
    cfg.max_retries, cfg.timeout, cfg.max_in_flight = remote
    cfg.k_cap = check_k_cap(cfg.k_cap, "selection.k_cap")
    return cfg
