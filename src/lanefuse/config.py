"""Pipeline configuration: one INI file and the command's flags drive a run.

Sections: ``[pipeline]`` picks profiles/backend/method, ``[icp]``,
``[dbscan]`` and ``[selection]`` override algorithm parameters,
``[backend]`` configures the scorer client, ``[weights.NAME]`` /
``[context.NAME]`` define profiles, and ``[scenario.NAME]`` declares
synthetic-scorer scenarios (``lane_visibility`` and factor ranges as
``lo:hi`` plus ``sigma``). A context names degradation factors only.
Unknown sections and keys are rejected; values are literal (no ``%``).

``load_pipeline_config`` is the one place that settles a run's settings: a
flag's text is read, after the file, as the value of the INI key
``FLAG_KEYS`` names, stripped as configparser strips an INI value, so one
parser checks a setting however it is given and the rule is flag over INI
over default. The weight, context and scenario names are resolved once into
a frozen ``PipelineConfig``; a bad value names its file and section.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
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

BACKEND_KINDS = ("synthetic", "remote", "replay")

# Each command-line flag, by its argparse dest, and the INI key it overrides.
FLAG_KEYS = {
    "backend": ("pipeline", "backend"),
    "scenario": ("pipeline", "scenario"),
    "method": ("pipeline", "method"),
    "context": ("pipeline", "context"),
    "endpoint": ("backend", "endpoint"),
    "replay_log": ("backend", "replay_log"),
    "k_cap": ("selection", "k_cap"),
}

_REMOTE_KEYS = ("max_retries", "timeout", "max_in_flight")


@dataclass(frozen=True)
class PipelineConfig:
    weights: WeightProfile = DEFAULT_WEIGHTS
    context: ContextProfile = ALL_FACTORS_CONTEXT
    method: str = "dpcs"
    backend: str = "synthetic"
    scenario: Scenario = SCENARIOS_BY_NAME["clean"]
    endpoint: str = ""
    replay_log: str = ""
    record_log: str = ""
    max_retries: int = 3
    timeout: float = 10.0
    max_in_flight: int = 4
    icp: IcpParams = field(default_factory=IcpParams)
    dbscan: DbscanParams = field(default_factory=DbscanParams)
    k_cap: int | None = None


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


def _band_cap(text: str) -> int | None:
    """An integer of at least 1, or None (no cap) for empty text."""
    return bounded_number(json_number(text), "k_cap", 1, error=ValueError) if text else None


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
    "selection": {"k_cap": _band_cap},
    "weights.": {"lane_weight": json_number, **{f.key: json_number for f in DEGRADATION_FACTORS}},
    "context.": {"factors": _factor_set},
    "scenario.": {
        "sigma": json_number, **dict.fromkeys(["lane_visibility", *FACTOR_BY_KEY], _range)
    },
}


def _read(path, flags) -> dict[str, dict[str, object]]:
    """Parse the INI file at ``path`` (None: no file), then each given flag's
    text, stripped as an INI value is, as its key's value; every value typed
    by ``_KEYS``."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if path is not None:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist")
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}")
    flag_names = {}  # (section, key) -> the flag that gave its value
    for dest, text in flags.items():
        if text is not None:
            section, key = FLAG_KEYS[dest]
            parser.read_dict({section: {key: text.strip()}})
            flag_names[section, key] = "--" + dest.replace("_", "-")
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
            where = flag_names.get((section, key), f"{path}: [{section}] {key}")
            try:
                values[key] = keys[key](text)
            except KeyError as exc:
                raise ConfigError(f"{where}: unknown factor {exc}")
            except ValueError as exc:
                raise ConfigError(f"{where}: bad value {text!r} ({exc})")
    return sections


def _profiles(sections, path):
    """Weight, context and scenario profiles by name: the built-in ones, then
    those of the PREFIX.NAME sections, which may replace them."""
    weights = {"default": DEFAULT_WEIGHTS}
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


def _named(profiles: dict, name: str, kind: str):
    """The profile ``name``; one that is neither built in nor in the INI is a
    ConfigError."""
    if name not in profiles:
        raise ConfigError(f"{kind} {name!r} not defined; known: {', '.join(sorted(profiles))}")
    return profiles[name]


def load_pipeline_config(path=None, flags=None) -> PipelineConfig:
    """A run's settings: each value from its flag, else the INI file at
    ``path``, else the default. ``flags`` maps a ``FLAG_KEYS`` dest to the
    flag's text, None for a flag not given; a flag's text replaces the INI's
    value before either is checked. ``path`` None reads no file."""
    sections = _read(path, flags or {})
    weights, contexts, scenarios = _profiles(sections, path)
    pipeline = sections.get("pipeline", {})
    backend = sections.get("backend", {})
    # A field's plain default is also an attribute of the class.
    remote = (backend.get(key, getattr(PipelineConfig, key)) for key in _REMOTE_KEYS)
    try:
        backend.update(zip(_REMOTE_KEYS, check_remote_settings(*remote)))
    except ConfigError as exc:
        raise ConfigError(f"{path}: [backend] {exc}")
    params = {}  # the PipelineConfig fields named as their sections
    for section, build in (("icp", IcpParams), ("dbscan", DbscanParams)):
        try:
            params[section] = build(**sections.get(section, {}))
        except InvalidInputError as exc:
            raise ConfigError(f"{path}: [{section}] {exc}")
    return PipelineConfig(
        weights=_named(weights, pipeline.get("weights", "default"), "weight profile"),
        context=_named(contexts, pipeline.get("context", "all"), "context profile"),
        scenario=_named(scenarios, pipeline.get("scenario", "clean"), "scenario"),
        **{key: pipeline[key] for key in ("method", "backend") if key in pipeline},
        **backend,
        **params,
        **sections.get("selection", {}),
    )
