"""Pipeline INI parsing and backend endpoint resolution."""

import re
from pathlib import Path

import pytest

from lanefuse.confidence import ALL_FACTORS_CONTEXT, CLEAR_DAY_CONTEXT, DEFAULT_WEIGHTS
from lanefuse.config import ENDPOINT_ENV_VAR, PipelineConfig, load_pipeline_config
from lanefuse.errors import ConfigError
from lanefuse.scoring import DEGRADATION_FACTORS, FactorKind


# A [weights.w] section listing every factor weight, with one value replaced.
def _weights(key, value):
    lines = {"lane_weight": "1.0", **{f.key: "0.2" for f in DEGRADATION_FACTORS}, key: value}
    return "[weights.w]\n" + "".join(f"{k} = {v}\n" for k, v in lines.items())


def test_defaults_without_file():
    cfg = load_pipeline_config(None)
    assert cfg.backend == "synthetic"
    assert cfg.method == "dpcs"
    assert cfg.icp.max_iterations == 50
    assert cfg.dbscan.epsilon == 0.5
    assert cfg.k_cap is None
    assert "clean" in cfg.scenarios


def test_full_file(tmp_path):
    path = tmp_path / "pipeline.ini"
    path.write_text(
        """
[pipeline]
weights = tuned
context = storm
method = gcs
backend = replay
scenario = dusty

[backend]
replay_log = runs/log.jsonl
max_retries = 5
timeout = 2.5
max_in_flight = 8

[icp]
max_iterations = 80
convergence_tol = 1e-8
max_correspondence_dist = 3.0

[dbscan]
epsilon = 0.4
min_samples = 3

[selection]
k_cap = 3

[weights.tuned]
lane_weight = 1.5
blur_day = 0.25
blur_night = 0.25
blur_streetlight = 0.25
illumination = 0.25
rain = 0.3
snow = 0.3
fog = 0.3
sandstorm = 0.05
occlusion = 0.25
degradation = 0.25

[context.storm]
factors = rain, snow, fog

[context.everything]
factors = all

[scenario.dusty]
lane_visibility = 5:7
sandstorm = 4:8
sigma = 0.3
"""
    )
    cfg = load_pipeline_config(path)
    assert cfg.weights.lane_weight == 1.5
    assert cfg.weights.factor_weights[FactorKind.SANDSTORM] == 0.05
    assert cfg.context.is_active(FactorKind.RAIN)
    assert not cfg.context.is_active(FactorKind.BLUR_DAY)
    assert cfg.contexts["everything"] == ALL_FACTORS_CONTEXT
    assert cfg.method == "gcs"
    assert cfg.backend == "replay"
    assert cfg.replay_log == "runs/log.jsonl"
    assert cfg.max_retries == 5
    assert cfg.icp.max_iterations == 80
    assert cfg.icp.max_correspondence_dist == 3.0
    assert cfg.dbscan.min_samples == 3
    assert cfg.k_cap == 3
    dusty = cfg.scenario()
    assert dusty.noise_sigma == 0.3
    assert dusty.range_for(FactorKind.SANDSTORM) == (4, 8)
    assert dusty.range_for(FactorKind.LANE_VISIBILITY) == (5, 7)


@pytest.mark.parametrize(
    "body",
    [
        "[pipeline]\nbackend = carrier-pigeon\n",
        "[pipeline]\nmethod = vibes\n",
        "[pipeline]\nweights = ghost\n",
        "[pipeline]\ncontext = ghost\n",
        "[selection]\nk_cap = 0\n",
        "[dbscan]\nepsilon = -1\n",
        "[scenario.bad]\nwhirlwind = 1:2\n",
        "[scenario.bad]\nrain = 3:99\n",
        "[backend]\nmax_in_flight = 0\n",
        "[backend]\nmax_retries = -1\n",
        "[backend]\ntimeout = 0\n",
        "[backend]\ntimeout = -2.5\n",
        "[selecton]\nk_cap = 2\n",
        "[pipeline]\nbackendd = remote\n",
        "[pipeline]\noutput_dir = out\n",
        "[DEFAULT]\nk_cap = 2\n",
        "[context.x]\nfactorz = rain\n",
        "[weights.x]\nlane_weight = 1.0\nwhirlwind = 0.2\n",
        "[context]\nfactors = rain\n",
        "[scenario.bad]\nsigma = inf\n",
        "[dbscan]\nepsilon = nan\n",
        "[dbscan]\nepsilon = inf\n",
        "[icp]\nmax_correspondence_dist = nan\n",
        "[icp]\nconvergence_tol = inf\n",
        _weights("lane_weight", "nan"),
        _weights("lane_weight", "inf"),
        _weights("rain", "nan"),
        _weights("fog", "inf"),
        # Numbers are JSON numbers: ASCII digits, no "_", no NaN or Infinity.
        "[backend]\nmax_retries = 1_0\n",
        "[backend]\nmax_in_flight = \u0663\n",
        "[scenario.x]\nrain = \u0663:\u0665\n",
        "[selection]\nk_cap = 1_0\n",
        "[dbscan]\nmin_samples = 04\n",
        "[dbscan]\nepsilon = .5\n",
        "[icp]\nconvergence_tol = +1e-6\n",
        "[backend]\ntimeout = true\n",
        "[scenario.bad]\nsigma = NaN\n",
        "[dbscan]\nepsilon = 1e999\n",
        _weights("rain", "Infinity"),
        # The objects decide type and bound.
        "[icp]\nmax_iterations = 3.5\n",
        "[selection]\nk_cap = 2.5\n",
        "[scenario.x]\nrain = 2.5:5\n",
        # A factor name that is not one, and a weight profile without factors.
        "[context.x]\nfactors = bogus\n",
        "[weights.x]\nlane_weight = 1.0\n",
    ],
)
def test_rejects_bad_values(tmp_path, body):
    path = tmp_path / "bad.ini"
    path.write_text(body)
    with pytest.raises(ConfigError):
        load_pipeline_config(path)


def test_numbers_are_json_numbers_typed_by_their_setting(tmp_path):
    path = tmp_path / "n.ini"
    path.write_text(
        "[icp]\nmax_iterations = 3.0\nconvergence_tol = 1E-5\n"
        "[backend]\nmax_retries = 1e1\ntimeout = 5\nmax_in_flight = 2\n"
        "[selection]\nk_cap = 2.0\n[scenario.x]\nrain = 3.0:5\n"
    )
    cfg = load_pipeline_config(path)
    settings = (cfg.icp.max_iterations, cfg.max_retries, cfg.max_in_flight, cfg.k_cap)
    assert settings == (3, 10, 2, 2) and all(type(v) is int for v in settings)
    assert (cfg.icp.convergence_tol, cfg.timeout) == (1e-5, 5.0) and type(cfg.timeout) is float
    assert cfg.scenarios["x"].range_for(FactorKind.RAIN) == (3, 5)


def test_full_weight_section_loads(tmp_path):
    path = tmp_path / "w.ini"
    path.write_text(_weights("rain", "0.5") + "\n[pipeline]\nweights = w\n")
    cfg = load_pipeline_config(path)
    assert cfg.weights.factor_weights[FactorKind.RAIN] == 0.5


def test_unknown_key_error_names_section_and_key(tmp_path):
    path = tmp_path / "typo.ini"
    path.write_text("[pipeline]\nbackendd = remote\n")
    with pytest.raises(ConfigError, match=r"'backendd' in \[pipeline\]"):
        load_pipeline_config(path)


def test_values_are_literal(tmp_path):
    path = tmp_path / "pct.ini"
    path.write_text("[backend]\nendpoint = http://h/a%20b\nrecord_log = runs/%(x)s.jsonl\n")
    cfg = load_pipeline_config(path)
    assert cfg.endpoint == "http://h/a%20b"
    assert cfg.record_log == "runs/%(x)s.jsonl"


def test_readme_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    cfg = load_pipeline_config(path)
    assert cfg.weights == DEFAULT_WEIGHTS
    assert cfg.context == ALL_FACTORS_CONTEXT
    assert cfg.contexts["clear-day"] == CLEAR_DAY_CONTEXT
    assert (cfg.method, cfg.backend, cfg.scenario_name) == ("dpcs", "synthetic", "clean")
    assert cfg.endpoint == "http://scorer.internal/score"
    assert cfg.record_log == ""
    assert (cfg.max_retries, cfg.timeout, cfg.max_in_flight) == (3, 10.0, 4)
    assert cfg.k_cap is None
    assert cfg.scenarios["dusty"].range_for(FactorKind.SANDSTORM) == (4, 8)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_pipeline_config(tmp_path / "ghost.ini")


def test_unknown_scenario_reported_at_use():
    cfg = PipelineConfig(scenario_name="marsdust")
    with pytest.raises(ConfigError, match="marsdust"):
        cfg.scenario()


def test_endpoint_env_fallback(monkeypatch):
    cfg = PipelineConfig()
    monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
    with pytest.raises(ConfigError):
        cfg.resolve_endpoint()
    monkeypatch.setenv(ENDPOINT_ENV_VAR, "http://scorer:8000/score")
    assert cfg.resolve_endpoint() == "http://scorer:8000/score"
    cfg.endpoint = "http://explicit/score"
    assert cfg.resolve_endpoint() == "http://explicit/score"
