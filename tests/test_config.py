"""Pipeline INI parsing and backend endpoint resolution."""

import re
from pathlib import Path

import pytest

from lanefuse.confidence import ALL_FACTORS_CONTEXT, CLEAR_DAY_CONTEXT, DEFAULT_WEIGHTS
from lanefuse.backends import SCENARIOS_BY_NAME
from lanefuse.cli import ENDPOINT_ENV_VAR, _make_backend, build_parser
from lanefuse.config import FLAG_KEYS, PipelineConfig, load_pipeline_config
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
    assert cfg.scenario == SCENARIOS_BY_NAME["clean"]
    assert cfg.context == ALL_FACTORS_CONTEXT


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
    assert cfg.method == "gcs"
    assert cfg.backend == "replay"
    assert cfg.replay_log == "runs/log.jsonl"
    assert cfg.max_retries == 5
    assert cfg.icp.max_iterations == 80
    assert cfg.icp.max_correspondence_dist == 3.0
    assert cfg.dbscan.min_samples == 3
    assert cfg.k_cap == 3
    dusty = cfg.scenario
    assert dusty.name == "dusty"
    assert dusty.noise_sigma == 0.3
    assert dusty.range_for(FactorKind.SANDSTORM) == (4, 8)
    assert dusty.visibility == (5, 7)
    path.write_text(path.read_text().replace("context = storm", "context = everything"))
    assert load_pipeline_config(path).context == ALL_FACTORS_CONTEXT


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
        # Lane visibility is not a factor a context can name: it always counts.
        "[context.x]\nfactors = lane_visibility\n",
        "[weights.x]\nlane_weight = 1.0\n",
        "[pipeline]\nmethod = gcs\n[pipeline]\nmethod = dpcs\n",
    ],
)
def test_rejects_bad_values(tmp_path, body):
    path = tmp_path / "bad.ini"
    path.write_text(body)
    with pytest.raises(ConfigError):
        load_pipeline_config(path)


def test_context_naming_lane_visibility_names_it_as_unknown(tmp_path):
    path = tmp_path / "ctx.ini"
    path.write_text("[context.x]\nfactors = rain, lane_visibility\n")
    with pytest.raises(ConfigError, match=r"\[context.x\] factors: unknown factor 'lane_visibility'"):
        load_pipeline_config(path)


def test_numbers_are_json_numbers_typed_by_their_setting(tmp_path):
    path = tmp_path / "n.ini"
    path.write_text(
        "[icp]\nmax_iterations = 3.0\nconvergence_tol = 1E-5\n"
        "[backend]\nmax_retries = 1e1\ntimeout = 5\nmax_in_flight = 2\n"
        "[selection]\nk_cap = 2.0\n[scenario.x]\nrain = 3.0:5\n[pipeline]\nscenario = x\n"
    )
    cfg = load_pipeline_config(path)
    settings = (cfg.icp.max_iterations, cfg.max_retries, cfg.max_in_flight, cfg.k_cap)
    assert settings == (3, 10, 2, 2) and all(type(v) is int for v in settings)
    assert (cfg.icp.convergence_tol, cfg.timeout) == (1e-5, 5.0) and type(cfg.timeout) is float
    assert cfg.scenario.range_for(FactorKind.RAIN) == (3, 5)


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
    assert (cfg.method, cfg.backend, cfg.scenario) == ("dpcs", "synthetic", SCENARIOS_BY_NAME["clean"])
    assert cfg.endpoint == "http://scorer.internal/score"
    assert cfg.record_log == ""
    assert (cfg.max_retries, cfg.timeout, cfg.max_in_flight) == (3, 10.0, 4)
    assert cfg.k_cap is None
    named = load_pipeline_config(path, {"context": "clear-day", "scenario": "dusty"})
    assert named.context == CLEAR_DAY_CONTEXT
    assert named.scenario.range_for(FactorKind.SANDSTORM) == (4, 8)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_pipeline_config(tmp_path / "ghost.ini")
    with pytest.raises(ConfigError, match="Is a directory"):  # nor is a directory one
        load_pipeline_config(tmp_path)


def test_unknown_scenario_reported_at_load(tmp_path):
    path = tmp_path / "s.ini"
    path.write_text("[pipeline]\nscenario = marsdust\n")
    with pytest.raises(ConfigError, match="scenario 'marsdust' not defined; known: bright, clean"):
        load_pipeline_config(path)
    with pytest.raises(ConfigError, match="marsdust"):
        load_pipeline_config(None, {"scenario": "marsdust"})


def test_endpoint_env_fallback(monkeypatch):
    cfg = PipelineConfig(backend="remote")
    monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
    with pytest.raises(ConfigError, match=ENDPOINT_ENV_VAR):
        _make_backend(cfg, 0)
    monkeypatch.setenv(ENDPOINT_ENV_VAR, "http://scorer:8000/score")
    assert _make_backend(cfg, 0).endpoint == "http://scorer:8000/score"
    explicit = load_pipeline_config(None, {"backend": "remote", "endpoint": "http://explicit/score"})
    assert _make_backend(explicit, 0).endpoint == "http://explicit/score"


# Per flag: an INI setting its key, the flag's own value, and that value as the
# built config holds it. The INI text is written out, not built from FLAG_KEYS,
# so an entry that names the wrong section or key leaves the INI value in place.
FLAG_CASES = {
    "backend": ("[pipeline]\nbackend = replay\n", "remote", lambda c: c.backend),
    "scenario": ("[pipeline]\nscenario = hazy\n", "murky", lambda c: c.scenario.name),
    "method": ("[pipeline]\nmethod = gcs\n", "dpcs", lambda c: c.method),
    "context": ("[pipeline]\ncontext = all\n", "clear-day", lambda c: c.context),
    "endpoint": ("[backend]\nendpoint = http://ini/score\n", "http://flag/score",
                 lambda c: c.endpoint),
    "replay_log": ("[backend]\nreplay_log = ini.jsonl\n", "flag.jsonl", lambda c: c.replay_log),
    "k_cap": ("[selection]\nk_cap = 2\n", "3", lambda c: c.k_cap),
}
# A context is held as its profile, a band cap as a number.
FLAG_VALUES = {"context": CLEAR_DAY_CONTEXT, "k_cap": 3}


def test_flag_keys_are_cli_flags():
    parser = build_parser()
    dests = {*vars(parser.parse_args(["score", "m"])), *vars(parser.parse_args(["select", "a"]))}
    assert set(FLAG_KEYS) == set(FLAG_CASES) and set(FLAG_KEYS) <= dests


@pytest.mark.parametrize("dest", sorted(FLAG_CASES))
def test_flag_replaces_the_ini_value(tmp_path, dest):
    body, value, read = FLAG_CASES[dest]
    path = tmp_path / "flag.ini"
    path.write_text(body)
    assert read(load_pipeline_config(path)) != FLAG_VALUES.get(dest, value)
    assert read(load_pipeline_config(path, {dest: value})) == FLAG_VALUES.get(dest, value)
    assert read(load_pipeline_config(path, {dest: None})) == read(load_pipeline_config(path))


@pytest.mark.parametrize(
    "dest,value,message",
    [
        ("backend", "bogus", "--backend: bad value 'bogus' (not one of synthetic, remote, replay)"),
        ("method", "vibes", "--method: bad value 'vibes' (not one of dpcs, gcs)"),
        ("k_cap", "0", "--k-cap: bad value '0' (k_cap must be >= 1, got 0)"),
    ],
    ids=["backend", "method", "k_cap"],
)
def test_a_flag_value_is_checked_as_its_ini_key(tmp_path, dest, value, message):
    # Library callers get the check the CLI gets, with or without a file.
    path = tmp_path / "empty.ini"
    path.write_text("")
    for source in (None, path):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_pipeline_config(source, {dest: value})


def test_a_flag_text_is_stripped_as_an_ini_value_is(tmp_path):
    path = tmp_path / "padded.ini"
    path.write_text("[pipeline]\nmethod =  gcs \n[selection]\nk_cap =  \n")
    from_flags = load_pipeline_config(None, {"method": " gcs ", "k_cap": " "})
    assert from_flags == load_pipeline_config(path)
    assert (from_flags.method, from_flags.k_cap) == ("gcs", None)


@pytest.mark.parametrize(
    "section,key,value,rule",
    [
        ("backend", "max_retries", "-1", ">= 0"),
        ("backend", "timeout", "0", "> 0"),
        ("backend", "max_in_flight", "0", ">= 1"),
        ("icp", "max_iterations", "0", ">= 1"),
        ("dbscan", "epsilon", "0", "> 0"),
    ],
)
def test_a_bad_number_names_its_file_and_section(tmp_path, section, key, value, rule):
    path = tmp_path / "x.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    message = f"{path}: [{section}] {key} must be {rule}, got {value}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_pipeline_config(path)
