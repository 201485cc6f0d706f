"""Each command loads only the libraries and the lanefuse modules it runs.

scipy serves the geometry stages' k-d trees (ICP, DBSCAN's neighbour pairs,
the AME search); a process that runs none must not pay for importing it.
DBSCAN's components are numpy, so no command loads scipy's sparse graph
module. The remote scorer speaks HTTP through the standard library, so
requests and urllib3 are loaded by no command, and only the remote backend
loads the network stack (http.client, urllib.request, ssl). Every check
runs in a fresh interpreter, since this one has long loaded them. The
package root imports no module, and only the commands that run the
experiment module (evaluation) or the update path (pipeline) load them. The
package's import layering is checked here too, from the source.
"""

import ast
import collections
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lanefuse.evaluation import standard_config, synth_config_to_dict, synth_generate
from lanefuse.mapmodel import save_link_area

SRC = Path(__file__).resolve().parents[1] / "src"
NETWORK = ("http.client", "urllib.request", "ssl")
WATCHED = ("scipy", "scipy.spatial", "scipy.sparse.csgraph", "requests", "urllib3", *NETWORK)
LANEFUSE = tuple(f"lanefuse.{p.stem}" for p in sorted((SRC / "lanefuse").glob("[!_]*.py")))
STAGES = ("lanefuse.evaluation", "lanefuse.pipeline")
SMALL = dataclasses.replace(
    standard_config(0), link_areas=1, maps_per_area=3, images_per_map=2, lane_length=20.0
)


def loaded_after(code: str, cwd: Path, watched=WATCHED) -> list[str]:
    """The ``watched`` modules loaded once ``code`` has run in a new interpreter."""
    probe = f"import sys\n{code}\nprint(' '.join(m for m in {watched!r} if m in sys.modules))\n"
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def cli(args: list[str]) -> str:
    return f"from lanefuse.cli import main\nassert main({args!r}) == 0"


@pytest.fixture
def area(tmp_path) -> str:
    """One small simulated link area."""
    (small,) = synth_generate(SMALL)
    save_link_area(small, tmp_path / "area.json")
    return "area.json"


def test_import_loads_neither_scipy_nor_requests(tmp_path):
    assert loaded_after("import lanefuse, lanefuse.cli", tmp_path) == []


def test_simulate_loads_neither(tmp_path):
    (tmp_path / "synth.json").write_text(json.dumps(synth_config_to_dict(SMALL)))
    assert loaded_after(cli(["simulate", "synth.json", "--output-dir", "out"]), tmp_path) == []


def test_import_lanefuse_loads_no_lanefuse_module(tmp_path):
    assert set(STAGES) < set(LANEFUSE)  # the glob finds the modules
    assert loaded_after("import lanefuse", tmp_path, LANEFUSE) == []


@pytest.mark.parametrize(
    "args",
    [
        ["select", "{area}", "--output-dir", "out"],
        ["score", "{area}", "--backend", "synthetic", "--output-dir", "out"],
    ],
    ids=["select", "synthetic-score"],
)
def test_commands_without_geometry_or_remote_load_neither(tmp_path, area, args):
    # Nor the experiment module or the update path.
    code = cli([a.format(area=area) for a in args])
    assert loaded_after(code, tmp_path, (*WATCHED, *STAGES)) == []


def test_evaluate_loads_scipy(tmp_path, area):
    args = ["evaluate", area, "--policies", "band", "--output-dir", "out"]
    # Not scipy.sparse.csgraph: DBSCAN's components are numpy. Nor the network.
    assert sorted(loaded_after(cli(args), tmp_path)) == ["scipy", "scipy.spatial"]


def test_update_loads_scipy_but_not_the_network(tmp_path, area):
    (tmp_path / "script.json").write_text("[]")
    args = ["update", area, "script.json", "--output-dir", "out"]
    # The update path, but not the experiment module.
    loaded = loaded_after(cli(args), tmp_path, (*WATCHED, *STAGES))
    assert sorted(loaded) == ["lanefuse.pipeline", "scipy", "scipy.spatial"]


# Wraps the first stage of update (select_band) and of evaluate
# (run_experiment) to note whether scipy's k-d trees are loaded by then.
FIRST_STAGE_PROBE = """
import lanefuse.cli, lanefuse.evaluation
loaded = []
def noting(stage):
    def wrapper(*args, **kwargs):
        loaded.append("scipy.spatial" in sys.modules)
        return stage(*args, **kwargs)
    return wrapper
lanefuse.cli.select_band = noting(lanefuse.cli.select_band)
lanefuse.evaluation.run_experiment = noting(lanefuse.evaluation.run_experiment)
"""


@pytest.mark.parametrize(
    "args",
    [
        ["update", "{area}", "script.json", "--output-dir", "out"],
        ["evaluate", "{area}", "--policies", "band", "--output-dir", "out"],
    ],
    ids=["update", "evaluate"],
)
def test_geometry_commands_import_scipy_before_their_first_stage(tmp_path, area, args):
    # So a traced run does not time the import inside the first ICP call.
    (tmp_path / "script.json").write_text("[]")
    code = FIRST_STAGE_PROBE + cli([a.format(area=area) for a in args]) + "\nassert loaded == [True]"
    assert "scipy.spatial" in loaded_after(code, tmp_path)


def test_geometry_commands_import_scipy_only_once_the_inputs_load(tmp_path):
    code = "from lanefuse.cli import main\nassert main(['evaluate', 'missing.json']) == 2"
    assert loaded_after(code, tmp_path) == []


def test_remote_scorer_loads_none_of_scipy_requests_urllib3(tmp_path):
    # It does load the network stack, which no other command loads.
    code = "from lanefuse.backends import RemoteScorer\nRemoteScorer('http://127.0.0.1:9/score')"
    assert sorted(loaded_after(code, tmp_path)) == sorted(NETWORK)


def lanefuse_imports(path: Path) -> set[str]:
    """The lanefuse modules a source file imports, by short name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = ".".join(filter(None, ["lanefuse" if node.level else "", node.module]))
            dotted = [f"{package}.{alias.name}" for alias in node.names]
        else:
            continue
        names.update(d.split(".")[1] for d in dotted if d.startswith("lanefuse."))
    return names


def test_layering():
    """Only the CLI imports the experiment module and the INI reader, and
    nothing imports the CLI. So the stages and the INI reader never import
    evaluation: geometry the stages share with the AME lives in registration,
    and the scenario ladder the INI reader extends lives in backends, with no
    second copy and no import cycle."""
    importers = collections.defaultdict(set)
    for path in (SRC / "lanefuse").glob("*.py"):
        for name in lanefuse_imports(path):
            importers[name].add(path.stem)
    assert importers["evaluation"] == {"cli"}  # the scan sees relative imports
    assert importers["config"] <= {"cli"}
    assert importers["cli"] == set()
