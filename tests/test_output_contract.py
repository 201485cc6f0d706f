"""The recorded output digests of the benchmark, checked in tier-1.

``perfbench/digests.json`` holds the sha256 of ``evaluation.csv`` per
standard synth seed (``experiment``) and per seed of two 160 m areas
(``long_lane``), and the manifest digest of every file a seed-0 CLI chain
writes (``cli_pipeline``). Both are rebuilt here in-process,
exactly as the benchmark builds them, so a change that moves any output byte
fails tier-1. A change that moves outputs on purpose must re-record the
digests (``perfbench/record_digests.py``) in a change to the benchmark.
"""

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from lanefuse.cli import main
from lanefuse.evaluation import (
    ADD_OFFSET,
    SHIFT_DX,
    SHIFT_DY,
    SynthConfig,
    run_experiment,
    standard_config,
    synth_config_to_dict,
    synth_generate,
)

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text(encoding="utf-8")
)
POLICIES = ["baseline", "seq1", "seq3", "seq5", "band"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def csv_digest(areas) -> str:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(run_experiment(areas, POLICIES).to_csv_rows())
    return sha256(buf.getvalue().encode("utf-8"))


@pytest.mark.parametrize("seed", [0, 1])
def test_experiment_csv_matches_recorded_digest(seed):
    assert csv_digest(synth_generate(standard_config(seed))) == DIGESTS["experiment"][str(seed)]


def test_long_lane_csv_matches_recorded_digest():
    # One straight and one curved area at 160 m, as the long_lane workload runs.
    areas = synth_generate(SynthConfig(seed=0, link_areas=2, lane_length=160.0))
    assert csv_digest(areas) == DIGESTS["long_lane"]["0"]


def test_cli_chain_matches_recorded_manifest(tmp_path, monkeypatch):
    # simulate -> score/select/update per area -> evaluate, as the benchmark's
    # cli_pipeline workload runs them for seed 0 (in-process, one job).
    monkeypatch.chdir(tmp_path)
    synth = SynthConfig(seed=0, link_areas=2, images_per_map=24)
    Path("synth.json").write_text(json.dumps(synth_config_to_dict(synth)))
    ids = [f"lane_{i:02d}" for i in range(synth.lanes_per_area)]
    mods = [
        {"op": "shift", "lane_id": ids[0], "dx": SHIFT_DX, "dy": SHIFT_DY},
        {"op": "delete", "lane_id": ids[1]},
        {"op": "add", "lane_a": ids[2], "lane_b": ids[3], "offset": ADD_OFFSET},
    ]
    Path("mods.json").write_text(json.dumps(mods))

    assert main(["simulate", "synth.json", "--output-dir", "out/areas"]) == 0
    area_files = sorted(Path("out/areas").glob("*.json"))
    for path in area_files:
        scored = f"out/scored/{path.stem}_scored.json"
        assert main(["score", str(path), "--output-dir", "out/scored", "--seed", "0"]) == 0
        assert main(["select", scored, "--output-dir", "out/selected"]) == 0
        assert main(["update", scored, "mods.json", "--output-dir", "out/fused"]) == 0
    assert main(
        ["evaluate", *map(str, area_files), "--policies", "band", "--output-dir", "out/eval"]
    ) == 0

    out = Path("out")
    files = {str(p.relative_to(out)): p for p in out.rglob("*") if p.is_file()}
    manifest = "".join(
        f"{name}\0{sha256(files[name].read_bytes())}\n" for name in sorted(files)
    )
    assert sha256(manifest.encode()) == DIGESTS["cli_pipeline"]["0"]
