"""The benchmark's tracer wraps lanefuse names in place; a renamed or removed
name must fail here rather than break ``perfbench/run.py --trace 1``."""

import collections
import importlib
from pathlib import Path

import lanefuse.cli
import lanefuse.evaluation
import lanefuse.fusion
import lanefuse.mapmodel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracing_hooks_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    owners = (lanefuse.cli, lanefuse.evaluation, lanefuse.fusion)
    before = [dict(vars(owner)) for owner in owners]
    commands = dict(lanefuse.cli.COMMANDS)
    post_init = lanefuse.mapmodel.Point3.__post_init__

    uninstall = tracing.install(tracing.Tracer("t"))
    assert lanefuse.fusion.icp_align is not before[2]["icp_align"]
    uninstall()

    assert [dict(vars(owner)) for owner in owners] == before
    assert lanefuse.cli.COMMANDS == commands
    assert lanefuse.mapmodel.Point3.__post_init__ is post_init


# 3 maps of 1 image, each scored once by synth_generate and once by `score`:
# 11 requests (10 factors and the clarity probe) per image and scoring.
SPAN_COUNTS = {
    "backends.request": 66,
    "scoring.assess_image": 6,
    "confidence.with_confidence": 6,
    "backends.collect_assessment": 3,
    "registration.icp_align": 3,
    "registration.apply_transform": 3,
    "clustering.dbscan": 2,
    "evaluation.ame": 2,
}


def test_traced_job_fires_every_hooked_span(monkeypatch, tmp_path):
    """A renamed lookup leaves its wrapper installed but never called; count
    the spans a small job must open so such a hook fails here too."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    ev = lanefuse.evaluation
    tracer = tracing.Tracer("t")
    uninstall = tracing.install(tracer)
    try:
        config = ev.SynthConfig(
            seed=0, link_areas=1, maps_per_area=3, images_per_map=1, lane_length=10.0
        )
        (area,) = ev.synth_generate(config)
        ev.evaluate_area(area, ["baseline", "band"])
        area_file = tmp_path / "area.json"
        lanefuse.mapmodel.save_link_area(area, area_file)
        out = tmp_path / "out"
        assert lanefuse.cli.main(["score", str(area_file), "--output-dir", str(out)]) == 0
        scored = str(out / "area_scored.json")
        assert lanefuse.cli.main(["select", scored, "--output-dir", str(out)]) == 0
    finally:
        uninstall()
    counts = collections.Counter(span["name"] for span in tracer.spans)
    assert {name: counts[name] for name in SPAN_COUNTS} == SPAN_COUNTS


def test_traced_experiment_counts_each_area_for_every_jobs(monkeypatch):
    """run_experiment must look evaluate_area up when it runs, so a worker
    bound before the hooks are installed shows here as a missing span."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    ev = lanefuse.evaluation
    config = ev.SynthConfig(
        seed=0, link_areas=2, maps_per_area=2, images_per_map=1, lane_length=10.0
    )
    areas = ev.synth_generate(config)
    for jobs in (1, 2):
        tracer = tracing.Tracer("t")
        uninstall = tracing.install(tracer)
        try:
            ev.run_experiment(areas, ["seq1"], jobs=jobs)
        finally:
            uninstall()
        names = [span["name"] for span in tracer.spans]
        assert names.count("evaluation.evaluate_area") == 2
