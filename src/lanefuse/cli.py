"""Command-line front door for batch map scoring, selection, update and eval.

Subcommands: score, select, update, evaluate, simulate. Errors go to stderr
and map to exit codes (1 config, 2 input data, 3 backend); data lands in
files only, written atomically, with floats at 6 decimals so runs diff
cleanly. Identical inputs and seeds give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

from . import backends as be
from . import evaluation as ev
from .confidence import CONFIDENCE_METHODS, with_confidence
from .config import BACKEND_KINDS, PipelineConfig, check_k_cap, load_pipeline_config
from .errors import (
    BackendError,
    ConfigError,
    LanefuseError,
)
from .fusion import rank_maps, select_band
from .mapmodel import (
    LinkArea,
    atomic_writer,
    load_link_area,
    save_link_area,
    save_local_map,
    write_scores_csv,
)
from .pipeline import load_modifications, update

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INPUT = 2
EXIT_BACKEND = 3


def _make_backend(cfg: PipelineConfig, seed: int):
    if cfg.backend == "synthetic":
        return be.SyntheticScorer(cfg.scenario(), seed=seed)
    if cfg.backend == "replay":
        if not cfg.replay_log:
            raise ConfigError("replay backend needs [backend] replay_log")
        return be.ReplayScorer(cfg.replay_log)
    return be.RemoteScorer(
        cfg.resolve_endpoint(),
        max_retries=cfg.max_retries,
        timeout=cfg.timeout,
        max_in_flight=cfg.max_in_flight,
        log_path=cfg.record_log or None,
    )


def cmd_score(args, cfg: PipelineConfig) -> int:
    area = load_link_area(args.map_file)
    backend = _make_backend(cfg, args.seed)
    images = [img for m in area.local_maps for img in m.images]
    if not images:
        raise LanefuseError(f"{args.map_file}: no images to score")
    assessments = iter(
        be.collect_assessments(
            backend,
            [(img.image_id, img.timestamp) for img in images],
            factors=sorted(cfg.context.active_factors, key=lambda f: f.value),
        )
    )
    scored_maps = [
        dataclasses.replace(
            local_map,
            images=[
                with_confidence(next(assessments), cfg.weights, cfg.context, cfg.method)
                for _ in local_map.images
            ],
        )
        for local_map in area.local_maps
    ]
    scored = LinkArea(
        link_id=area.link_id, local_maps=scored_maps, ground_truth=area.ground_truth
    )
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.map_file).stem
    map_out = out_dir / f"{stem}_scored.json"
    csv_out = out_dir / f"{stem}_scores.csv"
    save_link_area(scored, map_out)
    all_images = [img for m in scored.local_maps for img in m.images]
    write_scores_csv(all_images, csv_out)
    print(f"wrote {map_out} and {csv_out}", file=sys.stderr)
    return EXIT_OK


def cmd_select(args, cfg: PipelineConfig) -> int:
    area = load_link_area(args.area_file)
    ranked = rank_maps(area)
    result = select_band(ranked, k_cap=cfg.k_cap)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{Path(args.area_file).stem}_selection.csv"
    with atomic_writer(out, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "map_id", "avg_confidence", "selected"])
        selected = set(result.selected_map_ids)
        for rank, (map_id, avg) in enumerate(ranked, 1):
            writer.writerow(
                [rank, map_id, f"{avg:.6f}", "yes" if map_id in selected else "no"]
            )
        writer.writerow([])
        writer.writerow(["c_best", f"{result.c_best:.6f}"])
        writer.writerow(["lower_bound", f"{result.lower_bound:.6f}"])
        writer.writerow(["selected_count", len(result.selected_map_ids)])
    print(f"wrote {out}", file=sys.stderr)
    return EXIT_OK


def cmd_update(args, cfg: PipelineConfig) -> int:
    area = load_link_area(args.area_file)
    mods = load_modifications(Path(args.script_file))
    chosen = set(select_band(rank_maps(area), k_cap=cfg.k_cap).selected_map_ids)
    # The band is pooled in area-file order; evaluate pools in rank order.
    band = [m.map_id for m in area.local_maps if m.map_id in chosen]
    (fused,) = update(area, mods, [band], cfg.dbscan, cfg.icp)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{Path(args.area_file).stem}_fused.json"
    save_local_map(fused, out)
    print(f"wrote {out}", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args, cfg: PipelineConfig) -> int:
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        raise ConfigError("no policies given")
    ev.parse_policies(policies)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    areas = [load_link_area(f) for f in args.area_files]
    report = ev.run_experiment(areas, policies, cfg.dbscan, cfg.icp, jobs=args.jobs)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "evaluation.csv"
    with atomic_writer(csv_path, newline="") as fh:
        csv.writer(fh).writerows(report.to_csv_rows())
    with atomic_writer(out_dir / "evaluation.txt") as fh:
        fh.write(report.format_table())
    print(f"wrote {csv_path} and {out_dir / 'evaluation.txt'}", file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args, cfg: PipelineConfig) -> int:
    synth_cfg = ev.load_synth_config(args.synth_config)
    if args.seed is not None and args.seed != synth_cfg.seed:
        synth_cfg = dataclasses.replace(synth_cfg, seed=args.seed)
    areas = ev.synth_generate(synth_cfg, cfg.weights, cfg.context, cfg.method)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for area in areas:
        save_link_area(area, out_dir / f"{area.link_id}.json")
    print(f"wrote {len(areas)} link area files to {out_dir}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lanefuse",
        description="Confidence-scored selection and fusion of crowdsourced lane maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="pipeline INI file")
        p.add_argument("--output-dir", default=".", help="directory for outputs")

    p = sub.add_parser("score", help="score every image in a map file")
    common(p)
    p.add_argument("map_file")
    p.add_argument("--seed", type=int, default=0, help="synthetic scorer seed")
    p.add_argument("--backend", choices=BACKEND_KINDS)
    p.add_argument("--scenario", help="scenario for the synthetic backend")
    p.add_argument("--replay-log", help="replay log path")
    p.add_argument("--endpoint", help="remote scorer URL")
    p.add_argument("--method", choices=CONFIDENCE_METHODS)
    p.add_argument("--context", help="context profile name")

    p = sub.add_parser("select", help="rank maps and pick the confidence band")
    common(p)
    p.add_argument("area_file")
    p.add_argument("--k-cap", type=int, default=None)

    p = sub.add_parser("update", help="apply modifications and fuse")
    common(p)
    p.add_argument("area_file")
    p.add_argument("script_file")
    p.add_argument("--k-cap", type=int, default=None)

    p = sub.add_parser("evaluate", help="run selection policies against truth")
    common(p)
    p.add_argument("area_files", nargs="+")
    p.add_argument(
        "--policies",
        default="baseline,seq1,seq3,seq5,band",
        help="comma-separated: baseline, band, seqK, threshold",
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel link areas")

    p = sub.add_parser("simulate", help="generate synthetic link areas")
    common(p)
    p.add_argument("synth_config")
    p.add_argument("--seed", type=int, default=None, help="override the config's seed")
    return parser


def _apply_overrides(args, cfg: PipelineConfig) -> PipelineConfig:
    if getattr(args, "backend", None):
        cfg.backend = args.backend
    if getattr(args, "scenario", None):
        cfg.scenario_name = args.scenario
    if getattr(args, "replay_log", None):
        cfg.replay_log = args.replay_log
    if getattr(args, "endpoint", None):
        cfg.endpoint = args.endpoint
    if getattr(args, "method", None):
        cfg.method = args.method
    if getattr(args, "k_cap", None) is not None:
        check_k_cap(args.k_cap, "--k-cap")
        cfg.k_cap = args.k_cap
    if getattr(args, "context", None):
        cfg.use_context(args.context)
    return cfg


COMMANDS = {
    "score": cmd_score,
    "select": cmd_select,
    "update": cmd_update,
    "evaluate": cmd_evaluate,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_pipeline_config(args.config)
        cfg = _apply_overrides(args, cfg)
        return COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except LanefuseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
