"""Record the output digests the benchmark checks its runs against.

Usage: python3 perfbench/record_digests.py

Writes perfbench/digests.json for run seeds 0-63: for ``experiment`` and
``long_lane`` the sha256 of the evaluation CSV per synth seed, for
``cli_pipeline`` the digest of the manifest of every output file per seed.
Each area set is evaluated and each CLI command run exactly as the benchmark
does it (the commands as ``python -m lanefuse.cli`` child processes).
Run it only on a commit whose outputs are known good; a later change that
alters outputs must say why in its own notes.
"""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT = BENCH_DIR / "out"
RUN_SEEDS = range(64)
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads as wl  # noqa: E402


def _area_digests(name: str, seed: int) -> tuple[str, int, str, dict]:
    load = wl.experiment if name == "experiment" else wl.long_lane
    w = load(seed)
    w.configs = w.configs[:1]
    w.setup()
    result = w.run_pass()
    digest = result.outputs[f"evaluation-seed{seed}.csv"]
    return name, seed, digest, w.reports[seed].averages()


def _cli_digest(seed: int) -> tuple[str, int, str, dict]:
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        w = wl.CliPipeline(seed, Path(tmp), "record")
        w.setup()
        result = w.run_pass()
        if result.failed or result.problems:
            raise RuntimeError(f"cli_pipeline seed {seed}: {result.problems}")
        return "cli_pipeline", seed, wl.manifest_digest(result.outputs), {}


def main() -> int:
    OUT.mkdir(exist_ok=True)
    # A run on seed s evaluates synth seeds s .. s+EXPERIMENT_SEEDS-1.
    synth_seeds = range(RUN_SEEDS.start, RUN_SEEDS.stop + wl.EXPERIMENT_SEEDS - 1)
    table: dict[str, dict] = {"experiment": {}, "long_lane": {}, "cli_pipeline": {}}
    ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(wl.NPROC, mp_context=ctx) as pool:
        futures = [pool.submit(_area_digests, "experiment", s) for s in synth_seeds]
        futures += [pool.submit(_area_digests, "long_lane", s) for s in RUN_SEEDS]
        futures += [pool.submit(_cli_digest, s) for s in RUN_SEEDS]
        for future in concurrent.futures.as_completed(futures):
            name, seed, digest, averages = future.result()
            table[name][str(seed)] = digest
            shown = " ".join(f"{p}={v:.4f}" for p, v in averages.items())
            print(f"{name} {seed} {digest[:12]} {shown}", flush=True)
    for name in table:
        table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    (BENCH_DIR / "digests.json").write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
