"""The benchmark's four workloads: inputs made from the seed, one timed pass,
and the checks on what the pass produced.

Each workload object has ``setup()``, ``run_pass() -> PassResult``,
``check(passes) -> list[str]`` (problems found; empty means correct),
``sizes()`` and ``close()``. Setting ``runner.tracer`` makes the CLI
workloads run each command through the tracing bootstrap instead of
``python -m lanefuse.cli``; the in-process workloads are traced by
``tracing.install``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import lanefuse.cli
import lanefuse.evaluation as ev
import lanefuse.mapmodel
import stub

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"

NPROC = len(os.sched_getaffinity(0))
POLICIES = ("baseline", "seq1", "seq3", "seq5", "band")
EXPERIMENT_SEEDS = 2  # consecutive synth seeds per run, from the seed argument
LONG_LANE_M = 160.0  # 4x the standard 40 m; 240 m roughly doubles RSS again
CLI_AREAS = 2  # one straight, one curved; keeps a pass near 7 s so a run holds several
CLI_IMAGES_PER_MAP = 24  # standard layout otherwise
REMOTE_IMAGES_PER_MAP = 12  # 7 maps x 12 images x 11 requests = 924 requests, ~5 s a pass
FACTOR_REQUESTS_PER_IMAGE = 11  # 10 degradation factors plus lane clarity

clock = time.monotonic


@dataclass
class PassResult:
    wall_s: float
    areas: int
    area_ms: list[float]
    attempted: int
    failed: int
    outputs: dict[str, str]  # output name -> sha256 of its bytes
    problems: list[str] = field(default_factory=list)
    ame_band_m: float = 0.0
    peak_rss_mb: float = 0.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest_digest(outputs: dict[str, str]) -> str:
    return sha256("".join(f"{name}\0{digest}\n" for name, digest in sorted(outputs.items())).encode())


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


def report_csv(report: ev.EvaluationReport) -> bytes:
    """The bytes ``lanefuse evaluate`` writes to evaluation.csv for this report."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(report.to_csv_rows())
    return buf.getvalue().encode("utf-8")


def _common_checks(passes: list[PassResult]) -> list[str]:
    problems = [p for ps in passes for p in ps.problems]
    failed = sum(ps.failed for ps in passes)
    if failed:
        problems.append(f"{failed} of {sum(ps.attempted for ps in passes)} operations failed")
    first = passes[0].outputs
    for i, ps in enumerate(passes[1:], 2):
        if ps.outputs != first:
            problems.append(f"pass {i} outputs differ from pass 1 (nondeterministic)")
    return problems


def _check_digest(problems: list[str], table: dict, key: str, digest: str, what: str) -> bool:
    """Compare against the recorded digest; False when none is recorded."""
    want = table.get(str(key))
    if want is None:
        return False
    if want != digest:
        problems.append(f"{what}: digest {digest[:12]} != recorded {want[:12]}")
    return True


# --- in-process workloads: experiment and long_lane --------------------------


class AreaEvaluation:
    """``evaluate_area`` with all five policies on every in-memory area."""

    def __init__(self, name: str, configs: list[ev.SynthConfig]):
        self.name = name
        self.configs = configs
        self.areas: list[tuple[int, list]] = []
        self.reports: dict[int, ev.EvaluationReport] = {}
        self.digest_checked: list[int] = []

    def setup(self) -> None:
        self.areas = [(cfg.seed, ev.synth_generate(cfg)) for cfg in self.configs]
        # Warm-up: first calls into numpy/scipy paths, on a small area.
        small = ev.synth_generate(ev.SynthConfig(seed=0, link_areas=1, maps_per_area=2, lane_length=10.0))
        ev.evaluate_area(small[0], POLICIES)

    def sizes(self) -> dict:
        cfg = self.configs[0]
        return {
            "synth_seeds": [c.seed for c in self.configs],
            "areas": sum(c.link_areas for c in self.configs),
            "maps_per_area": cfg.maps_per_area,
            "images_per_map": cfg.images_per_map,
            "lanes_per_area": cfg.lanes_per_area,
            "lane_length_m": cfg.lane_length,
            "policies": list(POLICIES),
        }

    def run_pass(self) -> PassResult:
        area_ms, outputs, problems, band = [], {}, [], []
        failed = attempted = 0
        start = clock()
        for seed, areas in self.areas:
            report = ev.EvaluationReport(policies=list(POLICIES))
            for area in areas:
                attempted += 1
                t0 = clock()
                try:
                    report.rows[area.link_id] = ev.evaluate_area(area, POLICIES)
                except Exception as exc:  # count the area as failed, keep measuring
                    failed += 1
                    problems.append(f"seed {seed} {area.link_id}: {exc!r}")
                    continue
                finally:
                    area_ms.append((clock() - t0) * 1e3)
                outcome = report.rows[area.link_id]["band"]
                if outcome.applicable:
                    band.append(outcome.result.e_ame)
            outputs[f"evaluation-seed{seed}.csv"] = sha256(report_csv(report))
            self.reports[seed] = report
        wall = clock() - start
        return PassResult(
            wall_s=wall,
            areas=attempted - failed,
            area_ms=area_ms,
            attempted=attempted,
            failed=failed,
            outputs=outputs,
            problems=problems,
            ame_band_m=sum(band) / len(band) if band else 0.0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )

    def check(self, passes: list[PassResult]) -> list[str]:
        problems = _common_checks(passes)
        table = load_digests().get(self.name, {})
        self.digest_checked = []
        for seed, _ in self.areas:
            name = f"evaluation-seed{seed}.csv"
            if _check_digest(problems, table, seed, passes[0].outputs[name], name):
                self.digest_checked.append(seed)
        if self.name == "experiment" and not problems:
            problems += check_orderings(self.reports)
        return problems

    def close(self) -> None:
        pass


def check_orderings(reports: dict[int, ev.EvaluationReport]) -> list[str]:
    """The acceptance orderings on the policy averages pooled over the run's
    seeds: Seq3 <= Seq1 <= baseline and Seq3 < Seq5 < baseline."""
    pooled = {p: [] for p in POLICIES}
    for report in reports.values():
        for row in report.rows.values():
            for p in POLICIES:
                if row[p].applicable:
                    pooled[p].append(row[p].result.e_ame)
    avg = {p: sum(v) / len(v) for p, v in pooled.items() if v}
    ok = (
        avg["seq3"] <= avg["seq1"] <= avg["baseline"]
        and avg["seq3"] < avg["seq5"] < avg["baseline"]
    )
    if ok:
        return []
    shown = ", ".join(f"{p}={avg[p]:.6f}" for p in POLICIES)
    return [f"acceptance orderings broken on pooled averages: {shown}"]


def experiment(seed: int) -> AreaEvaluation:
    return AreaEvaluation(
        "experiment", [ev.standard_config(seed + i) for i in range(EXPERIMENT_SEEDS)]
    )


def long_lane(seed: int) -> AreaEvaluation:
    # Area 0 is straight and area 1 curved (synth alternates them).
    return AreaEvaluation(
        "long_lane", [ev.SynthConfig(seed=seed, link_areas=2, lane_length=LONG_LANE_M)]
    )


# --- CLI workloads: cli_pipeline and remote_score ----------------------------


@dataclass
class CommandRun:
    code: int
    wall_s: float
    peak_rss_mb: float


class CliRunner:
    """Runs ``lanefuse`` commands as child processes, one at a time.

    With a tracer, each child is the tracing bootstrap and its spans are
    merged under a ``cli.process`` span; without, it is ``python -m
    lanefuse.cli``. ``os.wait4`` gives each child's own peak RSS.
    """

    def __init__(self, work: Path, run_id: str):
        self.work = work
        self.run_id = run_id
        self.tracer = None
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = work / "stderr.log"
        self._spans = 0

    def run(self, args: list[str]) -> CommandRun:
        if self.tracer is None:
            return self._spawn([sys.executable, "-m", "lanefuse.cli", *args])
        with self.tracer.span("cli.process") as sid:
            self._spans += 1
            out = self.work / f"spans-{self._spans}.json"
            cmd = [sys.executable, str(BENCH_DIR / "tracecli.py"), str(out), sid, self.run_id, "--", *args]
            result = self._spawn(cmd)
        self.tracer.merge(json.loads(out.read_text(encoding="utf-8")))
        out.unlink()
        return result

    def warm_up(self) -> None:
        """One interpreter start that imports the whole package."""
        run = self._spawn([sys.executable, "-c", "import lanefuse.cli"])
        if run.code != 0:
            raise RuntimeError(f"import lanefuse.cli exited {run.code}: {self.stderr_tail()}")

    def _spawn(self, cmd: list[str]) -> CommandRun:
        with open(self.log, "ab") as err:
            t0 = clock()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = clock() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CommandRun(proc.returncode, wall, usage.ru_maxrss / 1024)

    def stderr_tail(self) -> str:
        lines = self.log.read_text(encoding="utf-8", errors="replace").splitlines() if self.log.exists() else []
        return " | ".join(lines[-3:])


def import_seconds(runs: int = 3) -> float:
    """Median time of ``import lanefuse.cli`` in a fresh interpreter."""
    code = "import time; t = time.monotonic(); import lanefuse.cli; print(time.monotonic() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = sorted(
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout)
        for _ in range(runs)
    )
    return times[len(times) // 2]


def _quiet_cli(args: list[str]) -> int:
    """lanefuse.cli.main in this process, with its progress lines dropped."""
    with contextlib.redirect_stderr(io.StringIO()):
        return lanefuse.cli.main(args)


def _tree_digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): sha256(p.read_bytes())
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class CliWorkload:
    """Shared state of the workloads that run lanefuse commands as processes."""

    def __init__(self, name: str, seed: int, work: Path, run_id: str, synth: ev.SynthConfig):
        self.name = name  # key of this workload's digests
        self.seed = seed
        self.work = work
        self.runner = CliRunner(work, run_id)
        self.synth = synth
        self.digest_checked: list[int] = []

    def close(self) -> None:
        pass


class CliPipeline(CliWorkload):
    """simulate -> score/select/update per area -> evaluate, one process each."""

    def __init__(self, seed: int, work: Path, run_id: str):
        super().__init__("cli_pipeline", seed, work, run_id, ev.SynthConfig(
            seed=seed, link_areas=CLI_AREAS, images_per_map=CLI_IMAGES_PER_MAP))

    def setup(self) -> None:
        (self.work / "synth.json").write_text(json.dumps(ev.synth_config_to_dict(self.synth)))
        ids = [f"lane_{i:02d}" for i in range(self.synth.lanes_per_area)]
        mods = [
            {"op": "shift", "lane_id": ids[0], "dx": ev.SHIFT_DX, "dy": ev.SHIFT_DY},
            {"op": "delete", "lane_id": ids[1]},
            {"op": "add", "lane_a": ids[2], "lane_b": ids[3], "offset": ev.ADD_OFFSET},
        ]
        (self.work / "mods.json").write_text(json.dumps(mods))
        self.runner.warm_up()

    def sizes(self) -> dict:
        return {
            "synth_seed": self.seed,
            "areas": self.synth.link_areas,
            "maps_per_area": self.synth.maps_per_area,
            "images_per_map": self.synth.images_per_map,
            "lane_length_m": self.synth.lane_length,
            "commands": 2 + 3 * self.synth.link_areas,
            "evaluate_jobs": NPROC,
        }

    def run_pass(self) -> PassResult:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        runs: list[CommandRun] = []
        area_ms: list[float] = []

        def run(*args) -> CommandRun:
            result = self.runner.run(list(args))
            runs.append(result)
            return result

        start = clock()
        run("simulate", "synth.json", "--output-dir", "out/areas")
        area_files = sorted((out / "areas").glob("*.json"))
        for path in area_files:
            rel = f"out/areas/{path.name}"
            scored = f"out/scored/{path.stem}_scored.json"
            chain = [
                run("score", rel, "--output-dir", "out/scored", "--seed", str(self.seed)),
                run("select", scored, "--output-dir", "out/selected"),
                run("update", scored, "mods.json", "--output-dir", "out/fused"),
            ]
            area_ms.append(sum(r.wall_s for r in chain) * 1e3)
        run("evaluate", *(f"out/areas/{p.name}" for p in area_files),
            "--policies", "band", "--jobs", str(NPROC), "--output-dir", "out/eval")
        wall = clock() - start

        failed = sum(r.code != 0 for r in runs)
        problems = [f"{failed} commands exited non-zero: {self.runner.stderr_tail()}"] if failed else []
        if len(area_files) != self.synth.link_areas:
            problems.append(f"simulate wrote {len(area_files)} areas, expected {self.synth.link_areas}")
        return PassResult(
            wall_s=wall,
            areas=len(area_files),
            area_ms=area_ms,
            attempted=len(runs),
            failed=failed,
            outputs=_tree_digests(out),
            problems=problems,
            ame_band_m=_band_average(out / "eval" / "evaluation.csv"),
            peak_rss_mb=max(r.peak_rss_mb for r in runs),
        )

    def check(self, passes: list[PassResult]) -> list[str]:
        problems = _common_checks(passes)
        table = load_digests().get(self.name, {})
        digest = manifest_digest(passes[0].outputs)
        self.digest_checked = [self.seed] if _check_digest(problems, table, self.seed, digest, "cli outputs") else []
        expected = 5 * self.synth.link_areas + 2  # per area: area, scored json+csv, selection, fused
        if len(passes[0].outputs) != expected:
            problems.append(f"{len(passes[0].outputs)} output files, expected {expected}")
        return problems


def _band_average(path: Path) -> float:
    if not path.exists():
        return 0.0
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if row[:2] == ["average", "band"] and row[2] != "n/a":
                return float(row[2])
    return 0.0


class RemoteScore(CliWorkload):
    """``lanefuse score --backend remote`` against the stub scorer process."""

    def __init__(self, seed: int, work: Path, run_id: str):
        super().__init__("remote_score", seed, work, run_id, ev.SynthConfig(
            seed=seed, link_areas=1, images_per_map=REMOTE_IMAGES_PER_MAP))
        self.stub_proc: subprocess.Popen | None = None
        self.port = 0
        self.stats: dict = {}
        self.log_bytes = 0

    @property
    def images(self) -> int:
        return self.synth.maps_per_area * self.synth.images_per_map

    @property
    def requests(self) -> int:
        return self.images * FACTOR_REQUESTS_PER_IMAGE

    def _start_stub(self) -> None:
        self.close()
        self.stub_proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--seed", str(self.seed)],
            env=self.runner.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.stub_proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError("stub scorer did not start")
        self.port = int(line)

    def stub_stats(self) -> dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/stats", timeout=30) as resp:
            return json.loads(resp.read())

    def setup(self) -> None:
        self._start_stub()
        area = ev.synth_generate(self.synth)[0]
        lanefuse.mapmodel.save_link_area(area, self.work / "area.json")
        (self.work / "remote.ini").write_text(
            "[pipeline]\n"
            "backend = remote\n"
            f"scenario = {stub.SCENARIO}\n"
            "[backend]\n"
            f"endpoint = http://127.0.0.1:{self.port}/score\n"
            f"max_in_flight = {NPROC}\n"
            "record_log = replay.jsonl\n"
        )
        self.stub_stats()  # warm-up: the stub answers

    def sizes(self) -> dict:
        return {
            "synth_seed": self.seed,
            "areas": 1,
            "maps_per_area": self.synth.maps_per_area,
            "images": self.images,
            "requests": self.requests,
            "stub_delay_ms": stub.DELAY_MS,
            "max_in_flight": NPROC,
        }

    def run_pass(self) -> PassResult:
        log = self.work / "replay.jsonl"
        log.unlink(missing_ok=True)
        shutil.rmtree(self.work / "out", ignore_errors=True)
        before = self.stub_stats()
        start = clock()
        run = self.runner.run(["score", "area.json", "--config", "remote.ini",
                               "--output-dir", "out", "--seed", str(self.seed)])
        wall = clock() - start
        after = self.stub_stats()
        self.stats = {k: after[k] - before[k] for k in ("attempts", "errors_5xx")}
        self.stats["in_flight_max"] = after["in_flight_max"]
        self.log_bytes = log.stat().st_size if log.exists() else 0
        answered = self.stats["attempts"] - self.stats["errors_5xx"]
        failed = max(0, self.requests - answered) if run.code else 0
        problems = [f"score exited {run.code}: {self.runner.stderr_tail()}"] if run.code else []
        return PassResult(
            wall_s=wall,
            areas=1 if run.code == 0 else 0,
            area_ms=[wall * 1e3],
            attempted=self.requests,
            failed=failed,
            outputs=_tree_digests(self.work / "out"),
            problems=problems,
            peak_rss_mb=run.peak_rss_mb,
        )

    def check(self, passes: list[PassResult]) -> list[str]:
        problems = _common_checks(passes)
        if problems:
            return problems
        csv_name = "area_scores.csv"
        got = (self.work / "out" / csv_name).read_bytes()
        ref = self.work / "ref"
        if _quiet_cli(["score", str(self.work / "area.json"), "--backend", "synthetic",
                       "--scenario", stub.SCENARIO, "--seed", str(self.seed), "--output-dir", str(ref)]):
            return ["synthetic reference run failed"]
        if got != (ref / csv_name).read_bytes():
            problems.append("remote scores CSV differs from the synthetic backend's")
        rep = self.work / "replay"
        if _quiet_cli(["score", str(self.work / "area.json"), "--backend", "replay",
                       "--replay-log", str(self.work / "replay.jsonl"), "--output-dir", str(rep)]):
            problems.append("replay of the recorded log failed")
        elif got != (rep / csv_name).read_bytes():
            problems.append("replayed scores CSV differs from the remote run's")
        return problems

    def close(self) -> None:
        if self.stub_proc is not None:
            self.stub_proc.stdin.close()
            try:
                self.stub_proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.stub_proc.kill()
                self.stub_proc.wait()
            self.stub_proc.stdout.close()
            self.stub_proc = None


WORKLOADS = ("experiment", "long_lane", "cli_pipeline", "remote_score")


def make(name: str, seed: int, work: Path, run_id: str):
    if name == "experiment":
        return experiment(seed)
    if name == "long_lane":
        return long_lane(seed)
    if name == "cli_pipeline":
        return CliPipeline(seed, work, run_id)
    if name == "remote_score":
        return RemoteScore(seed, work, run_id)
    raise ValueError(f"unknown workload {name!r}")
