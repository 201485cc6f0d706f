"""Spans and counters recorded around lanefuse's layers, from outside the package.

``install(tracer)`` replaces each layer's public functions with timing
wrappers. Modules import one another by name (``from .clustering import
dbscan``), so a wrapper is set at the attribute the *caller* looks up:
``lanefuse.fusion.dbscan``, ``lanefuse.evaluation.fuse_maps``,
``lanefuse.cli.load_link_area``, the entries of ``lanefuse.cli.COMMANDS``, and
so on. Setting only the defining module would miss every call.

Spans carry a name, start, end, parent and run id; they stay in memory and
are written out when the run ends. Times come from ``time.monotonic``, which
on Linux is CLOCK_MONOTONIC and so shares one time base with the child
processes the CLI workloads start.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import itertools
import json
import os
import threading
import time
from pathlib import Path

import numpy as np

clock = time.monotonic

# A span's layer is its name up to the first dot; "bench.*" spans are the
# benchmark's own set-up and pass. "cli.process" is a whole CLI child
# process: its self time is interpreter start-up, imports and argument parsing.
LAYERS = (
    "scoring",
    "confidence",
    "backends",
    "mapmodel",
    "registration",
    "clustering",
    "fusion",
    "evaluation",
    "cli",
)


class Tracer:
    """In-memory span and counter store for one process of one run."""

    def __init__(self, run_id: str, root: str | None = None):
        self.run_id = run_id
        self.root = root  # parent of spans opened with no enclosing span
        self.spans: list[dict] = []
        self.counts: collections.Counter = collections.Counter()
        self.sources: set[str] = set()  # distinct ICP source maps
        self._ids = itertools.count(1)
        self._prefix = f"{os.getpid()}:"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            sid = f"{self._prefix}{next(self._ids)}"
        # A worker thread's first span belongs to the span that started the
        # pool (cmd_evaluate's ThreadPoolExecutor), which is blocked on it.
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = self.root
        stack.append(sid)
        start = clock()
        try:
            yield sid
        finally:
            end = clock()
            stack.pop()
            self.spans.append(
                {"id": sid, "parent": parent, "name": name, "start": start, "end": end, "run": self.run_id}
            )

    def add(self, key: str, n: int | float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def merge(self, data: dict) -> None:
        """Fold in the spans and counts a child process dumped."""
        self.spans.extend(data["spans"])
        with self._lock:
            self.counts.update(data["counts"])
            self.sources.update(data["sources"])

    def dump(self, path) -> None:
        payload = {"spans": self.spans, "counts": dict(self.counts), "sources": sorted(self.sources)}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


# --- hooks: counts taken at the layer boundary from arguments and results -----


def _lane_point_count(lanes) -> int:
    return sum(len(lane.points) for lane in lanes)


def _after_dbscan(tr, labels, points, *_a, **_k):
    labels = np.asarray(labels)
    tr.add("clustering.points_in", len(labels))
    tr.add("clustering.noise_points", int(np.count_nonzero(labels < 0)))
    tr.add("clustering.clusters", int(np.unique(labels[labels >= 0]).size))


def _after_icp(tr, result, source, *_a, **_k):
    digest = hashlib.blake2b(np.ascontiguousarray(source, dtype=float).tobytes(), digest_size=16)
    with tr._lock:
        tr.sources.add(digest.hexdigest())
    tr.add("registration.icp_iterations", result.iterations)
    tr.add("registration.icp_unconverged", 0 if result.converged else 1)


def _after_transform(tr, result, transform, local_map, *_a, **_k):
    tr.add("registration.transform_points", _lane_point_count(local_map.lane_lines))


def _after_fuse(tr, fused, *_a, **_k):
    tr.add("fusion.lanes_out", len(fused.lane_lines))


def _after_ame(tr, result, estimated, truth, lateral_only=True, symmetric=False):
    n = _lane_point_count(estimated)
    m = sum(len(lane.points) - 1 for lane in truth)
    pairs = n * m
    if symmetric:
        pairs += _lane_point_count(truth) * sum(len(lane.points) - 1 for lane in estimated)
    tr.add("evaluation.ame_pairs", pairs)


def _after_load(tr, area, path, *_a, **_k):
    tr.add("mapmodel.bytes_read", os.path.getsize(path))


def _after_save(tr, _result, _obj, path, *_a, **_k):
    tr.add("mapmodel.bytes_written", os.path.getsize(path))


def _after_write_csv(tr, _result, _images, path, *_a, **_k):
    tr.add("mapmodel.bytes_written", os.path.getsize(path))


def _wrap(tracer: Tracer, fn, name: str, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, result, *args, **kwargs)
        return result

    return wrapper


def install(tracer: Tracer):
    """Wrap every layer's public entry points; returns a function that undoes it."""
    import lanefuse.backends as be
    import lanefuse.cli as cli
    import lanefuse.evaluation as ev
    import lanefuse.fusion as fu
    import lanefuse.mapmodel as mm

    # (owner, attribute, span name, hook). The owner is the namespace the
    # caller resolves the name in at call time.
    targets = [
        (fu, "dbscan", "clustering.dbscan", _after_dbscan),
        (fu, "icp_align", "registration.icp_align", _after_icp),
        (fu, "apply_transform", "registration.apply_transform", _after_transform),
        (fu, "cluster_polyline", "fusion.cluster_polyline", None),
        (ev, "fuse_maps", "fusion.fuse_maps", _after_fuse),
        (ev, "rank_maps", "fusion.rank_maps", None),
        (ev, "select_band", "fusion.select_band", None),
        (cli, "rank_maps", "fusion.rank_maps", None),
        (cli, "select_band", "fusion.select_band", None),
        (ev, "evaluate_area", "evaluation.evaluate_area", None),
        (ev, "ame", "evaluation.ame", _after_ame),
        (ev, "apply_modifications", "evaluation.apply_modifications", None),
        (ev, "prior_map", "evaluation.prior_map", None),
        (ev, "synth_generate", "evaluation.synth_generate", None),
        (ev, "collect_assessment", "backends.collect_assessment", None),
        (be, "collect_assessment", "backends.collect_assessment", None),
        (be.RemoteScorer, "score", "backends.request", None),
        (be.SyntheticScorer, "score", "backends.request", None),
        (be, "assess_image", "scoring.assess_image", None),
        (ev, "with_confidence", "confidence.with_confidence", None),
        (cli, "with_confidence", "confidence.with_confidence", None),
        (cli, "load_link_area", "mapmodel.load_link_area", _after_load),
        (cli, "save_link_area", "mapmodel.save_link_area", _after_save),
        (cli, "save_local_map", "mapmodel.save_local_map", _after_save),
        (cli, "write_scores_csv", "mapmodel.write_scores_csv", _after_write_csv),
        (mm.LaneLine, "points_array", "mapmodel.points_array", None),
    ]
    # cli.main dispatches through this dict, not through the module attributes.
    targets += [(cli.COMMANDS, name, f"cli.{name}", None) for name in list(cli.COMMANDS)]

    undo = []
    for owner, attr, name, after in targets:
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = _wrap(tracer, original, name, after)
            undo.append(functools.partial(owner.__setitem__, attr, original))
        else:
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(tracer, original, name, after))
            undo.append(functools.partial(setattr, owner, attr, original))

    # Point3 is built ~10^5 times per area set: count it, no span.
    post_init = mm.Point3.__post_init__

    def counted_post_init(self):
        tracer.add("mapmodel.point3_created")
        post_init(self)

    mm.Point3.__post_init__ = counted_post_init
    undo.append(functools.partial(setattr, mm.Point3, "__post_init__", post_init))

    def uninstall():
        for step in reversed(undo):
            step()

    return uninstall


# --- analysis ----------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[str, list[tuple[float, float]]] = collections.defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        clipped = [
            (max(a, s["start"]), min(b, s["end"]))
            for a, b in children.get(s["id"], ())
            if min(b, s["end"]) > max(a, s["start"])
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _union_length(clipped)
    return out


def descendants(spans: list[dict], root_id: str) -> list[dict]:
    """Every span below root_id (the root excluded)."""
    kids = collections.defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)
    out, todo = [], [root_id]
    while todo:
        for s in kids.get(todo.pop(), ()):
            out.append(s)
            todo.append(s["id"])
    return out


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer, pass_id: str, overhead_frac: float, extra: dict) -> dict:
    """Per-layer metrics of one traced pass; ``extra`` supplies the values
    measured outside the spans (stub counts, import time, accuracy)."""
    spans = tracer.spans
    selfs = self_times(spans)
    inside = descendants(spans, pass_id)
    pass_span = next(s for s in spans if s["id"] == pass_id)
    wall = pass_span["end"] - pass_span["start"]
    c = tracer.counts

    total = collections.defaultdict(float)
    calls = collections.Counter()
    own = collections.defaultdict(float)
    for s in inside:
        total[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
        own[s["name"]] += selfs[s["id"]]
    # Set-up spans (outside the pass) count only toward synth_s, which
    # explains setup_s.
    synth_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "evaluation.synth_generate")

    def layer_self(layer):
        return sum(v for name, v in own.items() if name.split(".")[0] == layer)

    clusters = c["clustering.clusters"]
    points_in = c["clustering.points_in"]
    icp_calls = calls["registration.icp_align"]
    requests_ms = [(s["end"] - s["start"]) * 1e3 for s in inside if s["name"] == "backends.request"]
    m = {
        "clustering.dbscan_calls": calls["clustering.dbscan"],
        "clustering.dbscan_s": total["clustering.dbscan"],
        "clustering.points_in": points_in,
        "clustering.clusters": clusters,
        "clustering.noise_frac": c["clustering.noise_points"] / points_in if points_in else 0.0,
        "registration.icp_calls": icp_calls,
        "registration.icp_s": total["registration.icp_align"],
        "registration.icp_iterations": c["registration.icp_iterations"],
        "registration.icp_unconverged": c["registration.icp_unconverged"],
        "registration.icp_unique_ratio": len(tracer.sources) / icp_calls if icp_calls else 0.0,
        "registration.transform_s": total["registration.apply_transform"],
        "registration.transform_points": c["registration.transform_points"],
        "fusion.fuse_calls": calls["fusion.fuse_maps"],
        "fusion.fuse_s": total["fusion.fuse_maps"],
        # fuse_maps alone: its ICP, transform, DBSCAN and polyline children
        # are subtracted, and rank_maps/select_band are not part of it.
        "fusion.self_s": own["fusion.fuse_maps"],
        "fusion.polyline_s": total["fusion.cluster_polyline"],
        "fusion.lanes_per_cluster": c["fusion.lanes_out"] / clusters if clusters else 0.0,
        "evaluation.ame_calls": calls["evaluation.ame"],
        "evaluation.ame_s": total["evaluation.ame"],
        "evaluation.ame_pairs": c["evaluation.ame_pairs"],
        # Four (n, m, 3) float64 temporaries per call in _point_errors.
        "evaluation.ame_bytes_computed": c["evaluation.ame_pairs"] * 4 * 3 * 8,
        "evaluation.modify_s": total["evaluation.apply_modifications"] + total["evaluation.prior_map"],
        "evaluation.area_self_s": own["evaluation.evaluate_area"],
        "evaluation.synth_s": synth_s,
        "evaluation.ame_band_m": extra.get("ame_band_m", 0.0),
        "mapmodel.load_calls": calls["mapmodel.load_link_area"],
        "mapmodel.load_s": total["mapmodel.load_link_area"],
        "mapmodel.bytes_read": c["mapmodel.bytes_read"],
        "mapmodel.save_s": total["mapmodel.save_link_area"]
        + total["mapmodel.save_local_map"]
        + total["mapmodel.write_scores_csv"],
        "mapmodel.bytes_written": c["mapmodel.bytes_written"],
        "mapmodel.point3_created": c["mapmodel.point3_created"],
        "mapmodel.points_array_s": total["mapmodel.points_array"],
        "cli.import_s": extra.get("cli_import_s", 0.0),
        "cli.simulate_s": total["cli.simulate"],
        "cli.score_s": total["cli.score"],
        "cli.select_s": total["cli.select"],
        "cli.update_s": total["cli.update"],
        "cli.evaluate_s": total["cli.evaluate"],
        "cli.process_self_s": own["cli.process"],
        "backends.requests": calls["backends.request"],
        "backends.busy_s": total["backends.request"],
        "backends.request_ms_p50": _percentile(requests_ms, 50),
        "backends.request_ms_p99": _percentile(requests_ms, 99),
        "backends.server_attempts": extra.get("server_attempts", 0),
        # Only the stub counts attempts, so this is 0 where no stub runs.
        "backends.retries": max(0, extra.get("server_attempts", 0) - calls["backends.request"]),
        "backends.in_flight_max": extra.get("in_flight_max", 0),
        "backends.log_bytes": extra.get("log_bytes", 0),
        "scoring.assess_calls": calls["scoring.assess_image"],
        "scoring.assess_s": total["scoring.assess_image"],
        "confidence.calls": calls["confidence.with_confidence"],
        "confidence.busy_s": total["confidence.with_confidence"],
        "trace.overhead_frac": overhead_frac,
        "trace.wall_s": wall,
        "bench.self_s": selfs[pass_id],
    }
    # A layer's self time is that of all its spans; with bench.self_s they
    # add up to the traced pass.
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = layer_self(layer)
    m["trace.layer_self_frac"] = sum(m[f"{layer}.layer_self_s"] for layer in LAYERS) / wall if wall else 0.0
    return m
