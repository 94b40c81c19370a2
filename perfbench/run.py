#!/usr/bin/env python3
"""The repository's benchmark: three workloads through the sweep service.

Run from the repository root::

    python3 perfbench/run.py --workload potrf-scale --seed 1 --seconds 40 --trace 0

Points go through the path users take, ``repro.service.SweepClient``
with ``JobSpec``, submitted one at a time.  Every measurement runs in a
fresh child process of this script with one job:

* ``cold``   — imports, a fresh store and spec generation (``setup_s``,
  up to the point where the first submit happens), then every point
  simulated on the empty store (``wall_s``; its RSS high-water mark is
  ``peak_rss_mb``);
* ``replay`` — a fresh client on the store a cold child filled resubmits
  the points round-robin; every hit must be served from the store,
  bit-identical to the cold report, with zero simulations.  The hit
  latencies are calibrated against a reference operation timed after
  each hit (see ``REFERENCE_US``).

``--trace 0`` runs at least ``MIN_COLD_PASSES`` cold passes, more while
they fit in ``--seconds`` minus the replay, then one replay on the last
pass's store.  It prints the end-to-end metrics as medians over the
passes; ``wall_s`` and ``setup_s`` are calibrated against a reference
timed between the points (see ``PASS_REFERENCE_MS``).
``--trace 1`` runs one untraced cold pass, then a traced cold pass and
replay under the layer tracer (``tracer.py``), and prints the per-layer
metrics plus the tracing overhead.

Every output is checked (``workloads.check_cold`` / ``check_warm``); a
point that raises or breaks a check counts in ``failed``, and so does a
run whose engine path or layer spans cannot be observed.  The last line
of standard output is one JSON object; a record with the host, source
commit and engine path of the run is written under ``.perfbench/``.
See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("potrf-scale", "fig9-sweep", "option-mix")
#: Cold passes per timed run, at the least: each gives one ``wall_s``,
#: ``peak_rss_mb`` and ``setup_s`` sample, and the passes are checked
#: against each other for determinism.
MIN_COLD_PASSES = 3
#: The warm replay that ends each run: at least this many submits (so the
#: p99 has 20 samples beyond it) and for at least this long.
REPLAY_MIN_HITS = 2000
REPLAY_SECONDS = 4.0
#: Spawn-to-ready time of the replay child, kept out of the cold budget.
REPLAY_STARTUP_S = 1.0
#: Calibration of the cache-hit latencies against the host's speed, which
#: flips between a fast and a slow state, sometimes within a second: a
#: fixed stdlib operation (JSON round trip plus SHA-256, the same kind of
#: work as a hit) is timed right after every hit, and each latency is
#: divided by its own reference time.  The reported percentiles read as
#: on a host where the reference takes REFERENCE_US; the raw percentiles
#: go to the record.
REFERENCE_DOC = {"ints": list(range(64)), "floats": [i / 7 for i in range(32)],
                 "rows": [{"key": f"k{i}", "value": i} for i in range(24)]}
REFERENCE_US = 80.0
#: The same calibration for ``wall_s``, at the grain of a point: a fixed
#: interpreter loop plus a numpy sort (the two kinds of work a simulation
#: does, ``_pass_reference``) is timed before the first point and after
#: every point, and each point's time is divided by the mean of the two
#: reference times around it.  ``wall_s`` reads as on a host where the
#: reference takes PASS_REFERENCE_MS; the raw time goes to the record.
#: ``setup_s`` is scaled by the median reference of the pass that follows
#: it, which tracks the imports' slowdown as closely.
PASS_REFERENCE_MS = 4.0
#: Wall-clock cap on the whole run, kept under the 180 s a run may take.
RUN_DEADLINE_S = 170.0
#: How points reach the program: one ``SweepClient.submit`` at a time on
#: an in-process server (``workers=0``), so at most one executor thread
#: simulates while the asyncio loop waits.  ``sweep()`` would fan out onto
#: asyncio's default pool, min(32, nproc + 4) threads.
CONCURRENCY = ("sequential submit, in-process SweepClient(workers=0), "
               "1 point in flight")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "cache_hit_us_p50": "us",
    "cache_hit_us_p99": "us",
    "sim_gflops_per_node": "GFlop/s",
    "comm_gb": "GB",
    "passed_share": "ratio",
}


class ChildFailed(RuntimeError):
    pass


# --------------------------------------------------------------------------
# child side
# --------------------------------------------------------------------------

def _import_program() -> None:
    sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve().parent
    if where != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {where}, "
                         f"not from this checkout's src/")


def _watch_engine() -> tuple[list[str], str | None]:
    """Record which serve loop each compiled simulation ran.

    ``simulate_compiled`` hands kernel-eligible runs to ``_run_kernel``
    only when numba is importable; every other run takes the numpy loop.
    The spy costs one Python call per simulation.  Returns the list it
    fills and, when numba is importable but that dispatch is gone (so
    the loop that ran cannot be named), the reason, which fails the run.
    """
    kernels: list[str] = []
    if importlib.util.find_spec("numba") is None:
        return kernels, None
    try:
        from repro.runtime.simulator import fast_engine
        run_kernel = fast_engine._run_kernel
    except (ImportError, AttributeError) as exc:
        return kernels, (f"numba is importable but the kernel dispatch "
                         f"fast_engine._run_kernel cannot be watched ({exc}); "
                         f"the serve loop that ran is unknown")

    def spy(*args: Any, **kwargs: Any) -> Any:
        kernels.append(str(kwargs.get("kernel", args[-1])))
        return run_kernel(*args, **kwargs)
    fast_engine._run_kernel = spy
    return kernels, None


def child(args: argparse.Namespace) -> int:
    _import_program()
    import workloads
    from repro.service import SweepClient

    tracer = None
    if args.trace:
        from tracer import COLD_SPANS, REPLAY_SPANS, Tracer

        tracer = Tracer()
        tracer.install()
    kernels, engine_problem = _watch_engine()
    specs = workloads.generate(args.workload, args.seed)
    if args.role == "replay":
        print("READY", flush=True)
        doc = _replay(specs, args.store, tracer)
    else:
        client = SweepClient(args.store)
        print("READY", flush=True)
        doc = _cold(specs, client, args.store, tracer, kernels)
    problems = [engine_problem] if engine_problem else []
    if tracer is not None:
        if args.role == "replay":
            expected = REPLAY_SPANS
            policies: set[str] = set()
        else:
            expected = COLD_SPANS | workloads.COLD_SPANS_EXTRA[args.workload]
            policies = {spec.policy for spec in specs}
        problems += tracer.gaps(expected, policies)
    if problems:
        # The run's own observation failed: no point's figures can be trusted.
        doc["failed"] += len(problems)
        doc["violations"] = problems + doc["violations"]
        doc["failed_points"] = list(range(len(specs)))
    if tracer is not None:
        tracer.uninstall()
        spans = OUT / f"spans-{args.workload}-seed{args.seed}-{args.role}.json"
        tracer.dump(str(spans))
        doc["spans_file"] = str(spans.relative_to(ROOT))
        doc["tracer_missing"] = tracer.missing
    print(json.dumps(doc), flush=True)
    return 0


def _span(tracer: Any, name: str) -> Any:
    return tracer.span(name) if tracer is not None else nullcontext()


def _cold(specs: list[Any], client: Any, store: str, tracer: Any,
          kernels: list[str]) -> dict[str, Any]:
    import numpy
    import workloads

    cold: list[Any] = []
    point_s: list[float] = []
    refs: list[float] = []
    values = numpy.random.default_rng(0).random(100_000)
    with _span(tracer, "bench.cold_pass"):
        with _span(tracer, "bench.untimed"):
            refs.append(_pass_reference(values))
        for spec in specs:
            t = time.perf_counter()
            try:
                cold.append(client.submit(spec))
            except Exception as exc:  # a raising point is a failed point
                cold.append(exc)
            point_s.append(time.perf_counter() - t)
            with _span(tracer, "bench.untimed"):
                refs.append(_pass_reference(values))
    simulations = client.simulations_run()
    client.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    violations: list[str] = []
    failed = 0
    failed_points: set[int] = set()
    points: list[dict[str, Any]] = []
    for i, (spec, res) in enumerate(zip(specs, cold)):
        entry: dict[str, Any] = {"spec": str(spec), "policy": spec.policy,
                                 "wall_s": point_s[i]}
        if isinstance(res, Exception):
            bad = [f"raised {type(res).__name__}: {res}"]
        else:
            bad = workloads.check_cold(spec, res)
            entry.update(hash=res.hash, cached=res.cached,
                         graph_reused=res.graph_reused, timings=res.timings)
            if res.report is not None:
                rep = res.report
                entry.update(
                    report=workloads.report_json(res),
                    gflops_per_node=rep.gflops_per_node,
                    comm_bytes=rep.comm_bytes,
                    comm_messages=rep.comm_messages, num_tasks=rep.num_tasks)
        if bad:
            failed += 1
            failed_points.add(i)
        violations += [f"{spec}: {v}" for v in bad]
        points.append(entry)
    if simulations != len(specs):
        failed += 1
        failed_points.update(range(len(specs)))
        violations.append(f"cold pass ran {simulations} simulations "
                          f"for {len(specs)} points")
    doc: dict[str, Any] = {
        "wall_s": sum(point_s),
        "wall_calibrated_s": sum(
            t * PASS_REFERENCE_MS * 2e-3 / (refs[j] + refs[j + 1])
            for j, t in enumerate(point_s)),
        "reference_ms": statistics.median(refs) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "points": points,
        "attempted": len(specs),
        "failed": failed,
        "failed_points": sorted(failed_points),
        "violations": violations[:50],
        "simulations": simulations,
        "engine": {
            "engine": "compiled",
            "loop": ({k: kernels.count(k) for k in set(kernels)}
                     | {"numpy": simulations - len(kernels)}),
        },
        "runtime": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
        },
    }
    if tracer is not None:
        from repro.schedulers import POLICIES
        from tracer import COLD_SELF, cold_layers

        ok = [p for p in points if "report" in p]
        layers = cold_layers(tracer.spans, sorted(POLICIES))
        doc["accounted_s"] = sum(layers[m] for m in set(COLD_SELF.values()))
        layers.update({
            "simulator.messages": sum(p["comm_messages"] for p in ok),
            "simulator.comm_bytes": sum(p["comm_bytes"] for p in ok),
            "store.bytes": sum(f.stat().st_size for f in Path(store).iterdir()),
            "runner.graph_reuse_ratio": (
                sum(p["graph_reused"] for p in ok) / len(ok) if ok else 0.0),
        })
        doc["layers"] = layers
    return doc


def _replay(specs: list[Any], store: str, tracer: Any) -> dict[str, Any]:
    import workloads
    from repro.service import SweepClient

    expected = json.loads((Path(store) / "expected.json").read_text())
    latencies: list[float] = []
    references: list[float] = []
    violations: list[str] = []
    failed_points: set[int] = set()
    failed = hits = 0
    with _span(tracer, "bench.replay"):
        client = SweepClient(store)
        stop = time.perf_counter() + REPLAY_SECONDS
        k = 0
        # Only the submit is timed as a hit; the check of each hit is not.
        while k < REPLAY_MIN_HITS or time.perf_counter() < stop:
            want = expected[k % len(specs)]
            t = time.perf_counter()
            try:
                res = client.submit(specs[k % len(specs)])
            except Exception as exc:
                res = exc
            latencies.append(time.perf_counter() - t)
            with _span(tracer, "bench.untimed"):
                t = time.perf_counter()
                _reference_op()
                references.append(time.perf_counter() - t)
                if isinstance(res, Exception):
                    bad = [f"raised {type(res).__name__}: {res}"]
                elif want is None:
                    bad = ["the cold pass has no report for this point"]
                else:
                    hits += res.cached
                    bad = workloads.check_warm(want, res)
            if bad:
                failed += 1
                failed_points.add(k % len(specs))
                violations.append(f"replay {k}: {bad[0]}")
            k += 1
        simulations = client.simulations_run()
        client.close()
    if simulations:
        failed += 1
        failed_points.update(range(len(specs)))
        violations.append(f"warm replay ran {simulations} simulations")
    doc: dict[str, Any] = {
        "latency": _latency_summary(latencies, references),
        "attempted": len(latencies),
        "failed": failed,
        "failed_points": sorted(failed_points),
        "violations": violations[:50],
        "hits": hits,
        "simulations": simulations,
    }
    if tracer is not None:
        from tracer import replay_layers

        doc["layers"] = replay_layers(tracer.spans, len(latencies))
    return doc


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _pass_reference(values: Any) -> float:
    """Seconds taken by the fixed work ``wall_s`` is calibrated against;
    ``values`` is the same 100k-float array every time."""
    t = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(5):
        values.copy().sort()
    return time.perf_counter() - t


def _reference_op() -> None:
    text = json.dumps(REFERENCE_DOC, sort_keys=True)
    hashlib.sha256(text.encode()).hexdigest()
    json.loads(text)


def _latency_summary(latencies: list[float],
                     references: list[float]) -> dict[str, float]:
    """Raw and calibrated percentiles of the hit latencies, in us."""
    scaled = sorted(x / ref * REFERENCE_US * 1e-6
                    for x, ref in zip(latencies, references))
    raw = sorted(latencies)
    return {
        "samples": len(raw),
        "p50": _percentile(scaled, 0.50) * 1e6,
        "p99": _percentile(scaled, 0.99) * 1e6,
        "raw_p50": _percentile(raw, 0.50) * 1e6,
        "raw_p99": _percentile(raw, 0.99) * 1e6,
        "reference_us": statistics.median(references) * 1e6,
    }


# --------------------------------------------------------------------------
# parent side: spawn children, aggregate, print
# --------------------------------------------------------------------------

class Runner:
    """Spawns the children of one benchmark run; their stores live under
    one directory that :meth:`close` removes."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        self.stores = Path(tempfile.mkdtemp(prefix="run-", dir=OUT / "tmp"))
        self._n = 0

    def close(self) -> None:
        shutil.rmtree(self.stores, ignore_errors=True)

    def new_store(self) -> Path:
        self._n += 1
        return self.stores / f"store{self._n}"

    def spawn(self, role: str, store: Path,
              trace: bool = False) -> dict[str, Any]:
        a = self.args
        cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
               "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(int(trace)),
               "--store", str(store)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            assert proc.stdout is not None
            first = proc.stdout.readline()
            setup = time.perf_counter() - t0
            try:
                rest, _ = proc.communicate(
                    timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise ChildFailed(f"{role} child ran past the run deadline")
        if proc.returncode != 0 or first.strip() != "READY":
            raise ChildFailed(f"{role} child exited with {proc.returncode}")
        doc: dict[str, Any] = json.loads(rest.splitlines()[-1])
        doc["setup_s"] = setup
        return doc

    def cold(self, store: Path, trace: bool = False) -> dict[str, Any]:
        """A cold pass filling ``store``, plus what its replay must match."""
        cold = self.spawn("cold", store, trace)
        expected = [{"hash": p["hash"], "report": p["report"]}
                    if "report" in p else None for p in cold["points"]]
        (store / "expected.json").write_text(json.dumps(expected))
        return cold


def _timed(run: Runner) -> tuple[dict[str, float], list[dict[str, Any]],
                                 list[dict[str, Any]]]:
    colds: list[dict[str, Any]] = []
    budget = run.args.seconds - REPLAY_SECONDS - REPLAY_STARTUP_S
    begin = time.perf_counter()
    while True:
        store = run.new_store()
        colds.append(run.cold(store))
        spent = time.perf_counter() - begin
        # After the minimum, start another pass only if it fits.
        if (len(colds) >= MIN_COLD_PASSES
                and spent * (len(colds) + 1) / len(colds) > budget):
            break
    replay = run.spawn("replay", store)
    first = [pt for pt in colds[0]["points"] if "report" in pt]
    gflops = [pt["gflops_per_node"] for pt in first]
    metrics = {
        "setup_s": statistics.median(
            c["setup_s"] * PASS_REFERENCE_MS / c["reference_ms"] for c in colds),
        "wall_s": statistics.median(c["wall_calibrated_s"] for c in colds),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in colds),
        "cache_hit_us_p50": replay["latency"]["p50"],
        "cache_hit_us_p99": replay["latency"]["p99"],
        "sim_gflops_per_node": (math.exp(statistics.fmean(map(math.log, gflops)))
                                if gflops else 0.0),
        "comm_gb": sum(pt["comm_bytes"] for pt in first) / 1e9,
    }
    return metrics, colds, [replay]


def _traced(run: Runner) -> tuple[dict[str, float], list[dict[str, Any]],
                                  list[dict[str, Any]]]:
    untraced = run.spawn("cold", run.new_store())
    store = run.new_store()
    cold = run.cold(store, trace=True)
    replay = run.spawn("replay", store, trace=True)
    submits = cold["attempted"] + replay["attempted"]
    hits = sum(p.get("cached", False) for p in cold["points"]) + replay["hits"]
    metrics = dict(cold["layers"])
    metrics.update(replay["layers"])
    metrics.update({
        "service.submits": submits,
        "service.cache_hits": hits,
        "service.simulations": cold["simulations"] + replay["simulations"],
        "service.cache_hit_ratio": hits / submits,
        "trace.overhead_s": cold["wall_s"] - untraced["wall_s"],
    })
    return metrics, [untraced, cold], [replay]


def _determinism_failures(colds: list[dict[str, Any]]) -> list[tuple[int, str]]:
    """Every cold pass simulates the same points: reports must agree.
    Returns (point index, violation) pairs."""
    ref = [pt.get("report") for pt in colds[0]["points"]]
    out = []
    for k, c in enumerate(colds[1:], start=1):
        for i, (pt, want) in enumerate(zip(c["points"], ref)):
            if pt.get("report") != want:
                out.append((i, f"pass {k}: {pt['spec']} differs from pass 0"))
    return out


def host_fingerprint() -> dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (OSError, ValueError):
        ram = 0
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "ram_gb": round(ram / 2**30, 2), "machine": platform.machine()}


def source_identity() -> dict[str, Any]:
    """Git commit when the checkout is a git work tree, and a digest of
    ``src/``.  Git is not asked above the checkout, so a checkout that is
    no repository of its own reads null."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or ".plan_s." in name:
        return "s"
    if name.endswith("_us") or name == "simulator.us_per_task":
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "graph.bytes_per_task":
        return "B/task"
    if name in ("simulator.comm_bytes", "store.bytes"):
        return "B"
    return "count"


def parent(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no program at src/repro in this directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    record: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_fingerprint(), "source": source_identity(),
        "concurrency": CONCURRENCY,
    }
    run = Runner(args)
    try:
        if args.trace:
            metrics, colds, replays = _traced(run)
            units = {k: layer_unit(k) for k in metrics}
        else:
            metrics, colds, replays = _timed(run)
            units = END_TO_END_UNITS
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    children = colds + replays
    attempted = sum(c["attempted"] for c in children)
    drift = _determinism_failures(colds)
    violations = ([v for c in children for v in c["violations"]]
                  + [v for _, v in drift])
    failed = sum(c["failed"] for c in children) + len(drift)
    # A point fails once, whichever of its cold or replay checks broke.
    points = len(colds[0]["points"])
    failed_points = ({i for c in children for i in c["failed_points"]}
                     | {i for i, _ in drift})
    latency = replays[0]["latency"]
    samples = latency["samples"]
    if not args.trace:
        metrics["passed_share"] = 1.0 - len(failed_points) / points
    record.update(
        engine=colds[0]["engine"], runtime=colds[0]["runtime"],
        cold_passes=colds, replays=replays,
        attempted=attempted, failed=failed, violations=violations,
        points=points, failed_points=sorted(failed_points),
        metrics=metrics)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(colds)} cold pass(es), {len(replays)} replay(s); "
          f"{CONCURRENCY}")
    print(f"  engine {record['engine']}  runtime {record['runtime']}")
    print(f"  host {record['host']}")
    print(f"  source {record['source']}")
    print(f"  cache hits: {samples} samples "
          f"({samples - math.ceil(0.99 * samples)} beyond the p99); raw p50 "
          f"{latency['raw_p50']:.1f} us, p99 {latency['raw_p99']:.1f} us; "
          f"reference op {latency['reference_us']:.1f} us "
          f"(calibrated to {REFERENCE_US:g} us)")
    print(f"  cold passes: raw wall_s median "
          f"{statistics.median(c['wall_s'] for c in colds):.3f} s, raw "
          f"setup_s median "
          f"{statistics.median(c['setup_s'] for c in colds):.3f} s; pass "
          f"reference median "
          f"{statistics.median(c['reference_ms'] for c in colds):.2f} ms "
          f"(calibrated to {PASS_REFERENCE_MS:g} ms)")
    if args.trace:
        traced = colds[-1]
        print(f"  cold-pass accounting: layer self times + unattributed = "
              f"{traced['accounted_s']:.6f} s; traced wall_s "
              f"{traced['wall_s']:.6f} s")
    print("per-layer metrics:" if args.trace else "end-to-end metrics:")
    for name, value in metrics.items():
        print(f"  {name:<38} {value:>18.6g} {units[name]}")
    print(f"  failed_share {len(failed_points)}/{points} points "
          f"({failed} failed checks over {attempted} submits)")
    for v in violations[:10]:
        print(f"  FAILED CHECK: {v}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("cold", "replay"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--store", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    return child(args) if args.role else parent(args)


if __name__ == "__main__":
    sys.exit(main())
