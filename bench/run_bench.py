#!/usr/bin/env python3
"""fedslack benchmark: closed-loop, single-process runs of one workload.

    python3 bench/run_bench.py --workload desk_sfat --seed 0 --seconds 30 --trace 0
    python3 bench/run_bench.py --smoke

One operation is one full `fedslack.runner.run` of the workload's config,
writing `metrics.csv` and `checkpoint.bin`; operations run one after
another until `--seconds` have passed.  `--trace 0` reports the end-to-end
metrics of BENCHMARK.json; `--trace 1` alternates untraced and traced runs
and reports its per-layer metrics.  Every run is checked: it must not
raise, its output digest must equal the first run's, and it must reach the
workload's accuracy floors.  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

Timings are reported at a reference CPU speed: untraced runs time a fixed
numpy probe (probe.py) before the run and after every round, and scale each
round's wall time by the probe's reference time over its measured time, so
that the host's fast and slow vCPU states do not move the figures.  Raw
wall times are printed alongside.

`--smoke` runs every workload for a few rounds, traced and untraced, and
checks that both give the same digest and every named metric.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

# Each vCPU of the host changes speed on its own, so a BLAS call split over
# two of them would time the slower one and the probe could not follow it.
# BLAS reads its thread count when numpy loads, which importing probe does.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

from probe import Probe  # noqa: E402
from tracer import Tracer, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

WARMUP_ROUNDS = 2
SMOKE_ROUNDS = 3
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 1.0


def load_fedslack():
    src = ROOT / "src"
    if not (src / "fedslack" / "__init__.py").is_file():
        raise SystemExit(f"error: fedslack sources not found under {src}")
    sys.path.insert(0, str(src))
    import fedslack.aggregation
    import fedslack.data
    import fedslack.local
    import fedslack.metrics
    import fedslack.nn
    import fedslack.runner
    import fedslack.streams
    return fedslack


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", "unknown"),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": git_commit(),
    }


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in ("metrics.csv", "checkpoint.bin"):
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


class Runs:
    """Outcomes of the runs of one workload config, checked as they finish."""

    def __init__(self, fs, workload, cfg: dict, out_dir: Path, floors: bool = True):
        self.fs, self.workload, self.cfg, self.out_dir = fs, workload, cfg, out_dir
        self.floors = floors
        self.probe = make_probe(workload, cfg)
        self.ok: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digest: str | None = None

    def run(self, wrap=None) -> dict | None:
        """One closed-loop operation; returns its record, or None if it failed.

        An unwrapped run is probed after every round; a wrapped (traced) one
        is not, and its times stay raw.
        """
        self.attempted += 1
        runner = self.fs.runner
        probe = self.probe if wrap is None else None
        writer = runner._MetricsWriter
        write_round = writer.__dict__["write_round"]
        try:
            config = runner.config_from_dict(
                copy.deepcopy(self.cfg) | {"out_dir": str(self.out_dir)})
            run = runner.run if wrap is None else wrap(runner.run)
            if probe is not None:
                def probed_write_round(self_, rep):
                    write_round(self_, rep)
                    probe()
                writer.write_round = probed_write_round
                first = len(probe.times)
                probe()
            t0 = perf_counter()
            art = run(config)
            wall_s = perf_counter() - t0
            rec = self._check(art, wall_s, probe.times[first:] if probe is not None else None)
        except Exception as exc:  # every failure is counted, never fatal
            traceback.print_exc(file=sys.stderr)
            rec = None
            self.failures.append(f"run {self.attempted}: {type(exc).__name__}: {exc}")
        finally:
            writer.write_round = write_round
        if rec is not None:
            self.ok.append(rec)
        return rec

    def _check(self, art, wall_s: float, probes: list[float] | None) -> dict | None:
        reports = art.reports
        final = reports[-1]
        rows = self.fs.runner.load_metrics(self.out_dir / "metrics.csv")
        problems = []
        if len(reports) != self.cfg["rounds"]:
            problems.append(f"{len(reports)} rounds, config asks {self.cfg['rounds']}")
        if len(rows) != sum(len(r.clients) + 1 for r in reports):
            problems.append(f"metrics.csv has {len(rows)} rows, artifact disagrees")
        elif (rows[-1]["nat_acc"], rows[-1]["pgd20_acc"]) != (final.nat_acc, final.pgd20_acc):
            problems.append("metrics.csv final accuracy differs from the artifact")
        d = digest(self.out_dir)
        if self.first_digest is None:
            self.first_digest = d
        elif d != self.first_digest:
            problems.append(f"digest {d} differs from first run {self.first_digest}")
        if final.nat_acc is None or final.pgd20_acc is None:
            problems.append("no final evaluation")
        elif self.floors:
            if final.nat_acc < self.workload.nat_floor:
                problems.append(f"nat_acc {final.nat_acc} below {self.workload.nat_floor}")
            if final.pgd20_acc < self.workload.pgd20_floor:
                problems.append(
                    f"pgd20_acc {final.pgd20_acc} below {self.workload.pgd20_floor}")
        if problems:
            self.failures.append(f"run {self.attempted}: " + "; ".join(problems))
            return None
        epochs = self.cfg["local"]["epochs"]
        round_s = [r.wall_clock for r in reports]
        if probes is None:
            run_s = wall_s
        else:
            # probes[0] ran before the run, probes[i + 1] right after round i.
            wall_s -= sum(probes[1:])
            ref = self.probe.ref_s
            rest = (wall_s - sum(round_s)) * ref / statistics.fmean(probes)
            round_s = [w * ref / ((probes[i] + probes[i + 1]) / 2)
                       for i, w in enumerate(round_s)]
            run_s = sum(round_s) + rest
        return {
            "run_s": run_s,
            "wall_s": wall_s,
            "round_s": round_s,
            "samples": sum(c.n_samples for r in reports for c in r.clients) * epochs,
            "rows": len(rows),
            "nat_acc": final.nat_acc,
            "pgd20_acc": final.pgd20_acc,
            "digest": d,
        }


def make_probe(workload, cfg: dict) -> Probe:
    dims = [cfg["dataset"]["dim"], *cfg["hidden_dims"], cfg["dataset"]["num_classes"]]
    return Probe(dims, cfg["local"]["batch_size"], workload.probe_reps,
                 workload.probe_ref_s)


def time_setup(fs, runs: Runs) -> float:
    """Median time, at the probe's reference speed, of the set-up calls
    `run()` makes before round 1."""
    runner, data, nn, streams = fs.runner, fs.data, fs.nn, fs.streams
    config = runner.config_from_dict(copy.deepcopy(runs.cfg))
    probe = runs.probe
    times: list[float] = []
    deadline = perf_counter() + SETUP_MIN_SECONDS
    while len(times) < SETUP_MIN_REPS or perf_counter() < deadline:
        before = probe()
        t0 = perf_counter()
        train, _ = runner.build_datasets(config)
        if config.partition.sample_counts is not None:
            data.partition_unequal(train, config.partition)
        else:
            data.partition(train, config.partition)
        dims = [train.dim] + list(config.hidden_dims) + [train.num_classes]
        nn.Model.init(dims, streams.stream(config.seed, "init"))
        wall = perf_counter() - t0
        times.append(wall * probe.ref_s / ((before + probe()) / 2))
    return statistics.median(times)


def end_to_end(runs: Runs, setup_s: float) -> dict[str, float]:
    """End-to-end metrics over the runs that passed every check."""
    recs = runs.ok
    round_ms = statistics.quantiles(
        [s * 1e3 for r in recs for s in r["round_s"]], n=100, method="inclusive")
    first = recs[0]
    return {
        "run_s": statistics.median(r["run_s"] for r in recs),
        "round_ms_p50": round_ms[49],
        "round_ms_p90": round_ms[89],
        "samples_per_s": statistics.median(r["samples"] / r["run_s"] for r in recs),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "nat_acc": first["nat_acc"],
        "pgd20_acc": first["pgd20_acc"],
    }


def traced_run(fs, runs: Runs, spans_path: Path | None) -> dict | None:
    """One traced operation; returns its per-layer metrics, or None if it failed."""
    tracer = Tracer()
    tracer.run_id = runs.attempted
    install(tracer, fs)
    try:
        rec = runs.run(wrap=lambda run: tracer.wrap(run, "runner.run"))
    finally:
        tracer.restore()
    if rec is None:
        return None
    if tracer.missing:
        print(f"trace: not found, reported as 0: {', '.join(tracer.missing)}")
    if spans_path is not None:
        tracer.write_spans(spans_path)
    layers = layer_metrics(tracer, "runner.run")
    layers["runner.rows"] = rec["rows"]
    layers["wall_s"] = rec["wall_s"]
    return layers


def per_layer(traced: list[dict], untraced: list[dict], runs: Runs) -> dict[str, float]:
    """Median over traced runs; integer counters must repeat exactly."""
    out = {}
    for key in traced[0]:
        values = [t[key] for t in traced]
        if isinstance(values[0], int) and len(set(values)) > 1:
            runs.failures.append(f"counter {key} did not repeat: {values}")
        out[key] = statistics.median(values)
    out["trace.overhead_frac"] = (
        out.pop("wall_s") / statistics.median(r["wall_s"] for r in untraced) - 1.0)
    return out


def measure(fs, name: str, seed: int, seconds: float, trace: bool) -> tuple[Runs, dict]:
    workload = WORKLOADS[name]
    cfg = workload.config(seed)
    work_dir = OUT_DIR / name
    work_dir.mkdir(parents=True, exist_ok=True)
    print(f"workload: {name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"config: {json.dumps(cfg, sort_keys=True)}")

    warm = Runs(fs, workload, cfg | {"rounds": WARMUP_ROUNDS}, work_dir / "warmup",
                floors=False)
    warm.run()
    runs = Runs(fs, workload, cfg, work_dir / "run")
    if not trace:
        setup_s = time_setup(fs, runs)
        start = perf_counter()
        while True:
            runs.run()
            if perf_counter() - start >= seconds:
                break
        return runs, end_to_end(runs, setup_s) if runs.ok else {}

    spans_path = work_dir / "spans.csv"
    spans_path.unlink(missing_ok=True)
    untraced, traced = [], []
    start = perf_counter()
    while True:
        rec = runs.run()
        if rec is not None:
            untraced.append(rec)
        layers = traced_run(fs, runs, spans_path)
        if layers is not None:
            traced.append(layers)
        if perf_counter() - start >= seconds:
            break
    print(f"spans: {spans_path.relative_to(ROOT)}")
    return runs, per_layer(traced, untraced, runs) if untraced and traced else {}


def report(runs: Runs, metrics: dict, wanted: list[dict]) -> dict:
    digests = sorted({r["digest"] for r in runs.ok})
    print(f"digest: {' '.join(digests) if digests else 'none'}")
    if len(runs.ok) > 1:
        for key, what in (("run_s", "at reference speed"), ("wall_s", "wall")):
            values = [r[key] for r in runs.ok]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print(f"{key}: {what}: median {q2:.4f} quartiles {q1:.4f} {q3:.4f} s"
                  f" over {len(values)} runs")
    if runs.probe.times:
        q1, q2, q3 = statistics.quantiles(runs.probe.times, n=4)
        print(f"probe: median {q2 * 1e3:.4f} quartiles {q1 * 1e3:.4f} {q3 * 1e3:.4f} ms,"
              f" reference {runs.probe.ref_s * 1e3:.4f} ms")
    failed = runs.attempted - len(runs.ok)
    print(f"error_rate: {failed / runs.attempted:.4f} ({failed}/{runs.attempted})")
    for f in runs.failures:
        print(f"failure: {f}")
    own = sorted(((v, k) for k, v in metrics.items() if k.endswith(".self_s")), reverse=True)
    for v, k in own:
        print(f"self time: {k[:-len('.self_s')]:<36} {v:.4f} s")
    out = {}
    for m in wanted:
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']}: {metrics[m['name']]:.6g} {m['unit']}")
    return {"correct": not runs.failures, "attempted": runs.attempted,
            "failed": failed, "metrics": out}


def smoke(fs, spec: dict) -> list[str]:
    """Every workload for a few rounds, traced and untraced: same digest, all metrics."""
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
    for name, workload in WORKLOADS.items():
        cfg = workload.config(0) | {"rounds": SMOKE_ROUNDS}
        runs = Runs(fs, workload, cfg, OUT_DIR / "smoke" / name, floors=False)
        runs.run()
        layers = traced_run(fs, runs, None)
        if len(runs.ok) != 2 or layers is None:
            problems.append(f"{name}: {runs.failures}")
            continue
        e2e = end_to_end(runs, time_setup(fs, runs))
        layers = per_layer([layers], runs.ok[:1], runs)
        problems += [f"{name}: {f}" for f in runs.failures]
        for kind, got in (("end_to_end", e2e), ("per_layer", layers)):
            missing = {m["name"] for m in spec[kind]} - set(got)
            if missing:
                problems.append(f"{name}: {kind} metrics missing: {sorted(missing)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    nproc = len(os.sched_getaffinity(0))
    fs = load_fedslack()
    spec = load_spec()
    print(f"env: {json.dumps(environment(nproc), sort_keys=True)}")
    if args.smoke:
        problems = smoke(fs, spec)
        for p in problems:
            print(f"smoke: FAIL {p}")
        print(f"smoke: {'FAIL' if problems else 'PASS'}")
        return 1 if problems else 0

    runs, metrics = measure(fs, args.workload, args.seed, args.seconds, bool(args.trace))
    if not metrics:
        for f in runs.failures:
            print(f"failure: {f}", file=sys.stderr)
        print("error: no run succeeded, nothing to report", file=sys.stderr)
        return 1
    result = report(runs, metrics, spec["per_layer" if args.trace else "end_to_end"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
