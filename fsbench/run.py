"""famsplit benchmark: three workloads, end-to-end metrics, and a traced run.

    python3 fsbench/run.py --workload paper-pipeline --seed 1 --seconds 30 --trace 0

Run from the repository root. The benchmark writes its inputs (numpy and
the standard library only; the same --seed gives the same inputs) under
.fsbench_work/, drives famsplit from src/ in one worker process at a time
(worker.py), verifies every unit's output with verify.py, which never
imports famsplit, and prints one JSON object as its last line. With --trace 0 the metrics are the end-to-end
ones; with --trace 1 they are per-layer totals from spans around famsplit's
public functions. Exit status is nonzero, with no result printed, when the
benchmark itself cannot run (for example when src/famsplit is missing).
See fsbench/NOTES.md for why each workload and metric is what it is.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import verify  # noqa: E402
from spans import layer_metrics  # noqa: E402
from speed import at_reference_speed, reference  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".fsbench_work"
REPLY_TIMEOUT_S = 120.0
WORKLOADS = ("paper-pipeline", "large-k", "materialize-eval")
ABLATION_K = 10  # large-k's top-k and worst-k ablation reports
# Units draw their seeds from a fixed panel of slots per workload (one slot per
# split for materialize-eval). A run walks the panel from slot --seed mod size,
# so every run covers the whole panel: a pipeline's work depends on how often
# its search relaxes, and with seeds drawn afresh per run that mix, not the
# program, set most of the spread of run medians (see NOTES.md).
PANEL_SIZES = {"paper-pipeline": 16, "large-k": 5}
# large-k's matrix is the same for every --seed: whether a split relaxes
# depends on the matrix as much as on the search seed, and with a matrix
# drawn per --seed the same seeds read 20-30% apart run after run (NOTES.md).
LARGE_K_MATRIX_SEED = 0

# Sizes per profile. "full" is what the benchmark measures; "smoke" is for
# selftest.py and exercises the same code paths in a few seconds.
PROFILES = {
    "full": {
        "paper-pipeline": {"setup_samples": 9, "families": 184},
        "large-k": {"setup_samples": 9, "k": 1000},
        "materialize-eval": {"setup_samples": 3, "families": 100, "ids_per_family": 10_000, "benign_train": 200_000,
                             "benign_test": 50_000, "train_per_family": 8000, "test_per_family": 2000,
                             "splits": 10, "set_size": 10},
    },
    "smoke": {
        "paper-pipeline": {"setup_samples": 2, "families": 40},
        "large-k": {"setup_samples": 2, "k": 60},
        "materialize-eval": {"setup_samples": 2, "families": 20, "ids_per_family": 100, "benign_train": 2000,
                             "benign_test": 500, "train_per_family": 80, "test_per_family": 20,
                             "splits": 10, "set_size": 10},
    },
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class Worker:
    """One worker process, spoken to in lockstep: a request line, then a reply line."""

    def __init__(self, workload: str, config: dict, trace: bool) -> None:
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        ref_before = reference()
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, json.dumps(config),
             "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        ready = self.receive()
        ready_s = time.perf_counter() - started
        if not ready.get("ready"):
            raise BenchError(f"worker did not become ready: {ready}")
        self.setup_s = at_reference_speed(ready_s, (ref_before + reference()) / 2)

    def receive(self) -> dict:
        readable, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT_S)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            self.close()
            raise BenchError("worker exited or stalled (is src/famsplit importable?)")
        return json.loads(line)

    def ask(self, doc: dict) -> dict:
        self.proc.stdin.write(json.dumps(doc) + "\n")
        self.proc.stdin.flush()
        return self.receive()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"op": "quit"}) + "\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def make_inputs(workload: str, seed: int, sizes: dict, run_dir: Path) -> tuple[dict, dict]:
    """Write the workload's inputs; return the worker config and what the verifier needs."""
    if workload == "paper-pipeline":
        return {"families": sizes["families"]}, {}
    if workload == "large-k":
        names = inputs.family_names(sizes["k"])
        values = inputs.planted_values(sizes["k"], inputs.derive(LARGE_K_MATRIX_SEED, "matrix"))
        path = run_dir / "matrix.csv"
        inputs.write_matrix_csv(path, names, values)
        config = {"taus": [tau for _, tau in verify.TIERS], "ablation_k": ABLATION_K}
        return config, {"names": names, "values": values, "path": path}
    written = inputs.write_materialize_inputs(run_dir, seed, sizes)
    config = {key: written[key] for key in ("pool", "tier", "predictions")}
    config.update(train_per_family=sizes["train_per_family"], test_per_family=sizes["test_per_family"],
                  alt_threshold=inputs.ALT_THRESHOLD)
    return config, {"tier": written["tier_doc"], "names": inputs.family_names(sizes["families"]),
                    "predictions": written["predictions"]}


def unit_request(workload: str, seed: int, index: int, unit_dir: Path, sizes: dict, known: dict) -> dict:
    panel = sizes["splits"] if workload == "materialize-eval" else PANEL_SIZES[workload]
    slot = (seed + index) % panel
    req = {"op": "unit", "index": index, "dir": str(unit_dir), "seed": inputs.derive(workload, slot)}
    if workload == "large-k":
        req["matrix"] = str(known["path"])
        req["tier_seeds"] = [inputs.derive(workload, slot, tau) for _, tau in verify.TIERS]
    if workload == "materialize-eval":
        req["split"] = slot
    return req


def guarded(check, *args) -> list[str]:
    """Run a verifier; output malformed enough to break it fails the unit, not the run."""
    try:
        return check(*args)
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


def check_unit(workload: str, req: dict, sizes: dict, known: dict) -> tuple[list[str], dict]:
    """Verify one unit's outputs; return errors and, for materialize-eval, its recalls."""
    unit_dir = Path(req["dir"])
    if workload == "paper-pipeline":
        return guarded(verify.verify_pipeline, unit_dir, req["seed"], sizes["families"]), {}
    if workload == "large-k":
        return guarded(verify.verify_large_k, unit_dir, known["path"], known["names"], known["values"],
                       ABLATION_K), {}
    split = known["tier"]["splits"][req["split"]]
    errors = guarded(verify.verify_materialize, unit_dir, split, req["seed"], sizes, known["names"],
                     Path(known["predictions"][req["split"]]), (0.5, inputs.ALT_THRESHOLD))
    recalls = {}
    if not errors:
        evaluations = json.loads((unit_dir / "eval.json").read_text(encoding="utf-8"))["evaluations"]
        recalls = {"split": req["split"], "a": evaluations[0]["malware_recall_mean"],
                   "b": evaluations[1]["malware_recall_mean"]}
    return errors, recalls


def run(workload: str, seed: int, seconds: float, trace: bool, profile: str = "full",
        corrupt=None) -> dict:
    """One benchmark run; returns the result object. `corrupt(unit_dir)`, when
    given, edits each unit's outputs before verification (used by selftest.py)."""
    sizes = PROFILES[profile][workload]
    run_dir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    worker = None
    try:
        config, known = make_inputs(workload, seed, sizes, run_dir)
        # Warm the bytecode cache so every set-up sample below starts alike.
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import famsplit.cli"],
                       cwd=ROOT, check=False, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        worker = Worker(workload, config, trace)
        setup = [worker.setup_s]
        # The last set-up sample is the fresh worker that runs the memory unit below.
        probes = 0 if trace else sizes["setup_samples"] - 2

        def probe() -> None:
            w = Worker(workload, config, trace=False)
            setup.append(w.setup_s)
            w.close()

        times, scaled, traced_times, failures, recalls = [], [], [], [], []
        layer_sum: dict[str, float] = {}
        first_digests = None
        # Reference jobs run here in the parent, which is idle between units,
        # so famsplit's state in the worker cannot change them. Each job sits
        # between two units and serves both: the unit before it and the unit
        # after it are each scaled by the mean of their two neighbouring jobs.
        ref_before = reference()
        start = time.perf_counter()
        index = 0
        while index < 2 or time.perf_counter() - start < seconds:
            if len(setup) <= probes:
                # Set-up samples are spread over the run, between units, so that
                # their median sees the same host-speed drift as the units do.
                # Their time is not counted in the run's measuring window.
                t = time.perf_counter()
                probe()
                ref_before = reference()
                start += time.perf_counter() - t
            unit_dir = run_dir / f"unit-{index}"
            req = unit_request(workload, seed, index, unit_dir, sizes, known)
            req["trace"] = trace and index % 2 == 1
            reply = worker.ask(req)
            ref_after = reference()
            ref_s, ref_before = (ref_before + ref_after) / 2, ref_after
            errors = [reply["error"]] if not reply["ok"] else []
            if reply["ok"]:
                if corrupt is not None:
                    corrupt(unit_dir)
                unit_errors, unit_recalls = check_unit(workload, req, sizes, known)
                errors += unit_errors
                if unit_recalls:
                    recalls.append(unit_recalls)
                (traced_times if req["trace"] else times).append(reply["elapsed"])
                if not req["trace"]:
                    scaled.append(at_reference_speed(reply["elapsed"], ref_s))
                for key, x in (reply["layers"] or {}).items():
                    layer_sum[key] = layer_sum.get(key, 0.0) + x
            if index == 0 and not errors:
                first_digests = verify.digests(unit_dir)
            if errors:
                failures.append(f"unit {index}: " + "; ".join(errors[:3]))
            shutil.rmtree(unit_dir, ignore_errors=True)
            index += 1
        attempted = index
        while len(setup) <= probes:
            probe()

        if workload == "materialize-eval":
            # One exact Wilcoxon per run over the tier's per-split recalls at the two thresholds.
            per_split = {r["split"]: r for r in reversed(recalls)}
            a = [per_split[i]["a"] for i in sorted(per_split)]
            b = [per_split[i]["b"] for i in sorted(per_split)]
            reply = worker.ask({"op": "wilcoxon", "a": a, "b": b})
            errors = [reply["error"]] if not reply["ok"] else guarded(verify.verify_wilcoxon, a, b, reply["result"])
            if errors:
                failures.append("wilcoxon: " + "; ".join(errors))
        trace_path = WORK / f"trace-{workload}.jsonl"
        traced_run = worker.ask({"op": "finish", "trace_path": str(trace_path)})
        worker.close()

        # Memory, then determinism, untimed in a fresh worker. The memory metric
        # is that worker's peak RSS after set-up plus the unit of panel slot 0,
        # the same for every --seed: a long-lived worker's peak also carries
        # allocator fragmentation, and on large-k a unit reads 12-21% higher
        # when its search relaxes. The memory unit is verified like any other.
        # Then unit 0 runs again, and its files must be byte-identical.
        worker = Worker(workload, config, trace=False)
        if not trace:
            setup.append(worker.setup_s)
            memory_dir = run_dir / "memory-unit"
            req = unit_request(workload, 0, 0, memory_dir, sizes, known) | {"trace": False}
            reply = worker.ask(req)
            errors = [reply["error"]] if not reply["ok"] else check_unit(workload, req, sizes, known)[0]
            if errors:
                failures.append("memory unit: " + "; ".join(errors[:3]))
            peak_rss_mb = reply.get("peak_rss_mb", 0.0)
        repeat_dir = run_dir / "repeat-0"
        reply = worker.ask(unit_request(workload, seed, 0, repeat_dir, sizes, known) | {"trace": False})
        if not reply["ok"] or first_digests is None or verify.digests(repeat_dir) != first_digests:
            failures.append("determinism: unit 0 rerun did not reproduce its output files")
        worker.ask({"op": "finish", "trace_path": None})
        worker.close()
        worker = None
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    if not times or (trace and not traced_times):
        raise BenchError("no unit completed: " + "; ".join(failures[:3]))
    failed = min(len(failures), attempted)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    if trace:
        overhead = statistics.median(traced_times) - statistics.median(times)
        metrics = layer_metrics(layer_sum, len(traced_times), traced_run["layers"], overhead)
        summary = f"{len(traced_times)} traced + {len(times)} untraced units, spans in {trace_path.name}"
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "unit_p50_s": {"value": statistics.median(scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        q = statistics.quantiles(scaled, n=4) if len(scaled) > 1 else scaled * 3
        summary = (f"{attempted} units, at reference speed: unit p50 {metrics['unit_p50_s']['value']:.4f} s "
                   f"(q1 {q[0]:.4f}, q3 {q[2]:.4f}, max {max(scaled):.4f}), setup samples "
                   + " ".join(f"{s:.3f}" for s in setup)
                   + f"; wall-clock unit p50 {statistics.median(times):.4f} s")
    print(f"fsbench {workload} seed={seed} trace={int(trace)}: {summary}")
    return {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a TERM into SystemExit so the finally blocks stop the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for this process and the workers it starts (they inherit it), so
    # the reference job runs on the CPU the units run on. The two processes
    # work in lockstep, so they never wait for each other's CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "famsplit" / "__init__.py").is_file():
        print(f"fsbench: no src/famsplit under {ROOT}; run from the repository root", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"fsbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
