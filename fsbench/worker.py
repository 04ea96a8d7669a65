"""Benchmark worker: drives famsplit in-process, one unit per request.

run.py starts it with the checkout root as working directory. It imports
famsplit from ``src/`` only (never an installed copy), does the workload's
set-up, prints ``ready``, and then answers one JSON request per stdin line
with one JSON reply per line on its original stdout. famsplit's own prints
go to /dev/null so they cannot corrupt that channel. Only the famsplit calls
of a unit sit inside its timed region; writing the unit's results for the
verifier happens after it. The host-speed reference job runs in run.py, not
here, so nothing famsplit leaves in this process can change it.

Usage (by run.py): worker.py ROOT WORKLOAD CONFIG_JSON TRACE
"""

from __future__ import annotations

import gc
import json
import os
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

from spans import Tracer, totals


def import_famsplit(root: Path, tracer: Tracer | None) -> None:
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import famsplit

    if Path(famsplit.__file__).resolve().parent != src / "famsplit":
        raise ImportError(f"famsplit resolved to {famsplit.__file__}, not under {src}")
    if tracer is not None:
        tracer.install()
    import famsplit.cli  # noqa: F401  (every module, as the CLI loads them)


class PaperPipeline:
    """One unit: ``famsplit pipeline --families K --seed S --out-dir D`` in-process."""

    def __init__(self, config: dict) -> None:
        self.families = config["families"]

    def unit(self, req: dict) -> float:
        from famsplit.cli import main

        argv = ["pipeline", "--families", str(self.families), "--seed", str(req["seed"]),
                "--out-dir", req["dir"]]
        t0 = perf_counter()
        code = main(argv)
        elapsed = perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"famsplit pipeline exited {code}")
        return elapsed


class LargeK:
    """One unit: load the K=1000 CSV named in the request, a one-split tier and
    its validation at each tau, top-k and worst-k ablation reports, and a save."""

    def __init__(self, config: dict) -> None:
        self.taus = config["taus"]
        self.ablation_k = config["ablation_k"]

    def unit(self, req: dict) -> float:
        from famsplit.ablation import ablation_report, select_top_k, select_worst_k
        from famsplit.evaluate import validate_benchmark
        from famsplit.matrix import load_matrix, save_matrix
        from famsplit.search import SearchConfig, benchmark_to_dict, generate_benchmark

        out = Path(req["dir"])
        out.mkdir(parents=True, exist_ok=True)
        t0 = perf_counter()
        m = load_matrix(req["matrix"])
        tiers = []
        for tau, seed in zip(self.taus, req["tier_seeds"]):
            bench = generate_benchmark(m, SearchConfig(tau=tau, seed=seed), n_splits=1)
            tiers.append((bench, validate_benchmark(m, bench)))
        top = ablation_report(m, select_top_k(m, self.ablation_k))
        worst = ablation_report(m, select_worst_k(m, self.ablation_k))
        save_matrix(m, out / "matrix.csv")
        elapsed = perf_counter() - t0
        doc = {
            "tiers": [{"benchmark": benchmark_to_dict(b), "validation": asdict(v)} for b, v in tiers],
            "ablation": {"top": asdict(top), "worst": asdict(worst)},
        }
        (out / "result.json").write_text(json.dumps(doc), encoding="utf-8")
        return elapsed


class MaterializeEval:
    """Set-up loads the pool. One unit takes one split of the tier through
    materialize, write, read, prediction load and scoring at two thresholds."""

    def __init__(self, config: dict) -> None:
        from famsplit.manifest import load_pool
        from famsplit.search import load_benchmark

        self.config = config
        self.pool = load_pool(config["pool"])
        self.tier = load_benchmark(config["tier"])

    def unit(self, req: dict) -> float:
        from famsplit.evaluate import PredictionSet, evaluate_predictions, load_predictions
        from famsplit.manifest import materialize_split, read_split, split_meta, write_split

        c = self.config
        i = req["split"]
        spec = self.tier.splits[i]
        out = Path(req["dir"])
        t0 = perf_counter()
        ms = materialize_split(self.pool, spec, train_per_family=c["train_per_family"],
                               test_per_family=c["test_per_family"], seed=req["seed"],
                               split_id=f"split-{i:02d}")
        write_split(ms, out, meta=split_meta(ms, spec, req["seed"], c["train_per_family"],
                                             c["test_per_family"]))
        back = read_split(out)
        preds = load_predictions(c["predictions"][i])
        results = [evaluate_predictions(back, preds)]
        results.append(evaluate_predictions(back, PredictionSet(preds.scores, c["alt_threshold"])))
        elapsed = perf_counter() - t0
        doc = {"split_id": back.split_id, "evaluations": [asdict(r) for r in results]}
        (out / "eval.json").write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        return elapsed

    def wilcoxon(self, a: list[float], b: list[float]) -> dict:
        from famsplit.stats import wilcoxon_exact

        return asdict(wilcoxon_exact(a, b))


def peak_rss_mb() -> float:
    """This process's peak resident set since exec (VmHWM).

    Not ru_maxrss: across exec it keeps the high-water mark of the process
    that spawned us, which here is the benchmark's parent with its inputs.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


WORKLOADS = {"paper-pipeline": PaperPipeline, "large-k": LargeK, "materialize-eval": MaterializeEval}


def main(argv: list[str]) -> int:
    root, workload, config, trace = Path(argv[0]), argv[1], json.loads(argv[2]), argv[3] == "1"
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    sys.stdout = open(os.devnull, "w", encoding="utf-8")

    def reply(doc: dict) -> None:
        channel.write(json.dumps(doc) + "\n")
        channel.flush()

    tracer = Tracer() if trace else None
    import_famsplit(root, tracer)
    if tracer is not None:
        tracer.on = True
    runner = WORKLOADS[workload](config)
    run_totals = totals(tracer.take("setup")) if tracer is not None else {}
    if tracer is not None:
        tracer.on = False
    reply({"ready": True})

    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "quit":
            return 0
        if op == "unit":
            gc.collect()
            traced = tracer is not None and req["trace"]
            if traced:
                tracer.on = True
            try:
                elapsed = runner.unit(req)
            except Exception:
                reply({"ok": False, "error": traceback.format_exc(limit=4)})
                continue
            finally:
                if traced:
                    tracer.on = False
                    layers = totals(tracer.take(f"unit-{req['index']}"))
            reply({"ok": True, "elapsed": elapsed, "peak_rss_mb": peak_rss_mb(),
                   "layers": layers if traced else None})
        elif op == "wilcoxon":
            if tracer is not None:
                tracer.on = True
            try:
                result = runner.wilcoxon(req["a"], req["b"])
            except Exception:
                reply({"ok": False, "error": traceback.format_exc(limit=4)})
                continue
            finally:
                if tracer is not None:
                    tracer.on = False
                    for key, x in totals(tracer.take("end")).items():
                        run_totals[key] = run_totals.get(key, 0.0) + x
            reply({"ok": True, "result": result})
        elif op == "finish":
            if tracer is not None:
                tracer.write(Path(req["trace_path"]))
            reply({"ok": True, "layers": run_totals})
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
