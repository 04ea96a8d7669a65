"""Command-line surface: reproducible pipelines over the library modules.

Every command is deterministic for fixed flags, seeds, and input bytes.
Output documents embed a run manifest (command, resolved flags, input
digests, tool version) instead of timestamps, so outputs are diffable and
content-addressed; CSV/TSV outputs get a sidecar ``.manifest.json`` since
their line formats leave no room for embedding.

Exit codes: 0 success, 1 domain error (bad input data, infeasible search,
missing predictions), 2 usage error (bad flags).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from famsplit import __version__
from famsplit.ablation import ablation_report, select_top_k, select_worst_k, selection_curve
from famsplit.errors import FamsplitError
from famsplit.evaluate import (
    evaluate_predictions,
    load_predictions,
    validate_benchmark,
)
from famsplit.manifest import (
    TEST_PER_FAMILY,
    TRAIN_PER_FAMILY,
    SamplePool,
    load_pool,
    materialize_split,
    read_split,
    split_meta,
    write_split,
)
from famsplit.matrix import CrossErrorMatrix, SynthParams, load_matrix, save_matrix, synth_matrix
from famsplit.search import (
    STANDARD_LABELS,
    BenchmarkSet,
    SearchConfig,
    benchmark_to_dict,
    derive_seed,
    generate_benchmark,
    load_benchmark,
)
from famsplit.stats import load_metric_vector, summarize, wilcoxon_exact

_MATERIALIZE_SEED_BASE = 1_000_000  # offsets split seeds away from search seeds


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Path flags: inputs are recorded by content digest, outputs not at all, so
# a rerun elsewhere writes the same bytes.
_INPUT_PATHS = ("matrix", "benchmark", "pool", "predictions", "a", "b")
_SPLIT_FILES = {"train": "train.tsv", "test": "test.tsv", "meta": "meta.json"}
_UNRECORDED = ("command", "func", "out", "out_dir", "plot_data")


def _run_manifest(args: argparse.Namespace) -> dict:
    """Every non-path flag in declaration order, plus a sha256 per input role."""
    flags: dict = {}
    inputs: dict[str, str] = {}
    for name, value in vars(args).items():
        if name == "split_dir":
            for role, filename in _SPLIT_FILES.items():
                inputs[role] = _sha256(Path(value) / filename)
        elif name in _INPUT_PATHS:
            if value is not None:
                inputs[name] = _sha256(Path(value))
        elif name not in _UNRECORDED:
            flags[name] = value
    return {"command": args.command, "tool_version": __version__, "flags": flags, "inputs": inputs}


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def cmd_synth(args: argparse.Namespace) -> int:
    params = SynthParams(
        k=args.families,
        seed=args.seed,
        generality_range=tuple(args.generality),
        detectability_range=tuple(args.detectability),
        noise_sd=args.noise_sd,
        diag_floor=args.diag_floor,
        loner_fraction=args.loner_fraction,
        hermit_fraction=args.hermit_fraction,
    )
    matrix = synth_matrix(params)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_matrix(matrix, out)
    _write_json(out.with_name(out.name + ".manifest.json"), _run_manifest(args))
    print(f"wrote {out} ({matrix.k} families)")
    return 0


def _search(matrix: CrossErrorMatrix, args: argparse.Namespace, tau: float, seed: int,
            label: str | None, manifest: dict, out: Path) -> BenchmarkSet:
    """Search one tier with the search flags in `args`; write its benchmark document."""
    config = SearchConfig(
        tau=tau,
        epsilon0=args.epsilon,
        step=args.step,
        max_attempts=args.max_attempts,
        set_size=args.set_size,
        seed=seed,
    )
    bench = generate_benchmark(matrix, config, n_splits=args.splits, label=label)
    doc = benchmark_to_dict(bench)
    doc["run_manifest"] = manifest
    _write_json(out, doc)
    return bench


def cmd_search(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.matrix)
    bench = _search(matrix, args, args.tau, args.seed, args.label, _run_manifest(args),
                    Path(args.out))
    eps = [s.epsilon_final for s in bench.splits]
    print(f"wrote {args.out}: {len(bench.splits)} {bench.difficulty_label} splits, "
          f"epsilon_final max {max(eps):g}")
    return 0


def _materialize(bench: BenchmarkSet, pool: SamplePool, args: argparse.Namespace, seed: int,
                 out_dir: Path, manifest: dict) -> None:
    """Write split-NN directories for every split of `bench` under `out_dir`."""
    for i, spec in enumerate(bench.splits):
        split_seed = derive_seed(seed, _MATERIALIZE_SEED_BASE + i)
        ms = materialize_split(
            pool,
            spec,
            train_per_family=args.train_per_family,
            test_per_family=args.test_per_family,
            seed=split_seed,
            split_id=f"split-{i:02d}",
        )
        meta = split_meta(ms, spec, split_seed, args.train_per_family, args.test_per_family)
        meta["run_manifest"] = manifest
        write_split(ms, out_dir / ms.split_id, meta=meta)


def cmd_materialize(args: argparse.Namespace) -> int:
    bench = load_benchmark(args.benchmark)
    pool = load_pool(args.pool)
    out_dir = Path(args.out_dir)
    manifest = _run_manifest(args)
    _materialize(bench, pool, args, args.seed, out_dir, manifest)
    _write_json(out_dir / "run_manifest.json", manifest)
    print(f"materialized {len(bench.splits)} splits under {out_dir}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.matrix)
    select = select_top_k if args.mode == "top" else select_worst_k
    report = ablation_report(matrix, select(matrix, args.k), args.agg)
    doc = {"mode": args.mode, "k": args.k, "agg": args.agg, **asdict(report)}
    plot_rows: list[tuple[float, float]]
    if args.curve_ks:
        ks = [int(x) for x in args.curve_ks.split(",")]
        curve = selection_curve(matrix, args.mode, ks, args.agg)
        doc["curve"] = [[k, mean] for k, mean in curve]
        plot_rows = [(float(k), mean) for k, mean in curve]
    else:
        plot_rows = [
            (float(i), report.per_family_recall[family])
            for i, family in enumerate(matrix.families)
        ]
    doc["run_manifest"] = _run_manifest(args)
    _write_json(Path(args.out), doc)
    if args.plot_data:
        plot_path = Path(args.plot_data)
        plot_path.parent.mkdir(parents=True, exist_ok=True)
        plot_path.write_text(
            "".join(f"{x:g}\t{y:.6f}\n" for x, y in plot_rows), encoding="utf-8"
        )
        _write_json(plot_path.with_name(plot_path.name + ".manifest.json"), doc["run_manifest"])
    print(f"wrote {args.out}: {args.mode}-{args.k} selection")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    split = read_split(args.split_dir)
    preds = load_predictions(args.predictions, threshold=args.threshold)
    result = evaluate_predictions(split, preds)
    doc = {
        "split_id": split.split_id,
        "threshold": args.threshold,
        **asdict(result),
        "run_manifest": _run_manifest(args),
    }
    _write_json(Path(args.out), doc)
    print(f"wrote {args.out}: overall_accuracy {result.overall_accuracy:.4f}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    a = load_metric_vector(args.a, args.metric)
    b = load_metric_vector(args.b, args.metric)
    result = wilcoxon_exact(a, b)
    doc = {
        "metric": args.metric,
        "n_pairs": len(a),
        **asdict(result),
        "summary_a": summarize(a),
        "summary_b": summarize(b),
        "run_manifest": _run_manifest(args),
    }
    _write_json(Path(args.out), doc)
    print(
        f"wrote {args.out}: n_effective={result.n_effective} "
        f"p_two_sided={result.p_two_sided:.6g}"
    )
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = SynthParams(k=args.families, seed=args.seed)
    matrix = synth_matrix(params)
    matrix_path = out_dir / "matrix.csv"
    save_matrix(matrix, matrix_path)
    manifest = _run_manifest(args)
    _write_json(matrix_path.with_name(matrix_path.name + ".manifest.json"), manifest)

    pool = load_pool(args.pool) if args.pool else None
    tiers = []
    for tier_index, (tau, label) in enumerate(STANDARD_LABELS.items()):
        tier_seed = derive_seed(args.seed, tier_index)
        slug = label.lower()
        bench = _search(matrix, args, tau, tier_seed, label, manifest,
                        out_dir / f"benchmark_{slug}.json")

        validation = validate_benchmark(matrix, bench, args.agg)
        tiers.append(asdict(validation))
        curve_path = out_dir / f"recall_curve_{slug}.tsv"
        curve_path.write_text(
            "".join(
                f"{s.split_index}\t{s.mean_recall:.6f}\n" for s in validation.splits
            ),
            encoding="utf-8",
        )
        if pool is not None:
            _materialize(bench, pool, args, tier_seed, out_dir / "splits" / slug, manifest)

    _write_json(out_dir / "validation.json", {"tiers": tiers, "run_manifest": manifest})
    _write_json(out_dir / "run_manifest.json", manifest)
    means = ", ".join(f"{t['difficulty_label']}={t['mean_recall']:.4f}" for t in tiers)
    print(f"pipeline complete under {out_dir}: mean surrogate recall {means}")
    return 0


def _int_list(text: str) -> str:
    """argparse type: comma-separated integers, kept as text for the run manifest."""
    try:
        list(map(int, text.split(",")))
    except ValueError:
        msg = f"expected comma-separated integers, got {text!r}"
        raise argparse.ArgumentTypeError(msg) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="famsplit",
        description="Construct malware-family benchmark splits of configurable difficulty.",
    )
    parser.add_argument("--version", action="version", version=f"famsplit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cross-generalization matrix")
    p.add_argument("--families", type=int, required=True, help="family count K (>= 2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="matrix CSV output path")
    p.add_argument("--generality", type=float, nargs=2, default=[0.3, 1.0], metavar=("LO", "HI"))
    p.add_argument("--detectability", type=float, nargs=2, default=[0.3, 1.0], metavar=("LO", "HI"))
    p.add_argument("--noise-sd", type=float, default=0.02)
    p.add_argument("--diag-floor", type=float, default=0.99)
    p.add_argument("--loner-fraction", type=float, default=0.1)
    p.add_argument("--hermit-fraction", type=float, default=0.1)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("search", help="search disjoint train/test family splits")
    p.add_argument("--matrix", required=True)
    p.add_argument("--tau", type=float, required=True, help="target recall threshold in (0,1)")
    p.add_argument("--epsilon", type=float, default=0.05, help="initial band half-width")
    p.add_argument("--step", type=float, default=0.05, help="relaxation increment")
    p.add_argument("--max-attempts", type=int, default=1000)
    p.add_argument("--set-size", type=int, default=10)
    p.add_argument("--splits", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--label", default=None, help="difficulty label (default from tau)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("materialize", help="expand benchmark splits into sample manifests")
    p.add_argument("--benchmark", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--train-per-family", type=int, default=TRAIN_PER_FAMILY)
    p.add_argument("--test-per-family", type=int, default=TEST_PER_FAMILY)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_materialize)

    p = sub.add_parser("ablate", help="top-K / worst-K baseline selection report")
    p.add_argument("--matrix", required=True)
    p.add_argument("--mode", choices=("top", "worst"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--agg", choices=("mean", "max", "min"), default="mean")
    p.add_argument("--curve-ks", type=_int_list, default=None,
                   help="comma-separated K sweep, e.g. 5,10,15")
    p.add_argument("--plot-data", default=None, help="optional TSV of (x, y) plot pairs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("evaluate", help="score predictions against a materialized split")
    p.add_argument("--split-dir", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="exact Wilcoxon signed-rank test of two models")
    p.add_argument("--a", required=True, help="per-split report file for model A")
    p.add_argument("--b", required=True, help="per-split report file for model B")
    p.add_argument("--metric", default="malware_recall_mean")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("pipeline", help="synth -> search x3 difficulties -> validate")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--families", type=int, default=184)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--splits", type=int, default=10)
    p.add_argument("--set-size", type=int, default=10)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--max-attempts", type=int, default=1000)
    p.add_argument("--agg", choices=("mean", "max", "min"), default="mean")
    p.add_argument("--pool", default=None, help="optional pool file; also materialize splits")
    p.add_argument("--train-per-family", type=int, default=TRAIN_PER_FAMILY)
    p.add_argument("--test-per-family", type=int, default=TEST_PER_FAMILY)
    p.set_defaults(func=cmd_pipeline)

    return parser


def _validate_flags(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if args.command in ("synth", "pipeline") and args.families < 2:
        parser.error("--families must be at least 2")
    if args.command == "ablate" and args.k < 1:
        parser.error("--k must be at least 1")
    if args.command in ("search", "pipeline"):
        if args.splits < 1:
            parser.error("--splits must be at least 1")
        if args.set_size < 1:
            parser.error("--set-size must be at least 1")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_flags(parser, args)
    try:
        return args.func(args)
    except (FamsplitError, OSError, json.JSONDecodeError) as exc:
        print(f"famsplit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
