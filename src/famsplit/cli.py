"""Command-line surface: reproducible pipelines over the library modules.

Every command is deterministic for fixed flags, seeds, and input bytes.
Output documents embed a run manifest (command, resolved flags, input
digests, tool version) instead of timestamps, so outputs are diffable and
content-addressed. CSV/TSV line formats leave no room for embedding, so
those outputs get a sidecar ``*.manifest.json`` or, inside an output
directory such as ``recall_curve_*.tsv``'s, a directory-level
``run_manifest.json``.

Exit codes: 0 success, 1 domain error (bad input data, infeasible search,
missing predictions), 2 usage error (bad flags).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import get_args

from famsplit import __version__
from famsplit.ablation import ablation_report, select_top_k, select_worst_k, selection_curve
from famsplit.errors import FamsplitError
from famsplit.evaluate import (Aggregation, PredictionSet, evaluate_predictions, load_predictions,
                               validate_benchmark)
from famsplit.manifest import (
    SPLIT_FILES,
    TEST_PER_FAMILY,
    TRAIN_PER_FAMILY,
    SamplePool,
    check_pool_needs,
    load_pool,
    materialize_split,
    read_split,
    split_meta,
    write_split,
)
from famsplit.matrix import CrossErrorMatrix, load_matrix, save_matrix, synth_matrix
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


def _sha256(path: Path) -> str:
    """The hex sha256 of the file at `path`, read 1 MiB at a time."""
    import hashlib  # here, so that importing famsplit does not load OpenSSL (~3.5 MB)

    digest = hashlib.sha256()
    with path.open("rb") as f, memoryview(bytearray(1 << 20)) as block:
        while n := f.readinto(block):
            digest.update(block[:n])
    return digest.hexdigest()


# Path flags: inputs are recorded by content digest, outputs not at all, so
# a rerun elsewhere writes the same bytes.
_INPUT_PATHS = ("matrix", "benchmark", "pool", "predictions", "a", "b")
_UNRECORDED = ("command", "func", "out", "out_dir", "plot_data")


def _run_manifest(args: argparse.Namespace) -> dict:
    """Every non-path flag in declaration order, plus a sha256 per input role."""
    flags: dict = {}
    inputs: dict[str, str] = {}
    for name, value in vars(args).items():
        if name == "split_dir":
            for role, filename in SPLIT_FILES.items():
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


def _save_matrix(matrix: CrossErrorMatrix, path: Path, manifest: dict) -> None:
    """Write the matrix CSV and, beside it, its run manifest."""
    path.parent.mkdir(parents=True, exist_ok=True)
    save_matrix(matrix, path)
    _write_json(path.with_name(path.name + ".manifest.json"), manifest)


def _report(args: argparse.Namespace, doc: dict, summary: str) -> int:
    """Embed the run manifest in `doc`, write it to --out, and print `summary`."""
    doc["run_manifest"] = _run_manifest(args)
    _write_json(Path(args.out), doc)
    print(f"wrote {args.out}: {summary}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    matrix = synth_matrix(args.families, args.seed)
    out = Path(args.out)
    _save_matrix(matrix, out, _run_manifest(args))
    print(f"wrote {out} ({matrix.k} families)")
    return 0


def _search(matrix: CrossErrorMatrix, args: argparse.Namespace, tau: float, seed: int,
            label: str | None) -> BenchmarkSet:
    """Search one tier with the search flags in `args`."""
    config = SearchConfig(
        tau=tau,
        epsilon0=args.epsilon,
        step=args.step,
        max_attempts=args.max_attempts,
        set_size=args.set_size,
        seed=seed,
    )
    return generate_benchmark(matrix, config, n_splits=args.splits, label=label)


def cmd_search(args: argparse.Namespace) -> int:
    bench = _search(load_matrix(args.matrix), args, args.tau, args.seed, args.label)
    eps = max(s.epsilon_final for s in bench.splits)
    summary = f"{len(bench.splits)} {bench.difficulty_label} splits, epsilon_final max {eps:g}"
    return _report(args, benchmark_to_dict(bench), summary)


def _materialize(pool: SamplePool, args: argparse.Namespace, manifest: dict,
                 tiers: list[tuple[BenchmarkSet, int, Path]]) -> None:
    """Write split-NN directories for every split of each (bench, seed, out_dir) in
    `tiers`, once the pool is known to supply them all, so a shortfall writes nothing."""
    for bench, _, _ in tiers:
        for spec in bench.splits:
            check_pool_needs(pool, spec, args.train_per_family, args.test_per_family)
    for bench, seed, out_dir in tiers:
        for i, spec in enumerate(bench.splits):
            split_seed = derive_seed(seed, f"materialize:{i}")
            ms = materialize_split(pool, spec, args.train_per_family, args.test_per_family,
                                   split_seed, split_id=f"split-{i:02d}")
            meta = split_meta(ms, spec, split_seed, args.train_per_family, args.test_per_family)
            meta["run_manifest"] = manifest
            write_split(ms, out_dir / ms.split_id, meta=meta)


def cmd_materialize(args: argparse.Namespace) -> int:
    bench = load_benchmark(args.benchmark)
    pool = load_pool(args.pool)
    out_dir = Path(args.out_dir)
    manifest = _run_manifest(args)
    _materialize(pool, args, manifest, [(bench, args.seed, out_dir)])
    _write_json(out_dir / "run_manifest.json", manifest)
    print(f"materialized {len(bench.splits)} splits under {out_dir}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.matrix)
    select = select_top_k if args.mode == "top" else select_worst_k
    report = ablation_report(matrix, select(matrix, args.k), args.agg)
    doc = {"mode": args.mode, "k": args.k, "agg": args.agg, **asdict(report)}
    if args.curve_ks:
        ks = [int(x) for x in args.curve_ks.split(",")]
        curve = selection_curve(matrix, args.mode, ks, args.agg)
        doc["curve"] = [[k, mean] for k, mean in curve]
        plot_rows = [(float(k), mean) for k, mean in curve]
    else:
        plot_rows = [(float(i), report.per_family_recall[f]) for i, f in enumerate(matrix.families)]
    _report(args, doc, f"{args.mode}-{args.k} selection")
    if args.plot_data:
        plot_path = Path(args.plot_data)
        plot_path.parent.mkdir(parents=True, exist_ok=True)
        plot_path.write_text("".join(f"{x:g}\t{y:.6f}\n" for x, y in plot_rows), encoding="utf-8")
        _write_json(plot_path.with_name(plot_path.name + ".manifest.json"), doc["run_manifest"])
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    split = read_split(args.split_dir)
    preds = load_predictions(args.predictions, threshold=args.threshold)
    result = evaluate_predictions(split, preds)
    doc = {"split_id": split.split_id, "threshold": args.threshold, **asdict(result)}
    return _report(args, doc, f"overall_accuracy {result.overall_accuracy:.4f}")


def cmd_compare(args: argparse.Namespace) -> int:
    a = load_metric_vector(args.a, args.metric)
    b = load_metric_vector(args.b, args.metric)
    result = wilcoxon_exact(a, b)
    doc = {"metric": args.metric, "n_pairs": len(a), **asdict(result),
           "summary_a": summarize(a), "summary_b": summarize(b)}
    summary = f"n_effective={result.n_effective} p_two_sided={result.p_two_sided:.6g}"
    return _report(args, doc, summary)


def cmd_pipeline(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    manifest = _run_manifest(args)
    matrix = synth_matrix(args.families, args.seed)
    pool = load_pool(args.pool) if args.pool else None
    # Every tier is searched and validated before the first write, so a refused run writes nothing.
    tiers = []
    for tier_index, (tau, label) in enumerate(STANDARD_LABELS.items()):
        tier_seed = derive_seed(args.seed, tier_index)
        bench = _search(matrix, args, tau, tier_seed, label)
        tiers.append((label.lower(), tier_seed, bench, validate_benchmark(matrix, bench, args.agg)))
    if pool is not None:
        _materialize(pool, args, manifest,
                     [(bench, seed, out_dir / "splits" / slug) for slug, seed, bench, _ in tiers])

    _save_matrix(matrix, out_dir / "matrix.csv", manifest)
    for slug, _, bench, validation in tiers:
        _write_json(out_dir / f"benchmark_{slug}.json",
                    {**benchmark_to_dict(bench), "run_manifest": manifest})
        (out_dir / f"recall_curve_{slug}.tsv").write_text(
            "".join(f"{s.split_index}\t{s.mean_recall:.6f}\n" for s in validation.splits),
            encoding="utf-8",
        )
    _write_json(out_dir / "validation.json",
                {"tiers": [asdict(v) for *_, v in tiers], "run_manifest": manifest})
    _write_json(out_dir / "run_manifest.json", manifest)
    means = ", ".join(f"{v.difficulty_label}={v.mean_recall:.4f}" for *_, v in tiers)
    print(f"pipeline complete under {out_dir}: mean surrogate recall {means}")
    return 0


def _at_least(low: int, below: int | None = None):
    """argparse type: an integer in [low, below), so a bad value is a usage error (exit 2)."""
    expected = f"an integer >= {low}" if below is None else f"an integer in [{low}, {below})"
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low or (below is not None and value >= below):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_seed = _at_least(0, 2**64)  # every seed is an unsigned 64-bit value


def _int_list(text: str) -> str:
    """argparse type: comma-separated integers >= 1, kept as text for the run manifest."""
    try:
        smallest = min(map(int, text.split(",")))
    except ValueError:
        smallest = 0
    if smallest < 1:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers >= 1, got {text!r}")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="famsplit",
        description="Construct malware-family benchmark splits of configurable difficulty.",
    )
    parser.add_argument("--version", action="version", version=f"famsplit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cross-generalization matrix")
    p.add_argument("--families", type=_at_least(2), required=True, help="family count K (>= 2)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="matrix CSV output path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("search", help="search disjoint train/test family splits")
    p.add_argument("--matrix", required=True)
    p.add_argument("--tau", type=float, required=True, help="target recall threshold in (0,1)")
    p.add_argument("--epsilon", type=float, default=SearchConfig.epsilon0, help="initial band half-width")
    p.add_argument("--step", type=float, default=SearchConfig.step, help="relaxation increment")
    p.add_argument("--max-attempts", type=_at_least(1), default=SearchConfig.max_attempts)
    p.add_argument("--set-size", type=_at_least(1), default=SearchConfig.set_size)
    p.add_argument("--splits", type=_at_least(1), default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--label", default=None, help="difficulty label (default from tau)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("materialize", help="expand benchmark splits into sample manifests")
    p.add_argument("--benchmark", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--train-per-family", type=_at_least(1), default=TRAIN_PER_FAMILY)
    p.add_argument("--test-per-family", type=_at_least(1), default=TEST_PER_FAMILY)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_materialize)

    p = sub.add_parser("ablate", help="top-K / worst-K baseline selection report")
    p.add_argument("--matrix", required=True)
    p.add_argument("--mode", choices=("top", "worst"), required=True)
    p.add_argument("--k", type=_at_least(1), required=True)
    p.add_argument("--agg", choices=get_args(Aggregation), default="mean")
    p.add_argument("--curve-ks", type=_int_list, default=None,
                   help="comma-separated K sweep, e.g. 5,10,15")
    p.add_argument("--plot-data", default=None, help="optional TSV of (x, y) plot pairs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("evaluate", help="score predictions against a materialized split")
    p.add_argument("--split-dir", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--threshold", type=float, default=PredictionSet.threshold)
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
    p.add_argument("--families", type=_at_least(2), default=184)
    p.add_argument("--seed", type=_seed, default=7)
    p.add_argument("--splits", type=_at_least(1), default=10)
    p.add_argument("--set-size", type=_at_least(1), default=SearchConfig.set_size)
    p.add_argument("--epsilon", type=float, default=SearchConfig.epsilon0)
    p.add_argument("--step", type=float, default=SearchConfig.step)
    p.add_argument("--max-attempts", type=_at_least(1), default=SearchConfig.max_attempts)
    p.add_argument("--agg", choices=get_args(Aggregation), default="mean")
    p.add_argument("--pool", default=None, help="optional pool file; also materialize splits")
    p.add_argument("--train-per-family", type=_at_least(1), default=TRAIN_PER_FAMILY)
    p.add_argument("--test-per-family", type=_at_least(1), default=TEST_PER_FAMILY)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FamsplitError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"famsplit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
