"""Independent checks of famsplit's outputs, written without famsplit.

Uses numpy, the standard library and scipy only. Every check returns a list
of error strings; an empty list means the output is correct. The checks
re-derive each answer from the inputs the benchmark wrote, so they would
catch the invariant breaks listed in ROADMAP item 4 if those appeared, even
though the benchmark's valid inputs do not provoke them.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path

import numpy as np

CSV_ROUNDING = 5e-7  # matrix CSVs keep 6 decimals
TIERS = (("easy", 0.9), ("medium", 0.5), ("hard", 0.25))


def digests(directory: Path) -> dict[str, str]:
    """sha256 of every file under `directory`, by relative path."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def read_matrix_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[-1] != "" or not lines[0].startswith("family,"):
        raise ValueError(f"{path.name}: not a canonical matrix CSV")
    names = lines[0].split(",")[1:]
    rows = [line.split(",") for line in lines[1:-1]]
    if [r[0] for r in rows] != names or any(len(r) != len(names) + 1 for r in rows):
        raise ValueError(f"{path.name}: rows do not match the header")
    return names, np.array([r[1:] for r in rows], dtype=np.float64)


def check_tier(doc: dict, names: list[str], values: np.ndarray, tau: float,
               n_splits: int, set_size: int, tol: float) -> list[str]:
    """Sides family-disjoint and full size; every cross entry inside epsilon_final."""
    errors = []
    index = {n: i for i, n in enumerate(names)}
    if doc["tau"] != tau or doc["set_size"] != set_size or len(doc["splits"]) != n_splits:
        errors.append(f"tier header wrong: tau {doc['tau']}, set_size {doc['set_size']}, "
                      f"{len(doc['splits'])} splits")
    for i, s in enumerate(doc["splits"]):
        train, test = s["train_families"], s["test_families"]
        if len(train) != set_size or len(test) != set_size:
            errors.append(f"split {i}: sides {len(train)}/{len(test)}, expected {set_size}")
        if len(set(train)) != len(train) or len(set(test)) != len(test):
            errors.append(f"split {i}: a side repeats a family")
        if set(train) & set(test):
            errors.append(f"split {i}: families on both sides: {sorted(set(train) & set(test))}")
        if not set(train) | set(test) <= index.keys():
            errors.append(f"split {i}: unknown families")
            continue
        eps = s["epsilon_final"]
        if eps != doc["epsilon0"] + doc["step"] * s["relaxations"]:
            errors.append(f"split {i}: epsilon_final {eps} != epsilon0 + step * relaxations")
        if eps >= max(tau, 1 - tau) + doc["step"]:
            errors.append(f"split {i}: relaxed past saturation to {eps}")
        if s["attempts_total"] < set_size:
            errors.append(f"split {i}: {s['attempts_total']} draws cannot fill {set_size} pairs")
        cross = values[np.ix_([index[f] for f in train], [index[f] for f in test])]
        worst = float(np.abs(cross - tau).max())
        if worst > eps + tol:
            errors.append(f"split {i}: cross entry {worst} from tau, band is {eps}")
    return errors


def check_validation(splits: list[dict], doc: dict, names: list[str], values: np.ndarray,
                     tol: float) -> list[str]:
    """Surrogate recalls (mean of trained rows), split means and band flags recomputed."""
    errors = []
    index = {n: i for i, n in enumerate(names)}
    tau = doc["tau"]
    if len(splits) != len(doc["splits"]):
        return [f"{len(splits)} validated splits for {len(doc['splits'])} searched"]
    for i, (v, s) in enumerate(zip(splits, doc["splits"])):
        rows = [index[f] for f in s["train_families"]]
        expect = {f: float(values[rows, index[f]].mean()) for f in s["test_families"]}
        got = v["per_family_recall"]
        if set(got) != set(expect):
            errors.append(f"split {i}: validated families differ from the test side")
            continue
        if any(abs(got[f] - expect[f]) > tol for f in expect):
            errors.append(f"split {i}: per-family surrogate recall differs")
        if abs(v["mean_recall"] - statistics.fmean(expect.values())) > tol:
            errors.append(f"split {i}: mean_recall {v['mean_recall']} differs")
        eps = s["epsilon_final"]
        for f, r in expect.items():
            outside = r < tau - eps - tol or r > tau + eps + tol
            inside = tau - eps + tol <= r <= tau + eps - tol
            flagged = f in v["flagged_families"]
            if (outside and not flagged) or (inside and flagged):
                errors.append(f"split {i}: family {f} flag is {flagged} at recall {r}")
    return errors


def verify_pipeline(out_dir: Path, seed: int, families: int) -> list[str]:
    """Outputs of one `famsplit pipeline` unit."""
    try:
        names, values = read_matrix_csv(out_dir / "matrix.csv")
        validation = json.loads((out_dir / "validation.json").read_text(encoding="utf-8"))
        manifest = json.loads((out_dir / "run_manifest.json").read_text(encoding="utf-8"))
        docs = {slug: json.loads((out_dir / f"benchmark_{slug}.json").read_text(encoding="utf-8"))
                for slug, _ in TIERS}
        curves = {slug: (out_dir / f"recall_curve_{slug}.tsv").read_text(encoding="utf-8")
                  for slug, _ in TIERS}
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    errors = []
    if len(names) != families or values.min() < 0 or values.max() > 1:
        errors.append(f"matrix has {len(names)} families or values outside [0, 1]")
    if manifest.get("command") != "pipeline" or manifest["flags"]["seed"] != seed:
        errors.append("run manifest does not record this pipeline's seed")
    tol = CSV_ROUNDING + 1e-9
    tiers = validation["tiers"]
    if [t["tau"] for t in tiers] != [tau for _, tau in TIERS]:
        return errors + ["validation tiers are not Easy/Medium/Hard"]
    for (slug, tau), tier in zip(TIERS, tiers):
        doc = docs[slug]
        errors += [f"{slug}: {e}" for e in check_tier(doc, names, values, tau, 10, 10, tol)]
        errors += [f"{slug}: {e}" for e in check_validation(tier["splits"], doc, names, values, 2 * tol)]
        split_means = [s["mean_recall"] for s in tier["splits"]]
        if abs(tier["mean_recall"] - statistics.fmean(split_means)) > 1e-12:
            errors.append(f"{slug}: tier mean_recall differs from its split means")
        if tier["total_flags"] != sum(len(s["flagged_families"]) for s in tier["splits"]):
            errors.append(f"{slug}: total_flags differs from the flagged families")
        expect_curve = "".join(f"{s['split_index']}\t{s['mean_recall']:.6f}\n" for s in tier["splits"])
        if curves[slug] != expect_curve:
            errors.append(f"{slug}: recall curve differs from validation.json")
    return errors


def verify_large_k(unit_dir: Path, matrix_path: Path, names: list[str], values: np.ndarray,
                   ablation_k: int) -> list[str]:
    """Outputs of one large-k unit: round trip, three one-split tiers, two ablations."""
    errors = []
    try:
        if (unit_dir / "matrix.csv").read_bytes() != matrix_path.read_bytes():
            errors.append("saved matrix CSV is not byte-identical to the loaded one")
        doc = json.loads((unit_dir / "result.json").read_text(encoding="utf-8"))
    except OSError as exc:
        return [f"unreadable output: {exc}"]
    tol = 1e-12
    for (slug, tau), tier in zip(TIERS, doc["tiers"]):
        bench = tier["benchmark"]
        errors += [f"{slug}: {e}" for e in check_tier(bench, names, values, tau, 1, 10, tol)]
        errors += [f"{slug}: {e}" for e in
                   check_validation(tier["validation"]["splits"], bench, names, values, 1e-9)]
    errors += check_ablation(doc["ablation"]["top"], names, values, ablation_k, top=True)
    errors += check_ablation(doc["ablation"]["worst"], names, values, ablation_k, top=False)
    return errors


def check_ablation(report: dict, names: list[str], values: np.ndarray, k: int, top: bool) -> list[str]:
    """Selection by off-diagonal row mean, and the selection's surrogate recalls."""
    mode = "top" if top else "worst"
    n = len(names)
    index = {f: i for i, f in enumerate(names)}
    selected = report["selected_families"]
    if len(selected) != k or len(set(selected)) != k or not set(selected) <= index.keys():
        return [f"{mode}-{k}: selection is not {k} distinct known families"]
    errors = []
    means = (values.sum(axis=1) - np.diag(values)) / (n - 1)
    sel = np.array([index[f] for f in selected])
    rest = np.setdiff1d(np.arange(n), sel)
    gap = means[sel].min() - means[rest].max() if top else means[rest].min() - means[sel].max()
    if gap < -1e-12:
        errors.append(f"{mode}-{k}: selection skips a family with a {'higher' if top else 'lower'} row mean")
    recall = values[sel].mean(axis=0)
    got = report["per_family_recall"]
    if list(got) != names or np.abs(np.array([got[f] for f in names]) - recall).max() > 1e-9:
        errors.append(f"{mode}-{k}: per-family surrogate recall differs")
    off = recall[rest]
    if (abs(report["mean_off_selected"] - off.mean()) > 1e-9
            or abs(report["std_off_selected"] - off.std()) > 1e-9
            or abs(report["self_recall_min"] - recall[sel].min()) > 1e-9):
        errors.append(f"{mode}-{k}: off-selection summary differs")
    return errors


def _read_side(path: Path) -> tuple[list[str], list[str], list[str]]:
    ids, labels, families = [], [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        sample_id, label, family = line.split("\t")
        ids.append(sample_id)
        labels.append(label)
        families.append(family)
    return ids, labels, families


def _claimed_block_errors(side: str, ids: list[str], labels: list[str], families: list[str],
                          names: list[str], ids_per_family: int) -> list[str]:
    """Every id decodes to the block its record claims: its family, or the side's benign origin."""
    origin = "btrain-" if side == "train" else "btest-"
    for sample_id, label, family in zip(ids, labels, families):
        if label == "benign":
            ok = family == "-" and sample_id.startswith(origin)
        else:
            f, _, j = sample_id[1:].partition("-")
            ok = (label == "malicious" and sample_id[0] == "m" and f.isdigit() and j.isdigit()
                  and int(f) < len(names) and names[int(f)] == family and int(j) < ids_per_family)
        if not ok:
            return [f"{side}: record {sample_id} {label} {family} is not from its claimed block"]
    return []


def verify_materialize(unit_dir: Path, split: dict, seed: int, sizes: dict, names: list[str],
                       predictions_path: Path, thresholds: tuple[float, float]) -> list[str]:
    """One materialized split and its two evaluations."""
    try:
        sides = {side: _read_side(unit_dir / f"{side}.tsv") for side in ("train", "test")}
        meta = json.loads((unit_dir / "meta.json").read_text(encoding="utf-8"))
        evaluation = json.loads((unit_dir / "eval.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    errors = []
    per = {"train": sizes["train_per_family"], "test": sizes["test_per_family"]}
    for side, (ids, labels, families) in sides.items():
        expect = {f: per[side] for f in split[f"{side}_families"]}
        got: dict[str, int] = {}
        for label, family in zip(labels, families):
            if label == "malicious":
                got[family] = got.get(family, 0) + 1
        if got != expect:
            errors.append(f"{side}: per-family malicious counts differ from the split")
        n_benign = labels.count("benign")
        if n_benign != sum(expect.values()) or n_benign + sum(got.values()) != len(ids):
            errors.append(f"{side}: {n_benign} benign for {sum(got.values())} malicious")
        if len(set(ids)) != len(ids):
            errors.append(f"{side}: {len(ids) - len(set(ids))} ids repeated on the same side")
        errors += _claimed_block_errors(side, ids, labels, families, names, sizes["ids_per_family"])
    shared = set(sides["train"][0]) & set(sides["test"][0])
    if shared:
        errors.append(f"{len(shared)} ids on both sides")
    if (meta["train_families"] != split["train_families"] or meta["test_families"] != split["test_families"]
            or meta["materialize_seed"] != seed or meta["counts"]["train_total"] != len(sides["train"][0])
            or meta["counts"]["test_total"] != len(sides["test"][0])):
        errors.append("meta.json does not describe this split")

    scores = {}
    for line in predictions_path.read_text(encoding="utf-8").splitlines():
        sample_id, score = line.split("\t")
        scores[sample_id] = float(score)
    ids, labels, families = sides["test"]
    s = np.array([scores[i] for i in ids])
    malicious = np.array([label == "malicious" for label in labels])
    fam = np.array(families)
    for threshold, got in zip(thresholds, evaluation["evaluations"]):
        flagged = s >= threshold
        recall = {f: float(flagged[fam == f].mean()) for f in split["test_families"]}
        expect = {
            "per_family_recall": recall,
            "benign_accuracy": float((~flagged[~malicious]).mean()),
            "overall_accuracy": float((flagged == malicious).mean()),
            "malware_recall_mean": statistics.fmean(recall.values()),
        }
        if got["per_family_recall"].keys() != recall.keys() or any(
            abs(got["per_family_recall"][f] - r) > 1e-12 for f, r in recall.items()
        ) or any(abs(got[key] - expect[key]) > 1e-12 for key in expect if key != "per_family_recall"):
            errors.append(f"evaluation at threshold {threshold} differs from the recomputed one")
    return errors


def verify_wilcoxon(a: list[float], b: list[float], result: dict) -> list[str]:
    """Exact signed-rank p-values: full sign enumeration, and scipy when tie-free."""
    from scipy import stats

    d = np.array(a) - np.array(b)
    d = d[d != 0]
    n = len(d)
    if n == 0 or n > 20:
        return [f"comparison has {n} nonzero differences; the benchmark sends 1..20"]
    ranks2 = np.rint(2 * stats.rankdata(np.abs(d))).astype(np.int64)  # doubled midranks
    w_plus2 = int(ranks2[d > 0].sum())
    total2 = int(ranks2.sum())
    signs = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    s_plus2 = signs @ ranks2
    w2 = min(w_plus2, total2 - w_plus2)
    expect = {
        "w_statistic": w2 / 2,
        "n_effective": n,
        "p_two_sided": float(np.mean(np.minimum(s_plus2, total2 - s_plus2) <= w2)),
        "p_one_sided": float(np.mean(s_plus2 >= w_plus2)),
    }
    errors = [f"wilcoxon {key} {result[key]} != {x}" for key, x in expect.items()
              if abs(result[key] - x) > 1e-12]
    if len(np.unique(np.abs(d))) == n and n == len(a):
        two = stats.wilcoxon(a, b, method="exact")
        one = stats.wilcoxon(a, b, method="exact", alternative="greater")
        if abs(two.pvalue - result["p_two_sided"]) > 1e-12 or abs(one.pvalue - result["p_one_sided"]) > 1e-12:
            errors.append("wilcoxon p-values disagree with scipy's exact test")
    return errors
