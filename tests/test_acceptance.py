"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Every criterion is asserted at its pinned tolerance; the verdict lines are
printed (visible with ``pytest -s`` and on failure). Oracles here are
deliberately independent re-implementations: single-pass Python binning,
running sums, full rejection-curve enumeration and O(n^2) pair counting.
"""

import math
import time

import numpy as np
import pytest

from relikit import metrics as met
from relikit import tensor_io
from relikit.calibration import (
    ClusterVariant,
    FeatureMode,
    LtsHyper,
    apply_calibrator,
    apply_temperature,
    calibrator_temperature,
    fit_cluster_ts,
    fit_global_ts,
    fit_lts,
)
from relikit.cli import main
from relikit.confidence import ConfidenceScore, RecordSet, confidence_map
from relikit.counterexample import (
    CounterexampleSpec,
    build_counterexample,
    evaluate_counterexample,
)
from relikit.manifest import load_manifest
from relikit.mlp import init_params, loss_and_grads
from relikit.rng import subsample_indices
from relikit.synth import DomainSpec, SynthConfig, generate_benchmark, generate_scene
from relikit.tensors import LabelMap, LogitTensor


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _records(conf, correct) -> RecordSet:
    return RecordSet(np.asarray(conf, dtype=np.float64), np.asarray(correct, dtype=bool))


def _image_records(maps, labels, image_id, *, pixels_per_image=None, seed=0, ignore_value=255):
    """One image's records as eval takes them: the (confidence, predicted) maps of
    confidence_map at the non-ignored pixels, drawn from the (seed, "pixels:<id>") stream."""
    conf, predicted = maps
    flat = labels.data.reshape(-1)
    rows = np.flatnonzero(flat != ignore_value)
    rows = rows[subsample_indices(rows.size, pixels_per_image, seed, f"pixels:{image_id}")]
    return RecordSet(conf.reshape(-1)[rows], predicted.reshape(-1)[rows] == flat[rows])


# ---------------------------------------------------------------- oracles

def _oracle_ece_equal_width(conf, correct, bins):
    n = conf.shape[0]
    count = [0] * bins
    sum_conf = [0.0] * bins
    hits = [0] * bins
    for c, ok in zip(conf.tolist(), correct.tolist()):
        i = min(int(math.floor(c * bins)), bins - 1)
        count[i] += 1
        sum_conf[i] += c
        hits[i] += ok
    return sum(
        (count[i] / n) * abs(hits[i] / count[i] - sum_conf[i] / count[i])
        for i in range(bins)
        if count[i]
    )


def _oracle_ece_equal_population(conf, correct, bins):
    n = conf.shape[0]
    order = sorted(range(n), key=conf.__getitem__)  # stable, like the mergesort
    sizes = [n // bins + 1] * (n % bins) + [n // bins] * (bins - n % bins)
    total = 0.0
    pos = 0
    for size in sizes:
        members = order[pos : pos + size]
        pos += size
        if not size:
            continue
        mean_conf = sum(conf[j] for j in members) / size
        accuracy = sum(int(correct[j]) for j in members) / size
        total += (size / n) * abs(accuracy - mean_conf)
    return total


def _oracle_ks(conf, correct):
    n = conf.shape[0]
    run_conf = 0.0
    run_correct = 0.0
    worst = 0.0
    for j in sorted(range(n), key=conf.__getitem__):
        run_conf += conf[j]
        run_correct += float(correct[j])
        worst = max(worst, abs(run_conf - run_correct))
    return worst / n


def _oracle_auroc(pos, neg):
    wins = 0.0
    ties = 0.0
    for start in range(0, pos.shape[0], 256):  # block the n^2 comparison matrix
        block = pos[start : start + 256, None]
        wins += float((block > neg).sum())
        ties += float((block == neg).sum())
    return (wins + 0.5 * ties) / (pos.shape[0] * neg.shape[0])


def _oracle_prr(conf, correct):
    # walk the full rejection curve; areas stay in exact integer arithmetic
    n = conf.shape[0]
    total_errors = sum(1 for ok in correct.tolist() if not ok)
    remaining = total_errors
    model = [remaining]
    for j in sorted(range(n), key=conf.__getitem__):
        if not correct[j]:
            remaining -= 1
        model.append(remaining)
    oracle = [max(total_errors - k, 0) for k in range(n + 1)]
    model_area = model[0] + model[-1] + 2 * sum(model[1:-1])
    oracle_area = oracle[0] + oracle[-1] + 2 * sum(oracle[1:-1])
    random_area = total_errors * n
    return 100.0 * ((random_area - model_area) / (random_area - oracle_area))


# --------------------------------------------------------------- criteria

def test_criterion_01_metrics_match_bruteforce_oracles():
    rng = np.random.default_rng(2024)
    trials = 1000
    worst = dict.fromkeys(("ece", "ada_ece", "ks", "auroc", "prr"), 0.0)
    start = time.perf_counter()
    for trial in range(trials):
        n = int(rng.integers(2, 1001))
        conf = rng.random(n)
        if trial % 3 == 0:
            conf = np.round(conf, 2)  # force confidence ties
        correct = rng.random(n) < rng.uniform(0.05, 0.95)
        if correct.all():
            correct[int(rng.integers(n))] = False
        if not correct.any():
            correct[int(rng.integers(n))] = True
        records = _records(conf, correct)
        bins = int(rng.integers(1, 21))
        worst["ece"] = max(worst["ece"], abs(
            met.ece(records, bins) - _oracle_ece_equal_width(conf, correct, bins)))
        worst["ada_ece"] = max(worst["ada_ece"], abs(
            met.ada_ece(records, bins) - _oracle_ece_equal_population(conf, correct, bins)))
        worst["ks"] = max(worst["ks"], abs(met.ks_error(records) - _oracle_ks(conf, correct)))
        worst["auroc"] = max(worst["auroc"], abs(
            met.auroc(conf[correct], conf[~correct])
            - _oracle_auroc(conf[correct], conf[~correct])))
        worst["prr"] = max(worst["prr"], abs(met.prr(records) - _oracle_prr(conf, correct)))
    elapsed = time.perf_counter() - start
    ok = max(worst.values()) < 1e-12 and elapsed < 60.0
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    _verdict(1, ok, f"{trials} instances, worst |impl - oracle|: {detail}; {elapsed:.1f}s")


def test_criterion_02_calibrated_metrics_agree():
    rng = np.random.default_rng(7001)
    n = 60_000
    conf = rng.beta(2.0, 1.2, size=n)
    correct = rng.random(n) < conf  # calibrated by construction
    records = _records(conf, correct)
    e = met.ece(records)
    a = met.ada_ece(records)
    k = met.ks_error(records)
    ok = abs(e - a) < 0.01 and abs(e - k) < 0.01
    _verdict(2, ok, f"n={n}: ece={e:.5f} ada_ece={a:.5f} ks={k:.5f}, "
                    f"|ece-ada|={abs(e - a):.5f} |ece-ks|={abs(e - k):.5f}")


def test_criterion_03_subsampled_ece_tracks_full_image():
    config = SynthConfig(
        domains=(DomainSpec("warm", 1.5, 0.0, (0.0,)),),
        height=1024, width=2048, seed=33,
        concentration=0.25, smoothing_radius=1, sharpness=20.0,
    )
    scene = generate_scene(config, "warm", "warm-huge")
    maps = confidence_map(scene.logits)
    full = met.ece(_image_records(maps, scene.labels, "warm-huge"))
    worst = 0.0
    for seed in range(10):
        sub = met.ece(_image_records(maps, scene.labels, "warm-huge",
                                     pixels_per_image=20_000, seed=seed))
        worst = max(worst, abs(sub - full))
    _verdict(3, worst < 0.005,
             f"2,097,152-pixel image: full ece={full:.5f}, "
             f"worst 20k-subsample gap={worst:.5f} over 10 seeds")


def test_criterion_04_calibration_preserves_predictions(ladder_manifest):
    calibrators = {
        "ts": fit_global_ts(ladder_manifest, seed=1),
        "cluster_ts": fit_cluster_ts(ladder_manifest, k=3, seed=1),
        "class_cluster_ts": fit_cluster_ts(ladder_manifest, k=3, seed=1,
                                           variant=ClusterVariant.PER_CLASS),
        "lts": fit_lts(ladder_manifest, feature_mode=FeatureMode.BOTH,
                       hyper=LtsHyper(epochs=3), seed=1)[0],
    }
    classes = ladder_manifest.classes
    base_conf = np.zeros((classes, classes), dtype=np.int64)
    conf = {name: np.zeros((classes, classes), dtype=np.int64) for name in calibrators}
    maps_equal = True
    for entry in ladder_manifest.entries:
        logits = tensor_io.read_logits(ladder_manifest.resolve(entry.logits))
        labels = tensor_io.read_labels(ladder_manifest.resolve(entry.labels))
        feature = tensor_io.read_feature(ladder_manifest.resolve(entry.feature))
        image = tensor_io.read_image(ladder_manifest.resolve(entry.image))
        base_pred = apply_temperature(logits, 1.0).argmax(axis=2)
        maps_equal &= bool(np.array_equal(confidence_map(logits)[1], base_pred))
        base_conf += met.confusion_matrix(base_pred, labels, classes)
        for name, calibrator in calibrators.items():
            probs = apply_calibrator(calibrator, logits, feature=feature, image=image)
            pred = probs.argmax(axis=2)
            maps_equal &= bool(np.array_equal(pred, base_pred))
            conf[name] += met.confusion_matrix(pred, labels, classes)
    base_miou = met.iou_from_confusion(base_conf).miou
    miou_equal = all(
        met.iou_from_confusion(conf[name]).miou == base_miou for name in calibrators
    )
    _verdict(4, maps_equal and miou_equal,
             f"argmax maps and pooled miou ({base_miou:.5f}) bit-identical across "
             f"{len(calibrators)} calibrators on {len(ladder_manifest.entries)} images")


def test_criterion_05_global_ts_recovers_oracle_temperature(tmp_path):
    details = []
    ok = True
    for tau in (0.5, 1.0, 2.0, 4.0):
        config = SynthConfig(
            domains=(DomainSpec("d", tau, 0.0, (0.0,)),),
            height=48, width=48, calibration_images=44, test_images=0, seed=101,
        )
        manifest = load_manifest(generate_benchmark(config, tmp_path / f"tau{tau}"))
        fitted = fit_global_ts(manifest, pixels_per_image=None, seed=0).temperature
        rel = abs(fitted - tau) / tau
        ok = ok and rel < 0.02
        details.append(f"tau={tau:g}->{fitted:.4f} ({100 * rel:.2f}%)")
    _verdict(5, ok, "101,376 calibration pixels each: " + ", ".join(details))


def test_criterion_06_single_cluster_reproduces_global(ladder_manifest):
    global_t = fit_global_ts(ladder_manifest, seed=4).temperature
    model = fit_cluster_ts(ladder_manifest, k=1, seed=4)
    cluster_t = float(model.temperatures[0])
    diff = abs(math.log(cluster_t) - math.log(global_t))
    _verdict(6, diff < 1e-3,
             f"global T={global_t:.6f}, k=1 cluster T={cluster_t:.6f}, |dln T|={diff:.2e}")


def _union_test_ece(manifest, calibrator):
    parts = []
    for entry in manifest.select(split="test"):
        logits = tensor_io.read_logits(manifest.resolve(entry.logits))
        labels = tensor_io.read_labels(manifest.resolve(entry.labels))
        feature = tensor_io.read_feature(manifest.resolve(entry.feature))
        image = tensor_io.read_image(manifest.resolve(entry.image))
        maps = confidence_map(logits, calibrator_temperature(calibrator, logits, feature, image))
        parts.append(_image_records(maps, labels, entry.image_id))
    return met.ece(RecordSet.concat(parts))


def test_criterion_07_cluster_ts_beats_global_on_mixture(ladder_manifest):
    global_cal = fit_global_ts(ladder_manifest, seed=2)
    cluster_cal = fit_cluster_ts(ladder_manifest, k=3, seed=2)
    e_global = _union_test_ece(ladder_manifest, global_cal)
    e_cluster = _union_test_ece(ladder_manifest, cluster_cal)
    reduction = (e_global - e_cluster) / e_global
    ok = e_cluster < e_global and reduction >= 0.25
    _verdict(7, ok, f"union test ece: global {e_global:.5f} -> cluster {e_cluster:.5f} "
                    f"({100 * reduction:.1f}% reduction, need >= 25%)")


def _domain_test_ece(manifest, calibrator, domain):
    parts = []
    for entry in manifest.select(split="test", domain=domain):
        logits = tensor_io.read_logits(manifest.resolve(entry.logits))
        labels = tensor_io.read_labels(manifest.resolve(entry.labels))
        image = tensor_io.read_image(manifest.resolve(entry.image))
        maps = confidence_map(logits, calibrator_temperature(calibrator, logits, image=image))
        parts.append(_image_records(maps, labels, entry.image_id))
    return met.ece(RecordSet.concat(parts))


def test_criterion_08_lts_generalizes_and_gradients_check(family_manifest):
    # calibration split holds only the in-domain family; "shifted" has test
    # images exclusively, so fitting never sees it
    assert family_manifest.select(split="calibration", domain="shifted") == []
    regressor, _ = fit_lts(family_manifest, feature_mode=FeatureMode.IMAGE, seed=3)
    raw = _domain_test_ece(family_manifest, None, "shifted")
    scaled = _domain_test_ece(family_manifest, regressor, "shifted")
    reduction = (raw - scaled) / raw

    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        hidden = int(rng.integers(1, 5))
        n = int(rng.integers(2, 40))
        classes = int(rng.integers(2, 6))
        params = init_params(dim, hidden, rng, raw_bias=float(rng.normal()))
        x = rng.normal(size=(n, dim))
        z = rng.normal(scale=2.0, size=(n, classes))
        y = rng.integers(0, classes, size=n)
        _, grads, _ = loss_and_grads(params, x, z, y, 0.05)
        vec = params.to_vector()
        analytic = grads.to_vector()
        numeric = np.empty_like(vec)
        for i in range(vec.size):
            up = vec.copy()
            up[i] += 1e-4
            down = vec.copy()
            down[i] -= 1e-4
            numeric[i] = (
                loss_and_grads(params.from_vector(up), x, z, y, 0.05)[0]
                - loss_and_grads(params.from_vector(down), x, z, y, 0.05)[0]
            ) / 2e-4
        rel = np.abs(analytic - numeric) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        worst = max(worst, float(rel.max()))

    ok = reduction >= 0.20 and worst < 1e-4
    _verdict(8, ok, f"shifted-domain ece {raw:.5f} -> {scaled:.5f} "
                    f"({100 * reduction:.1f}% reduction, need >= 20%); "
                    f"gradient check worst rel err {worst:.1e} over 100 draws")


def test_criterion_09_groupwise_paradox_exact(capsys):
    code = main(["theorem"])
    printed = capsys.readouterr().out
    exact = (
        code == 0
        and "baseline  ECE:  B=0.200000  B'=0.200000  union=0.000000" in printed
        and "groupwise ECE:  B=0.100000  B'=0.100000  union=0.100000" in printed
        and "each group improves: PASS" in printed
        and "union regresses:     PASS" in printed
    )
    values = evaluate_counterexample(build_counterexample(CounterexampleSpec()))
    exact = exact and abs(values["baseline"]["b"] - 0.2) < 1e-12
    exact = exact and abs(values["baseline"]["b_prime"] - 0.2) < 1e-12
    exact = exact and values["baseline"]["union"] < 1e-12
    exact = exact and abs(values["groupwise"]["b"] - 0.1) < 1e-12
    exact = exact and abs(values["groupwise"]["b_prime"] - 0.1) < 1e-12
    exact = exact and abs(values["groupwise"]["union"] - 0.1) < 1e-12

    rng = np.random.default_rng(4096)
    random_ok = 0
    for _ in range(100):
        bins = int(rng.integers(1, 7))
        per_bin = int(rng.integers(3 * bins + 10, 81))
        j_max = min(per_bin - 1,
                    int(math.floor(4 * per_bin / (3 * bins) - 8 / 3)),
                    int(math.floor(0.8 * per_bin - 1.6)))
        j = int(rng.integers(1, j_max + 1))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        spec = CounterexampleSpec(bins=bins, residual=sign * j / (2 * per_bin),
                                  per_bin=per_bin)
        v = evaluate_counterexample(build_counterexample(spec))
        half = abs(spec.residual) / 2.0
        random_ok += (
            v["groups_improve"] and v["union_regresses"]
            and abs(v["baseline"]["b"] - abs(spec.residual)) < 1e-12
            and abs(v["baseline"]["b_prime"] - abs(spec.residual)) < 1e-12
            and v["baseline"]["union"] < 1e-12
            and abs(v["groupwise"]["union"] - half) < 1e-12
        )
    ok = exact and random_ok == 100
    _verdict(9, ok, f"r=0.2 prints 0.2->0.1 per group, union 0->0.1, exact to 1e-12; "
                    f"{random_ok}/100 random specs hold")


def test_criterion_10_rank_metrics_invariant_under_monotone_transforms():
    rng = np.random.default_rng(555)
    transforms = (
        lambda c: 2.0 * c + 3.0,
        np.exp,
        lambda c: c ** 3,
        np.arctan,
        lambda c: c / (1.0 + c),
    )
    invariant = True
    for trial in range(50):
        n = int(rng.integers(20, 400))
        conf = rng.random(n)
        if trial % 2 == 0:
            conf = np.round(conf, 2)
        correct = rng.random(n) < 0.7
        if correct.all():
            correct[0] = False
        if not correct.any():
            correct[0] = True
        base_prr = met.prr(_records(conf, correct))
        base_auroc = met.auroc(conf[correct], conf[~correct])
        for transform in transforms:
            moved = transform(conf)
            invariant &= met.prr(_records(moved, correct)) == base_prr
            invariant &= met.auroc(moved[correct], moved[~correct]) == base_auroc

    # two classes: negative entropy is a strictly increasing function of
    # max probability, so both scores induce identical rank metrics
    logits = LogitTensor(rng.normal(scale=2.0, size=(20, 25, 2)))
    labels = LabelMap(rng.integers(0, 2, size=(20, 25)).astype(np.uint16))
    two_class = True
    by_score = {}
    for score in (ConfidenceScore.MAX_PROB, ConfidenceScore.NEG_ENTROPY):
        records = _image_records(confidence_map(logits, 1.0, score), labels, "k2")
        by_score[score] = (met.prr(records),
                           met.auroc(records.confidence[records.correct],
                                     records.confidence[~records.correct]))
    two_class = (by_score[ConfidenceScore.MAX_PROB] == by_score[ConfidenceScore.NEG_ENTROPY])
    _verdict(10, invariant and two_class,
             "prr and auroc bit-identical under 5 increasing transforms x 50 sets; "
             "K=2 max-prob == neg-entropy")


def test_criterion_11_prr_anchors():
    rng = np.random.default_rng(777)
    oracle_exact = True
    for _ in range(20):
        n = int(rng.integers(50, 2000))
        errors = int(rng.integers(1, n))
        conf = np.concatenate([rng.uniform(0.0, 0.45, size=errors),
                               rng.uniform(0.55, 1.0, size=n - errors)])
        correct = np.concatenate([np.zeros(errors, dtype=bool),
                                  np.ones(n - errors, dtype=bool)])
        shuffle = rng.permutation(n)
        value = met.prr(_records(conf[shuffle], correct[shuffle]))
        oracle_exact &= value == 100.0

    values = []
    for seed in range(20):
        trial_rng = np.random.default_rng(9000 + seed)
        n = 10_000
        conf = trial_rng.random(n)
        correct = trial_rng.random(n) < trial_rng.uniform(0.2, 0.9)
        if correct.all():
            correct[0] = False
        if not correct.any():
            correct[0] = True
        values.append(met.prr(_records(conf, correct)))
    mean = float(np.mean(values))
    ok = oracle_exact and abs(mean) <= 3.0
    _verdict(11, ok, f"oracle ordering == 100.0 exactly on 20 sets; random-confidence "
                     f"mean prr {mean:+.3f} over 20 x 10k records (need within +-3)")


def test_criterion_12_reports_byte_identical(ladder_manifest, tmp_path, capsys):
    manifest_path = ladder_manifest.root / "manifest.json"
    outputs = []
    for tag, workers in (("first", "1"), ("again", "1"), ("pooled", "4")):
        json_path = tmp_path / f"{tag}.json"
        csv_path = tmp_path / f"{tag}.csv"
        code = main(["eval", "--manifest", str(manifest_path),
                     "--out", str(json_path), "--csv-out", str(csv_path),
                     "--workers", workers, "--seed", "5"])
        assert code == 0
        outputs.append((json_path.read_bytes(), csv_path.read_bytes()))
    capsys.readouterr()
    ok = outputs[0] == outputs[1] == outputs[2]
    _verdict(12, ok, "json and csv reports byte-identical across a repeated run "
                     "and worker counts {1, 4}")
