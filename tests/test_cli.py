"""Command-line interface: subcommands, option layering, exit codes."""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from relikit import cli, evaluate, mlp
from relikit.calibration import (
    METHODS,
    ClusterTemperatureModel,
    GlobalTemperature,
    TemperatureRegressor,
    load_calibrator,
)
from relikit.cli import main
from relikit.errors import NumericalError
from relikit.manifest import check_entry, load_manifest
from relikit.synth import DomainSpec, SynthConfig, config_to_json, generate_benchmark
from relikit.tensor_io import (
    MAGIC, read_labels, read_logits, write_feature, write_image, write_labels, write_logits, write_mask,
)
from relikit.tensors import ImageTensor, LabelMap, LogitTensor


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """A small two-domain benchmark with its manifest path."""
    config = SynthConfig(
        domains=(DomainSpec("id", 1.0, 0.0, (0.0,)), DomainSpec("warm", 2.0, 0.05, (4.0,))),
        height=24, width=24, calibration_images=2, test_images=2, seed=11,
    )
    return generate_benchmark(config, tmp_path_factory.mktemp("bench"))


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


_WRITERS = {
    "logits": lambda path, data: write_logits(path, LogitTensor(data)),
    "labels": lambda path, data: write_labels(path, LabelMap(data), 5),
    "feature": write_feature,
    "image": lambda path, data: write_image(path, ImageTensor(data)),
    "ood_mask": write_mask,
}


def _corrupted(bench, tmp_path, image_id: str, tensors: dict):
    """A copy of ``bench`` whose entry ``image_id`` has each slot of ``tensors`` rewritten.

    None truncates the slot's file by 4 bytes; an ``ood_mask`` is added to the entry.
    """
    root = tmp_path / "bench"
    shutil.copytree(bench.parent, root)
    raw = json.loads(bench.read_text())
    entry = next(e for e in raw["entries"] if e["image_id"] == image_id)
    for slot, data in tensors.items():
        path = root / entry.setdefault(slot, f"data/{image_id}.mask.bin")
        if data is None:
            path.write_bytes(path.read_bytes()[:-4])
        else:
            _WRITERS[slot](path, data)
    (root / "manifest.json").write_text(json.dumps(raw))
    return root / "manifest.json"


# One corrupted calibration entry per violation kind: the tensors written over
# id-cal-001's, and the FAIL prefixes validate prints for them, in order.
_VIOLATIONS = {
    "classes": ({"logits": np.zeros((24, 24, 6), np.float32)},
                ["data/id-cal-001.logits.bin [classes]"]),
    "labels_shape": ({"labels": np.zeros((4, 16), np.uint16)},
                     ["data/id-cal-001.labels.bin [shape]"]),
    "label_values": ({"labels": np.full((24, 24), 7, np.uint16)},
                     ["data/id-cal-001.labels.bin [values]"]),
    "image_shape": ({"image": np.zeros((4, 16, 8), np.float32)},
                    ["data/id-cal-001.image.bin [shape]"]),
    "mask_shape": ({"ood_mask": np.zeros((4, 16), bool)},
                   ["data/id-cal-001.mask.bin [shape]"]),
    # the cross-entry checks name the first file seen, id-cal-000's
    "feature_width": ({"feature": np.zeros(2, np.float32)},
                      ["data/id-cal-000.feature.bin [width]"]),
    "image_channels": ({"image": np.zeros((24, 24, 5), np.float32)},
                       ["data/id-cal-000.image.bin [channels]"]),
    "truncated": ({"labels": None},
                  ["data/id-cal-001.labels.bin [format]"]),
    "two_in_one_entry": ({"logits": np.zeros((24, 24, 6), np.float32), "labels": np.zeros((4, 16), np.uint16)},
                         ["data/id-cal-001.logits.bin [classes]", "data/id-cal-001.labels.bin [shape]"]),
}


class TestParsing:
    def test_no_command_is_usage_error(self, capsys):
        code, _, err = _run(capsys, [])
        assert code == 1 and "error:" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = _run(capsys, ["theorem", "--frobnicate"])
        assert code == 1 and "error:" in err

    def test_bad_choice_is_usage_error(self, bench, capsys, tmp_path):
        code, _, err = _run(capsys, [
            "fit", "--manifest", str(bench), "--out", str(tmp_path / "c.json"),
            "--method", "nope",
        ])
        assert code == 1 and "error:" in err


    @pytest.mark.parametrize("argv, exit_code", [
        (["eval", "--manifest", "{bench}", "--calibrator", "{bad}"], 2),
        (["eval", "--config", "{bad}"], 1),
        (["synth", "--config", "{bad}", "--out", "{tmp}/bench"], 1),
        (["validate", "{bad}"], 2),
    ])
    def test_json_input_that_is_not_utf8_is_one_error_line(self, bench, capsys, tmp_path, argv, exit_code):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b"\xe9")
        code, _, err = _run(capsys, [arg.format(bench=bench, bad=bad, tmp=tmp_path) for arg in argv])
        assert code == exit_code and _one_error_line(err)
        assert f"{bad}: " in err and "is not valid JSON" in err and "utf-8" in err


class TestValidate:
    def test_clean_benchmark_passes(self, bench, capsys):
        code, out, _ = _run(capsys, ["validate", str(bench)])
        assert code == 0
        assert out.startswith("OK 8 entries, classes=5")
        assert "domains=id,warm" in out

    def test_corrupt_tensor_is_listed(self, bench, capsys):
        target = bench.parent / "data" / "id-cal-000.logits.bin"
        original = target.read_bytes()
        try:
            target.write_bytes(original[: len(original) // 2])
            code, out, _ = _run(capsys, ["validate", str(bench)])
        finally:
            target.write_bytes(original)
        assert code == 2
        assert "FAIL data/id-cal-000.logits.bin [format]" in out
        assert "violation(s)" in out

    @pytest.mark.parametrize("kind", list(_VIOLATIONS))
    def test_every_violation_is_listed(self, bench, capsys, tmp_path, kind):
        tensors, prefixes = _VIOLATIONS[kind]
        code, out, err = _run(capsys, ["validate", str(_corrupted(bench, tmp_path, "id-cal-001", tensors))])
        assert code == 2 and err == ""
        lines = out.splitlines()
        assert [line.partition("] ")[0] + "]" for line in lines[:-1]] == [f"FAIL {p}" for p in prefixes]
        assert lines[-1] == f"{len(prefixes)} violation(s) in 8 entries"

    @pytest.mark.parametrize("kind", list(_VIOLATIONS))
    def test_fit_and_eval_stop_at_the_first_listed_violation(self, bench, capsys, tmp_path, kind):
        # each command reads the corrupted calibration entry's slot
        command = {
            "image_shape": ["fit", "--method", "lts", "--epochs", "1"],
            "image_channels": ["fit", "--method", "lts", "--epochs", "1"],
            "feature_width": ["fit", "--method", "cluster_ts", "--k", "2"],
        }.get(kind, ["eval", "--split", "calibration"])
        manifest = str(_corrupted(bench, tmp_path, "id-cal-001", _VIOLATIONS[kind][0]))
        _, out, _ = _run(capsys, ["validate", manifest])
        code, _, err = _run(capsys, [*command, "--manifest", manifest, "--out", str(tmp_path / "out.json")])
        assert (code, err) == (2, f"error: {out.splitlines()[0].partition('] ')[2]}\n")

    @pytest.mark.parametrize("kind, tensors, expected", [
        ("clean", {}, ["id-cal-000", "id-cal-001", "warm-cal-000", "warm-cal-001"]),
        ("truncated", {"feature": None}, ["id-cal-000", "id-cal-001"]),
        ("width", {"feature": np.zeros(2, np.float32)}, ["id-cal-000", "id-cal-001"]),
        ("missing", {}, ["id-cal-000"]),
    ])
    def test_cluster_fit_reads_each_feature_once_through_check_entry(self, bench, capsys, tmp_path, monkeypatch,
                                                                     kind, tensors, expected):
        manifest = _corrupted(bench, tmp_path, "id-cal-001", tensors)
        if kind == "missing":
            raw = json.loads(manifest.read_text())
            del next(e for e in raw["entries"] if e["image_id"] == "id-cal-001")["feature"]
            manifest.write_text(json.dumps(raw))
        validate_code, out, _ = _run(capsys, ["validate", str(manifest)])
        checked, files = [], []

        def counting_check(dataset, entry, read, seen, slots):
            if "feature" in slots:
                checked.append(entry.image_id)
            return check_entry(dataset, entry, read, seen, slots)

        read_feature = cli.tensor_io.read_feature
        monkeypatch.setattr("relikit.manifest.check_entry", counting_check)
        monkeypatch.setattr(cli.tensor_io, "read_feature", lambda path: files.append(path) or read_feature(path))
        code, _, err = _run(capsys, ["fit", "--method", "cluster_ts", "--k", "2", "--manifest", str(manifest),
                                     "--out", str(tmp_path / "out.json")])
        assert checked == expected
        assert files == [str(manifest.parent / "data" / f"{image_id}.feature.bin") for image_id in expected]
        if kind == "clean":
            assert (validate_code, code, err) == (0, 0, "")
        elif kind == "missing":  # an optional slot left out is no violation, but cluster fitting needs it
            assert validate_code == 0 and out.startswith("OK 8 entries")
            assert (code, err) == (2, "error: id-cal-001: entry has no feature vector\n")
        else:
            first = {"truncated": "data/id-cal-001.feature.bin [format] ",
                     "width": "data/id-cal-000.feature.bin [width] "}[kind]
            line = out.splitlines()[0]
            assert validate_code == 2 and line.startswith(f"FAIL {first}")
            assert (code, err) == (2, f"error: {line.partition('] ')[2]}\n")

    def test_missing_manifest_is_data_error(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["validate", str(tmp_path / "absent.json")])
        assert code == 2 and "error:" in err

    def test_slot_name_the_os_refuses_is_a_missing_file(self, bench, capsys, tmp_path):
        # a 5000-character name makes stat fail with ENAMETOOLONG, not ENOENT
        raw = json.loads(bench.read_text())
        raw["entries"][0]["logits"] = "x" * 5000
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(raw))
        code, _, err = _run(capsys, ["validate", str(manifest)])
        assert code == 2 and _one_error_line(err)
        assert "references missing logits file" in err


class TestFit:
    def test_global_ts_writes_artifact(self, bench, capsys, tmp_path):
        out = tmp_path / "ts.json"
        code, text, _ = _run(capsys, ["fit", "--manifest", str(bench), "--out", str(out)])
        assert code == 0
        assert "temperature:" in text and f"wrote {out}" in text
        assert isinstance(load_calibrator(out), GlobalTemperature)

    @pytest.mark.parametrize("method", ["cluster_ts", "class_cluster_ts"])
    def test_cluster_methods(self, bench, capsys, tmp_path, method):
        out = tmp_path / f"{method}.json"
        code, text, _ = _run(capsys, [
            "fit", "--manifest", str(bench), "--out", str(out),
            "--method", method, "--k", "2",
        ])
        assert code == 0 and "cluster 1:" in text
        model = load_calibrator(out)
        assert isinstance(model, ClusterTemperatureModel) and model.clusters == 2

    def test_lts(self, bench, capsys, tmp_path):
        out = tmp_path / "lts.json"
        code, text, _ = _run(capsys, [
            "fit", "--manifest", str(bench), "--out", str(out),
            "--method", "lts", "--epochs", "2", "--feature-mode", "image",
            "--domain-weight", "id=1.0", "--domain-weight", "warm=2.0",
        ])
        assert code == 0 and "training loss:" in text
        regressor = load_calibrator(out)
        assert isinstance(regressor, TemperatureRegressor)
        assert regressor.feature_mode.value == "image"

    @pytest.mark.parametrize("grid", [(24, 24), (12, 12)], ids=["one_batch", "two_batches"])
    def test_lts_on_disagreeing_image_channels_is_data_error(self, bench, capsys, tmp_path, grid):
        # on a grid of its own, id-cal-001 is a batch of its own
        tensors = {"logits": np.zeros((*grid, 5), np.float32), "labels": np.zeros(grid, np.uint16),
                   "image": np.zeros((*grid, 5), np.float32)}
        manifest = _corrupted(bench, tmp_path, "id-cal-001", tensors)
        out = tmp_path / "lts.json"
        code, _, err = _run(capsys, ["fit", "--manifest", str(manifest), "--method", "lts", "--epochs", "1",
                                     "--out", str(out)])
        assert code == 2 and _one_error_line(err)
        assert "image channel counts disagree" in err
        assert "8 in data/id-cal-000.image.bin, 5 in data/id-cal-001.image.bin" in err
        assert not out.exists()

    def test_domain_weight_for_no_calibration_domain_is_usage_error(self, ladder_manifest, capsys, tmp_path):
        fit = ["fit", "--manifest", str(ladder_manifest.root / "manifest.json"), "--method", "lts",
               "--epochs", "1", "--pixels-per-image", "200"]
        typo = tmp_path / "typo.json"
        code, _, err = _run(capsys, fit + ["--out", str(typo), "--domain-weight", "idd=0.5"])
        assert code == 1 and err.count("\n") == 1 and err.startswith("error: ")
        assert "'idd'" in err and "id, mild, strong" in err
        assert not typo.exists()
        out = tmp_path / "mild.json"
        code, _, err = _run(capsys, fit + ["--out", str(out), "--domain-weight", "mild=0.5"])
        assert code == 0 and err == ""
        assert isinstance(load_calibrator(out), TemperatureRegressor)

    def test_negative_domain_weight_is_rejected_before_any_read(self, bench, capsys, tmp_path, monkeypatch):
        reads = []
        read_logits = cli.tensor_io.read_logits
        monkeypatch.setattr(cli.tensor_io, "read_logits", lambda path: reads.append(path) or read_logits(path))
        out = tmp_path / "lts.json"
        code, _, err = _run(capsys, [
            "fit", "--manifest", str(bench), "--out", str(out), "--method", "lts",
            "--domain-weight", "id=-1",
        ])
        assert code == 1 and err.count("\n") == 1 and err.startswith("error: ")
        assert "non-negative" in err
        assert not out.exists() and reads == []

    def test_missing_out_is_usage_error(self, bench, capsys):
        code, _, err = _run(capsys, ["fit", "--manifest", str(bench)])
        assert code == 1 and "--out" in err

    def test_out_under_missing_directory_is_usage_error(self, bench, capsys, tmp_path, monkeypatch):
        reads = []
        read_logits = cli.tensor_io.read_logits
        monkeypatch.setattr(cli.tensor_io, "read_logits", lambda path: reads.append(path) or read_logits(path))
        out = tmp_path / "absent" / "c.json"
        code, text, err = _run(capsys, ["fit", "--manifest", str(bench), "--out", str(out)])
        assert code == 1 and _one_error_line(err)
        assert f"cannot write {out}" in err
        assert reads == [] and "temperature:" not in text

    def test_zero_weight_minibatch_is_skipped(self, bench, capsys, tmp_path):
        # one-pixel batches from the zero-weight domain have no gradient and no loss mass
        out = tmp_path / "lts.json"
        code, text, err = _run(capsys, [
            "fit", "--manifest", str(bench), "--out", str(out), "--method", "lts", "--epochs", "2",
            "--batch-pixels", "1", "--pixels-per-image", "20", "--domain-weight", "id=0",
        ])
        assert code == 0 and err == ""
        assert "training loss:" in text
        assert isinstance(load_calibrator(out), TemperatureRegressor)

    def test_diverging_lts_fit_exits_3(self, bench, capsys, tmp_path, monkeypatch):
        # the last step's NaN gradients leave every parameter NaN but the last curve value finite
        real = mlp.loss_and_grads
        losses = []

        def last_step_diverges(*args):
            loss, grads, t = real(*args)
            losses.append(loss)
            if len(losses) == 2:
                grads = grads.from_vector(np.full(grads.to_vector().size, np.nan))
            return loss, grads, t

        monkeypatch.setattr(mlp, "loss_and_grads", last_step_diverges)
        out = tmp_path / "lts.json"
        code, _, err = _run(capsys, [
            "fit", "--manifest", str(bench), "--out", str(out), "--method", "lts", "--epochs", "2",
            "--pixels-per-image", "20", "--batch-pixels", "100000",
        ])
        assert len(losses) == 2 and np.isfinite(losses).all()
        assert code == 3 and _one_error_line(err)
        assert "diverged" in err
        assert not out.exists()

    def test_fit_pinned_to_a_bound_warns_once_per_kind(self, bench, capsys, tmp_path):
        # every pixel's label logit is its largest, so the NLL keeps falling as T -> 0
        rng = np.random.default_rng(3)
        entries = []
        for i, split in enumerate(["calibration"] * 4 + ["test"]):
            labels = rng.integers(0, 3, (8, 8)).astype(np.uint16)
            logits = rng.normal(0.0, 0.5, (8, 8, 3)) + 4.0 * (np.arange(3) == labels[..., None])
            files = {slot: f"e{i}.{slot}.bin" for slot in ("logits", "labels", "feature")}
            write_logits(tmp_path / files["logits"], LogitTensor(logits.astype(np.float32)))
            write_labels(tmp_path / files["labels"], LabelMap(labels), 3)
            write_feature(tmp_path / files["feature"], np.array([float(i % 2), 0.0], np.float32))
            entries.append({"image_id": f"e{i}", "split": split, "domain": "all", **files})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"classes": 3, "ignore_value": 255, "entries": entries}))
        fit = ["fit", "--manifest", str(manifest)]
        code, text, err = _run(capsys, fit + ["--out", str(tmp_path / "ts.json")])
        assert code == 0 and "temperature: 0.050000" in text and "warning" not in text
        assert err == "warning: the temperature is pinned to a bound of [0.05, 20]\n"
        code, text, err = _run(capsys, fit + ["--method", "class_cluster_ts", "--k", "2",
                                              "--out", str(tmp_path / "cc.json")])
        assert code == 0 and "warning" not in text
        assert err == ("warning: the fallback temperature is pinned to a bound of [0.05, 20]\n"
                       "warning: 6 of 6 cell temperatures are pinned to a bound of [0.05, 20]\n")
        # a fit inside the bounds warns of nothing
        code, _, err = _run(capsys, ["fit", "--manifest", str(bench), "--method", "cluster_ts", "--k", "2",
                                     "--out", str(tmp_path / "c.json")])
        assert code == 0 and err == ""

    def test_missing_feature_vector_is_one_message_in_fit_and_eval(self, bench, capsys, tmp_path):
        artifact = tmp_path / "cluster.json"
        assert main(["fit", "--manifest", str(bench), "--method", "cluster_ts", "--k", "2",
                     "--out", str(artifact)]) == 0
        root = tmp_path / "bench"
        shutil.copytree(bench.parent, root)
        raw = json.loads(bench.read_text())
        for entry in raw["entries"]:
            if entry["image_id"] in ("id-cal-001", "id-test-001"):
                del entry["feature"]
        (root / "manifest.json").write_text(json.dumps(raw))
        capsys.readouterr()
        manifest = str(root / "manifest.json")
        fit_code, _, fit_err = _run(capsys, ["fit", "--manifest", manifest, "--method", "cluster_ts", "--k", "2",
                                             "--out", str(tmp_path / "again.json")])
        eval_code, _, eval_err = _run(capsys, ["eval", "--manifest", manifest, "--calibrator", str(artifact),
                                               "--out", str(tmp_path / "report.json")])
        assert fit_code == eval_code == 2 and _one_error_line(fit_err) and _one_error_line(eval_err)
        assert fit_err == "error: id-cal-001: entry has no feature vector\n"
        assert fit_err.replace("id-cal-001", "") == eval_err.replace("id-test-001", "")

    def test_malformed_domain_weight(self, bench, capsys, tmp_path):
        code, _, err = _run(capsys, [
            "fit", "--manifest", str(bench), "--out", str(tmp_path / "x.json"),
            "--method", "lts", "--domain-weight", "id",
        ])
        assert code == 1 and "tag=number" in err


# Edge values for the config property test: every JSON type, and numbers around the usual bounds.
_EDGE_VALUES = (-1, 0, 1.0, 1.5, True, "abc", None, [1], {"a": 1})


class TestConfigFile:
    def test_flags_override_config_file(self, bench, capsys, tmp_path):
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({
            "manifest": str(bench), "method": "cluster_ts", "k": 2,
        }))
        out = tmp_path / "model.json"
        code, _, _ = _run(capsys, [
            "fit", "--config", str(config), "--out", str(out), "--k", "3",
        ])
        assert code == 0
        assert load_calibrator(out).clusters == 3  # flag beat the file

    def test_config_fills_missing_flags(self, bench, capsys, tmp_path):
        config = tmp_path / "eval.json"
        out = tmp_path / "report.json"
        config.write_text(json.dumps({
            "manifest": str(bench), "out": str(out), "metrics": ["ece"], "seed": 5,
        }))
        code, _, _ = _run(capsys, ["eval", "--config", str(config)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["meta"]["seed"] == 5
        assert report["meta"]["metrics"] == ["ece"]

    def test_unknown_config_key_rejected(self, bench, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"manifest": str(bench), "speling": 1}))
        code, _, err = _run(capsys, ["eval", "--config", str(config)])
        assert code == 1 and "unknown config keys" in err

    def test_config_must_be_object(self, capsys, tmp_path):
        config = tmp_path / "list.json"
        config.write_text("[1]")
        code, _, err = _run(capsys, ["eval", "--config", str(config)])
        assert code == 1 and "JSON object" in err

    @pytest.mark.parametrize("command, key, value", [
        ("eval", "bins", "abc"),
        ("fit", "k", "three"),
        ("fit", "learning_rate", [0.1]),
        ("eval", "metrics", 5),
        ("eval", "metrics", ["ece", 3]),
        ("eval", "manifest", 5),
        ("eval", "calibrator", 5),
        ("eval", "out", 5),
        ("eval", "csv_out", 7),
        ("eval", "bins_out", 7),
        ("eval", "id_domain", ["x"]),
        ("eval", "split", 5),
        ("fit", "manifest", 5),
        ("fit", "out", 5),
        ("fit", "split", 5),
        ("eval", "bins", 2.7),
        ("eval", "seed", True),
        ("fit", "epochs", 1.5),
        ("fit", "t_floor", True),
        ("eval", "split", "train"),
        ("fit", "split", "train"),
        ("fit", "t_floor", 1.0),
        ("fit", "t_floor", -0.5),
        ("fit", "hidden_width", 0),
        ("fit", "batch_pixels", 0),
        ("fit", "epochs", -1),
    ])
    def test_bad_config_value_is_usage_error(self, bench, capsys, tmp_path, command, key, value):
        config = tmp_path / "bad.json"
        options = {"manifest": str(bench)}
        if command == "fit":
            options.update(out=str(tmp_path / "c.json"),
                           method="cluster_ts" if key == "k" else "lts")
        options[key] = value
        config.write_text(json.dumps(options))
        code, _, err = _run(capsys, [command, "--config", str(config)])
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"{key.replace('_', '-')} must be" in err and repr(value) in err

    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from([("fit", key) for key in sorted(cli._FIT_OPTIONS)]
                           + [("eval", key) for key in sorted(cli._EVAL_OPTIONS)]),
           st.sampled_from(_EDGE_VALUES))
    @example(("fit", "t_floor"), 1.0)
    @example(("fit", "domain_weights"), {"id": 0, "warm": 0})
    def test_any_config_value_ends_in_an_exit_code(self, bench, capsys, tmp_path, monkeypatch,
                                                    command_key, value):
        command, key = command_key
        monkeypatch.chdir(tmp_path)  # a path-valued draw such as "abc" writes here
        if command == "fit":
            # small enough that any draw trains in milliseconds
            options = {"out": "c.json", "method": "cluster_ts" if key == "k" else "lts", "k": 2,
                       "epochs": 1, "hidden_width": 2, "batch_pixels": 64, "pixels_per_image": 50}
        else:
            options = {"out": "r.json", "pixels_per_image": 50}
        options["manifest"] = str(bench)
        options[key] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(options))
        code, _, err = _run(capsys, [command, "--config", str(config)])
        assert code in (0, 1, 2, 3)
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1)

    @pytest.mark.parametrize("command, key", [
        ("fit", "manifest"), ("fit", "out"), ("eval", "manifest"), ("eval", "calibrator"),
    ])
    def test_nul_in_path_option_is_usage_error(self, bench, capsys, tmp_path, command, key):
        options = {"manifest": str(bench)}
        if command == "fit":
            options["out"] = str(tmp_path / "c.json")
        options[key] = str(tmp_path / "a\u0000b")
        config = tmp_path / "nul.json"
        config.write_text(json.dumps(options))
        code, _, err = _run(capsys, [command, "--config", str(config)])
        assert code == 1 and _one_error_line(err)
        assert f"{key} must not contain a NUL character" in err
        assert not (tmp_path / "c.json").exists()

    def test_unknown_method_names_every_method(self, bench, capsys, tmp_path):
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({"manifest": str(bench), "out": str(tmp_path / "c.json"), "method": "magic"}))
        code, _, err = _run(capsys, ["fit", "--config", str(config)])
        assert code == 1 and _one_error_line(err)
        assert "'magic'" in err and "ts, cluster_ts, class_cluster_ts, lts" in err
        assert not (tmp_path / "c.json").exists()

    def test_bad_config_choice_is_usage_error(self, bench, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"manifest": str(bench), "score": "loudest"}))
        code, _, err = _run(capsys, ["eval", "--config", str(config)])
        assert code == 1 and "score must be one of max_prob, neg_entropy" in err

    def test_option_tables_hold_every_config_key(self):
        assert list(cli._FIT_OPTIONS) == [
            "manifest", "out", "method", "split", "seed", "pixels_per_image", "k", "feature_mode",
            "hidden_width", "t_floor", "learning_rate", "epochs", "batch_pixels", "domain_weights"]
        assert list(cli._EVAL_OPTIONS) == [
            "manifest", "calibrator", "split", "score", "bins", "pixels_per_image", "seed", "id_domain",
            "metrics", "workers", "out", "csv_out", "bins_out"]

    @pytest.mark.parametrize("manifest", ["bench", "missing"])
    @pytest.mark.parametrize("command, key, value, expected", [
        *[("fit", key, value, "an integer") for key in ("seed", "pixels_per_image", "k", "hidden_width",
                                                        "epochs", "batch_pixels") for value in ("x", "2.7")],
        *[("fit", key, "x", "a number") for key in ("t_floor", "learning_rate")],
        *[("eval", key, value, "an integer") for key in ("bins", "pixels_per_image", "seed", "workers")
          for value in ("x", "2.7")],
    ])
    def test_flag_and_config_value_are_cast_alike_before_any_read(self, bench, capsys, tmp_path, manifest,
                                                                  command, key, value, expected):
        # fit's default method, ts, reads none of k and the LTS options, which are cast all the same
        path = str(bench) if manifest == "bench" else str(tmp_path / "missing.json")
        base = [command, "--manifest", path] + (["--out", str(tmp_path / "c.json")] if command == "fit" else [])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        flag_run = _run(capsys, base + [f"--{key.replace('_', '-')}", value])
        assert flag_run == _run(capsys, base + ["--config", str(config)])
        assert flag_run == (1, "", f"error: {key.replace('_', '-')} must be {expected}, got {value!r}\n")

    @pytest.mark.parametrize("command, key", [
        ("fit", "method"), ("fit", "split"), ("fit", "feature_mode"), ("eval", "split"), ("eval", "score"),
    ])
    def test_bad_choice_is_usage_error_before_any_read(self, capsys, tmp_path, command, key):
        base = [command, "--manifest", str(tmp_path / "missing.json"), "--out", str(tmp_path / "c.json")]
        code, out, err = _run(capsys, base + [f"--{key.replace('_', '-')}", "loudest"])
        assert (code, out) == (1, "") and err.startswith(f"error: argument --{key.replace('_', '-')}: invalid choice")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: "loudest"}))
        code, out, err = _run(capsys, base + ["--config", str(config)])
        assert (code, out) == (1, "") and _one_error_line(err) and "'loudest'" in err

    def test_config_value_for_an_option_the_method_does_not_read_is_cast(self, bench, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"manifest": str(bench), "out": str(tmp_path / "c.json"),
                                      "method": "ts", "k": "three"}))
        code, out, err = _run(capsys, ["fit", "--config", str(config)])
        assert (code, out, err) == (1, "", "error: k must be an integer, got 'three'\n")
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("command, key, message", [
        ("fit", "method", "unknown method None; choose one of ts, cluster_ts, class_cluster_ts, lts"),
        *[(command, "split", "split must be one of calibration, test, got None") for command in ("fit", "eval")],
        *[("fit", key, f"{key.replace('_', '-')} must be an integer, got None")
          for key in ("seed", "pixels_per_image", "k", "hidden_width", "epochs", "batch_pixels")],
        *[("fit", key, f"{key.replace('_', '-')} must be a number, got None") for key in ("t_floor", "learning_rate")],
        ("fit", "feature_mode", "feature-mode must be one of logits, image, both, got None"),
        ("eval", "score", "score must be one of max_prob, neg_entropy, got None"),
        *[("eval", key, f"{key.replace('_', '-')} must be an integer, got None")
          for key in ("bins", "pixels_per_image", "seed")],
        # a null leaves these unset, as an absent key does
        *[("fit", key, None) for key in ("manifest", "out", "domain_weights")],
        *[("eval", key, None) for key in ("manifest", "calibrator", "id_domain", "out", "csv_out", "bins_out",
                                          "metrics", "workers")],
    ])
    def test_json_null(self, bench, capsys, tmp_path, monkeypatch, command, key, message):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("RELIKIT_WORKERS", raising=False)
        if command == "fit":
            options = {"manifest": str(bench), "out": "c.json", "method": "lts", "epochs": 1, "hidden_width": 2,
                       "pixels_per_image": 50}
        else:
            options = {"manifest": str(bench), "out": "r.json", "pixels_per_image": 50}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**options, key: None}))
        null_run = _run(capsys, [command, "--config", str(config)])
        if message is not None:
            assert null_run == (1, "", f"error: {message}\n")
            return
        options.pop(key, None)
        config.write_text(json.dumps(options))
        assert null_run == _run(capsys, [command, "--config", str(config)])
        if key == "manifest" or command == "fit" and key == "out":
            assert null_run == (1, "", f"error: missing required option --{key}\n")
        else:
            assert null_run[0] == 0
        if key == "workers":  # $RELIKIT_WORKERS still applies
            monkeypatch.setenv("RELIKIT_WORKERS", "zero")
            config.write_text(json.dumps({**options, key: None}))
            assert _run(capsys, [command, "--config", str(config)]) == (
                1, "", "error: workers must be an integer, got 'zero'\n")


class TestEval:
    def test_stdout_json_by_default(self, bench, capsys):
        code, out, _ = _run(capsys, ["eval", "--manifest", str(bench), "--seed", "2"])
        assert code == 0
        report = json.loads(out)
        assert set(report["domains"]) == {"id", "warm"}
        assert report["meta"]["id_domain"] == "id"

    def test_output_files_and_summary(self, bench, capsys, tmp_path):
        out = tmp_path / "r.json"
        csv_out = tmp_path / "r.csv"
        bins_out = tmp_path / "r.bins.json"
        code, text, _ = _run(capsys, [
            "eval", "--manifest", str(bench), "--out", str(out),
            "--csv-out", str(csv_out), "--bins-out", str(bins_out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["domains"]
        assert csv_out.read_text().startswith("domain,metric,value\n")
        assert set(json.loads(bins_out.read_text())) == {"id", "warm"}
        assert "id:  miou" in text and "ood_auroc[warm vs id]:" in text

    def test_bins_above_the_bound_stop_before_any_tensor_is_read(self, bench, capsys, tmp_path, monkeypatch):
        """``--bins 4000000`` or its config value is one usage error line within a second; a
        bin table of that size would take seconds and gigabytes."""
        import time

        from relikit import tensor_io

        def no_read(*args, **kwargs):
            raise AssertionError("a tensor was read")

        monkeypatch.setattr(tensor_io, "_read_raw", no_read)
        config = tmp_path / "bins.json"
        config.write_text('{"bins": 4000000}')
        for argv in (["--bins", "4000000"], ["--config", str(config)]):
            start = time.perf_counter()
            code, out, err = _run(capsys, ["eval", "--manifest", str(bench), *argv])
            assert time.perf_counter() - start < 1.0
            assert (code, out, err) == (1, "", f"error: bins must be <= {evaluate.MAX_BINS}, got 4000000\n")

    @pytest.mark.parametrize("score", ["max_prob", "neg_entropy"])
    def test_stdout_characterized_byte_for_byte(self, holdout_manifest, capsys, tmp_path, score):
        """The ``wrote`` lines in --out, --csv-out, --bins-out order whatever the flag order, one
        summary line per domain in tag order, then the image- and pixel-level OOD lines; with no
        output file, stdout is the JSON report's bytes."""
        base = ["eval", "--manifest", str(holdout_manifest.root / "manifest.json"),
                "--score", score, "--seed", "3", "--pixels-per-image", "200"]

        def pct(value):
            return f"{100.0 * value:.2f}%"

        for metrics, fields in ((None, ("miou", "ece", "ada_ece", "ks_error", "prr")),
                                ("prr,ks_error,pixel_ood_auroc", ("ks_error", "prr"))):
            selected = [] if metrics is None else ["--metrics", metrics]
            paths = {flag: tmp_path / f"{metrics}{suffix}"
                     for flag, suffix in (("--out", ".json"), ("--csv-out", ".csv"), ("--bins-out", ".bins"))}
            flags = [arg for flag in ("--bins-out", "--out", "--csv-out") for arg in (flag, str(paths[flag]))]
            code, out, err = _run(capsys, base + selected + flags)
            assert code == 0 and err == ""
            report = json.loads(paths["--out"].read_text())
            assert report["pixel_ood_auroc"] and (metrics is not None or report["ood_auroc"])
            lines = [f"wrote {paths[flag]}" for flag in ("--out", "--csv-out", "--bins-out")]
            for tag, stats in sorted(report["domains"].items()):
                assert {"miou", "ece", "ada_ece", "ks_error", "prr"} & stats.keys() == set(fields)
                parts = [f"{tag}:"]
                parts += [f"{label} {pct(stats[key])}" for key, label in
                          (("miou", "miou"), ("ece", "ece"), ("ada_ece", "ada_ece"), ("ks_error", "ks"))
                          if key in fields]
                parts.append(f"prr {stats['prr']:.2f}")
                lines.append("  ".join(parts))
            lines += [f"ood_auroc[{tag} vs id]: {value:.4f}" for tag, value in sorted(report["ood_auroc"].items())]
            lines += [f"pixel_ood_auroc[{tag}]: {value:.4f}"
                      for tag, value in sorted(report["pixel_ood_auroc"].items())]
            assert out == "".join(line + "\n" for line in lines)
            code, out, err = _run(capsys, base + selected)
            assert code == 0 and err == ""
            assert out.encode("utf-8") == paths["--out"].read_bytes()

    def test_unknown_id_domain_is_usage_error_before_any_read(self, bench, capsys, monkeypatch):
        reads = []
        read_logits = cli.tensor_io.read_logits
        monkeypatch.setattr(cli.tensor_io, "read_logits", lambda path: reads.append(path) or read_logits(path))
        code, out, err = _run(capsys, ["eval", "--manifest", str(bench), "--id-domain", "nope"])
        assert (code, out) == (1, "")
        assert err == "error: in-domain tag 'nope' has no images in split 'test'\n"
        assert reads == []

    def test_worker_flag_does_not_change_bytes(self, bench, capsys, tmp_path):
        outs = []
        for workers, name in ((1, "a.json"), (4, "b.json")):
            path = tmp_path / name
            code, _, _ = _run(capsys, [
                "eval", "--manifest", str(bench), "--out", str(path),
                "--workers", str(workers), "--seed", "9",
            ])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_workers_are_capped_at_the_cpu_count(self, bench, capsys, tmp_path, monkeypatch):
        built = []

        class Recording(evaluate.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                built.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(evaluate, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr("relikit.manifest.BATCH_PIXELS", 1)  # each of the 4 test images is a task of its own
        outs = []
        for workers in ("1", "1000"):
            path = tmp_path / f"w{workers}.json"
            code, _, _ = _run(capsys, ["eval", "--manifest", str(bench), "--workers", workers, "--out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        assert built == [2] and outs[0] == outs[1]

    @pytest.mark.parametrize("flag", ["--out", "--csv-out", "--bins-out"])
    def test_output_under_missing_directory_is_usage_error(self, bench, capsys, tmp_path, flag, monkeypatch):
        reads = []
        read_logits = cli.tensor_io.read_logits
        monkeypatch.setattr(cli.tensor_io, "read_logits", lambda path: reads.append(path) or read_logits(path))
        path = tmp_path / "absent" / "r.out"
        code, _, err = _run(capsys, ["eval", "--manifest", str(bench), "--pixels-per-image", "50",
                                     flag, str(path)])
        assert code == 1 and _one_error_line(err)
        assert f"cannot write {path}" in err
        assert reads == []

    def test_bad_calibrator_artifact_is_data_error(self, bench, capsys, tmp_path):
        artifact = tmp_path / "cluster.json"
        cluster = {"method": "cluster_ts", "centroids": [[0.0], [1.0]], "temperatures": [1.0, 2.0],
                   "fallback_temperature": 1.0, "classes": 5}
        lts = {"method": "lts", "feature_mode": "logits", "input_dim": 5, "hidden_width": 1, "t_floor": 0.05,
               "feature_mean": [0] * 5, "feature_scale": [1] * 5, "w1": [[0] * 5], "b1": [0], "w2": [0], "b2": 0.0}
        for payload, message in [({**cluster, "fallback_temperature": -1.0},
                                  "fallback_temperature must be positive and finite"),
                                 ({**cluster, "centroids": [[0.0], [float("nan")]]}, "centroids must be finite"),
                                 ({"method": "ts", "temperature": True}, "temperature must be a number"),
                                 ({**lts, "t_floor": 5.0}, "t_floor must be in (0, 1)")]:
            artifact.write_text(json.dumps(payload))
            code, _, err = _run(capsys, ["eval", "--manifest", str(bench),
                                         "--calibrator", str(artifact)])
            assert code == 2 and message in err
            assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("method", list(METHODS))
    def test_fitted_artifact_with_a_retyped_key_is_data_error(self, bench, capsys, tmp_path, method):
        artifact = tmp_path / "fitted.json"
        assert _run(capsys, ["fit", "--manifest", str(bench), "--out", str(artifact), "--method", method,
                             "--k", "2", "--epochs", "1"])[0] == 0
        payload = json.loads(artifact.read_text())
        payload[list(METHODS[method].keys)[-1]] = None
        artifact.write_text(json.dumps(payload))
        code, _, err = _run(capsys, ["eval", "--manifest", str(bench), "--calibrator", str(artifact)])
        assert code == 2 and _one_error_line(err)
        assert "malformed calibrator artifact" in err

    def test_cluster_centroid_width_mismatch_is_data_error(self, bench, capsys, tmp_path):
        artifact = tmp_path / "cluster.json"
        assert _run(capsys, ["fit", "--manifest", str(bench), "--out", str(artifact),
                             "--method", "cluster_ts", "--k", "2"])[0] == 0
        payload = json.loads(artifact.read_text())
        payload["centroids"] = [row + [0.0] for row in payload["centroids"]]
        artifact.write_text(json.dumps(payload))
        code, _, err = _run(capsys, ["eval", "--manifest", str(bench),
                                     "--calibrator", str(artifact)])
        assert code == 2
        assert err.count("\n") == 1 and "centroids have" in err

    def test_bins_out_reads_each_test_file_once(self, bench, capsys, tmp_path, monkeypatch):
        from relikit import tensor_io

        reads = []
        original = tensor_io.read_logits

        def counting(path):
            reads.append(str(path))
            return original(path)

        monkeypatch.setattr(tensor_io, "read_logits", counting)
        code, _, _ = _run(capsys, ["eval", "--manifest", str(bench),
                                   "--out", str(tmp_path / "r.json"),
                                   "--bins-out", str(tmp_path / "bins.json")])
        assert code == 0
        test_entries = load_manifest(bench).select(split="test")
        assert len(reads) == len(set(reads)) == len(test_entries)

    @pytest.mark.parametrize("fit_args, optional", [
        (["--method", "ts"], []),
        (["--method", "cluster_ts", "--k", "2"], ["read_feature"]),
        (["--method", "lts", "--feature-mode", "both", "--epochs", "1"], ["read_image"]),
        (["--method", "lts", "--feature-mode", "logits", "--epochs", "1"], []),
    ], ids=["ts", "cluster_ts", "lts-both", "lts-logits"])
    def test_eval_reads_only_what_the_calibrator_uses(self, bench, capsys, tmp_path, monkeypatch,
                                                       fit_args, optional):
        from relikit import tensor_io

        artifact = tmp_path / "calibrator.json"
        assert _run(capsys, ["fit", "--manifest", str(bench), "--out", str(artifact), *fit_args])[0] == 0
        reads = []
        for name in ("read_logits", "read_labels", "read_image", "read_feature", "read_mask"):
            def counting(path, _name=name, _original=getattr(tensor_io, name)):
                reads.append((_name, str(path)))
                return _original(path)
            monkeypatch.setattr(tensor_io, name, counting)
        code, _, _ = _run(capsys, ["eval", "--manifest", str(bench), "--calibrator", str(artifact),
                                   "--out", str(tmp_path / "r.json")])
        assert code == 0
        test_entries = len(load_manifest(bench).select(split="test"))
        wanted = ["read_labels", "read_logits", *optional]
        assert sorted({name for name, _ in reads}) == sorted(wanted)
        assert len(reads) == len(set(reads)) == len(wanted) * test_entries

    def test_unused_broken_image_does_not_stop_eval(self, capsys, tmp_path):
        config = SynthConfig(domains=(DomainSpec("id", 1.0, 0.0, (0.0,)),),
                             height=12, width=12, calibration_images=2, test_images=2, seed=4)
        manifest = generate_benchmark(config, tmp_path / "bench")
        artifacts = {}
        for method, extra in (("ts", []), ("lts", ["--feature-mode", "image", "--epochs", "1"])):
            artifacts[method] = tmp_path / f"{method}.json"
            assert _run(capsys, ["fit", "--manifest", str(manifest), "--out", str(artifacts[method]),
                                 "--method", method, *extra])[0] == 0
        image = load_manifest(manifest).select(split="test")[0].image
        target = manifest.parent / image
        target.write_bytes(target.read_bytes()[:-4])
        assert _run(capsys, ["eval", "--manifest", str(manifest), "--calibrator", str(artifacts["ts"]),
                             "--out", str(tmp_path / "ts-report.json")])[0] == 0
        code, _, err = _run(capsys, ["eval", "--manifest", str(manifest),
                                     "--calibrator", str(artifacts["lts"])])
        assert code == 2 and err.count("\n") == 1 and image in err
        code, out, _ = _run(capsys, ["validate", str(manifest)])
        assert code == 2 and f"FAIL {image} [format]" in out

    def test_bins_out_does_not_depend_on_workers(self, bench, capsys, tmp_path):
        outs = []
        for workers in (1, 2):
            path = tmp_path / f"bins{workers}.json"
            code, _, _ = _run(capsys, ["eval", "--manifest", str(bench), "--seed", "9",
                                       "--workers", str(workers), "--bins-out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_workers_env_variable(self, bench, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RELIKIT_WORKERS", "3")
        out = tmp_path / "env.json"
        code, _, _ = _run(capsys, ["eval", "--manifest", str(bench),
                                   "--out", str(out), "--seed", "9"])
        assert code == 0
        monkeypatch.setenv("RELIKIT_WORKERS", "zero")
        code, _, err = _run(capsys, ["eval", "--manifest", str(bench)])
        assert code == 1 and "workers" in err
        monkeypatch.setenv("RELIKIT_WORKERS", "0")
        code, _, err = _run(capsys, ["eval", "--manifest", str(bench)])
        assert code == 1 and err == "error: workers must be >= 1, got 0\n"

    def test_calibrator_artifact_round_trip(self, bench, capsys, tmp_path):
        artifact = tmp_path / "ts.json"
        assert _run(capsys, ["fit", "--manifest", str(bench), "--out", str(artifact)])[0] == 0
        code, out, _ = _run(capsys, [
            "eval", "--manifest", str(bench), "--calibrator", str(artifact),
            "--metrics", "ece",
        ])
        assert code == 0
        report = json.loads(out)
        assert "ece" in report["domains"]["id"]
        assert "miou" not in report["domains"]["id"]

    def test_metric_error_names_its_domain(self, capsys, tmp_path):
        # every label logit of the clean domain raised by 10: each of its pixels is predicted right,
        # which the data checks accept and prr cannot rank
        config = SynthConfig(classes=3, height=8, width=8, calibration_images=1, test_images=2, seed=5,
                             domains=(DomainSpec("clean", 1.0, 0.0, (0.0,)), DomainSpec("noisy", 2.0, 0.1, (4.0,))))
        path = generate_benchmark(config, tmp_path / "bench")
        manifest = load_manifest(path)
        for entry in manifest.entries:
            if entry.domain == "clean":
                logits = read_logits(manifest.path(entry.logits)).data.copy()
                labels = read_labels(manifest.path(entry.labels)).data
                rows, cols = np.nonzero(labels != manifest.ignore_value)
                logits[rows, cols, labels[rows, cols]] += 10.0
                write_logits(manifest.path(entry.logits), LogitTensor(logits))
        assert _run(capsys, ["validate", str(path)])[0] == 0
        code, out, err = _run(capsys, ["eval", "--manifest", str(path)])
        assert code == 2 and out == ""
        assert err == "error: clean: prr is undefined for all-correct or all-incorrect records\n"

    def test_unknown_metric_is_usage_error(self, bench, capsys):
        code, _, err = _run(capsys, ["eval", "--manifest", str(bench), "--metrics", "f1"])
        assert code == 1 and "unknown metrics" in err


_PREFIX = len(MAGIC) + 4
_ALL_DAMAGE = ("truncate", "flip", "retype", "header_length")


@st.composite
def _damage(draw, size: int, body_len: int, kinds=_ALL_DAMAGE):
    """How to damage a tensor file of ``size`` bytes whose JSON header is ``body_len`` bytes."""
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return kind, draw(st.integers(0, size - 1))
    if kind == "flip":
        return kind, draw(st.integers(0, _PREFIX + body_len - 1)), draw(st.integers(1, 255))
    if kind == "retype":
        return kind, draw(st.sampled_from(["f32", "u16", "f64"])), draw(st.sampled_from(["HWC", "HW", "CHW"]))
    return kind, draw(st.integers(body_len + 1, 2**32 - 1))


def _damaged(blob: bytes, damage) -> bytes:
    """The file truncated, a header byte flipped, a wrong but well-formed dtype or layout
    (payload sized to match), or a header length past the header."""
    kind, *args = damage
    body_len = int.from_bytes(blob[len(MAGIC):_PREFIX], "little")
    if kind == "truncate":
        return blob[:args[0]]
    if kind == "flip":
        at, mask = args
        # JSON whitespace turned into other whitespace leaves the header as it was
        assume(not (blob[at] in b" \t\n\r" and blob[at] ^ mask in b" \t\n\r"))
        return blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:]
    if kind == "retype":
        header = json.loads(blob[_PREFIX:_PREFIX + body_len])
        dtype, layout = args
        assume((dtype, layout) != (header["dtype"], header["layout"]))
        values = header["height"] * header["width"] * (header["classes"] if layout == "HWC" else 1)
        body = json.dumps(dict(header, dtype=dtype, layout=layout)).encode()
        payload = bytes(values * {"f32": 4, "u16": 2, "f64": 8}[dtype])
        return MAGIC + len(body).to_bytes(4, "little") + body + payload
    return MAGIC + args[0].to_bytes(4, "little") + blob[_PREFIX:]


class TestTensorFileFuzz:
    """A damaged tensor file ends `eval` with exit 2 and one `error:` line, never a traceback."""

    @pytest.fixture(scope="class")
    def victim(self, bench, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz") / "bench"
        shutil.copytree(bench.parent, root)
        manifest = load_manifest(root / "manifest.json")
        entry = manifest.select(split="test")[0]
        return root / "manifest.json", manifest.resolve(entry.logits), manifest.resolve(entry.labels)

    def _eval_damaged(self, capsys, victim, path, damage):
        original = path.read_bytes()
        path.write_bytes(_damaged(original, damage))
        try:
            code, _, err = _run(capsys, ["eval", "--manifest", str(victim[0]), "--metrics", "ece",
                                         "--out", str(victim[0].parent / "r.json")])
        finally:
            path.write_bytes(original)
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1

    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_damaged_logits_exit_2(self, capsys, victim, data):
        blob = victim[1].read_bytes()
        damage = data.draw(_damage(len(blob), int.from_bytes(blob[len(MAGIC):_PREFIX], "little")))
        self._eval_damaged(capsys, victim, victim[1], damage)

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_damaged_labels_exit_2(self, capsys, victim, data):
        # no header byte is flipped: a label file's classes field sizes nothing, so a new value is valid
        blob = victim[2].read_bytes()
        damage = data.draw(_damage(len(blob), int.from_bytes(blob[len(MAGIC):_PREFIX], "little"),
                                   ("truncate", "retype", "header_length")))
        self._eval_damaged(capsys, victim, victim[2], damage)

    @pytest.mark.parametrize("command", ["validate", "eval"])
    def test_over_nested_header_exit_2(self, capsys, victim, command):
        # a header nested past the JSON parser's recursion limit, well inside the 1 MiB header cap
        manifest, path = victim[0], victim[1]
        original = path.read_bytes()
        body = b"[" * 50_000 + b"]" * 50_000
        path.write_bytes(MAGIC + len(body).to_bytes(4, "little") + body)
        argv = (["validate", str(manifest)] if command == "validate" else
                ["eval", "--manifest", str(manifest), "--metrics", "ece", "--out", str(manifest.parent / "r.json")])
        try:
            code, out, err = _run(capsys, argv)
        finally:
            path.write_bytes(original)
        message = f"{path}: header is not valid UTF-8 JSON (maximum recursion depth exceeded"
        assert code == 2
        if command == "validate":
            assert err == "" and f"[format] {message}" in out and out.endswith(" violation(s) in 8 entries\n")
        else:
            assert out == "" and _one_error_line(err) and err.startswith(f"error: {message}")


class TestManifestFuzz:
    """A manifest with one key dropped, retyped or reshaped ends validate, fit and eval in an exit code."""

    @pytest.fixture(scope="class")
    def setup(self, bench, tmp_path_factory):
        """A copy of the bench to write mutated manifests into, and an LTS artifact, which reads images."""
        root = tmp_path_factory.mktemp("manifest-fuzz")
        shutil.copytree(bench.parent, root / "bench")
        lts = root / "lts.json"
        assert main(["fit", "--manifest", str(bench), "--method", "lts", "--epochs", "1", "--out", str(lts)]) == 0
        return root / "bench", lts

    @pytest.mark.parametrize("kind", ["drop", "retype", "reshape"])
    @pytest.mark.parametrize("key", ["classes", "ignore_value", "entries", "image_id", "split", "domain",
                                     "logits", "labels", "feature", "image"])
    @settings(max_examples=3, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(index=st.integers(0, 7), value=st.sampled_from(_EDGE_VALUES), as_list=st.booleans())
    def test_mutated_key_ends_in_an_exit_code(self, bench, setup, capsys, tmp_path, key, kind,
                                              index, value, as_list):
        root, lts = setup
        raw = json.loads(bench.read_text())
        owner = raw if key in ("classes", "ignore_value", "entries") else raw["entries"][index]
        original = owner.pop(key)
        if kind == "retype":
            assume(type(value) is not type(original))
            owner[key] = value
        elif kind == "reshape":
            owner[key] = [original] if as_list else {"value": original}
        path = root / "mutated.json"
        path.write_text(json.dumps(raw))
        codes = []
        for argv in (["validate", str(path)],
                     ["fit", "--manifest", str(path), "--method", "cluster_ts", "--k", "2",
                      "--pixels-per-image", "50", "--out", str(tmp_path / "c.json")],
                     ["eval", "--manifest", str(path), "--calibrator", str(lts),
                      "--pixels-per-image", "50", "--out", str(tmp_path / "r.json")]):
            code, out, err = _run(capsys, argv)
            listed = argv[0] == "validate" and out.endswith(" violation(s) in 8 entries\n")
            assert (code, err) == (0, "") or code in (1, 2, 3) and (_one_error_line(err) or listed and err == "")
            codes.append(code)
        # only an optional slot can go: validate accepts that, and fit or eval exit 2 if they need the slot
        if kind == "drop" and key in ("feature", "image"):
            assert codes[0] == 0 and set(codes) <= {0, 2}
        else:
            assert 0 not in codes


class TestSynth:
    def test_builtin_benchmark(self, capsys, tmp_path):
        code, out, _ = _run(capsys, ["synth", "--out", str(tmp_path / "b"), "--seed", "3"])
        assert code == 0
        assert (tmp_path / "b" / "manifest.json").exists()
        assert "id: tau=1" in out and "strong: tau=4" in out

    def test_config_file(self, capsys, tmp_path):
        config = SynthConfig(
            domains=(DomainSpec("solo", 1.5, 0.0, (0.0,)),),
            height=8, width=8, calibration_images=1, test_images=1,
            holdout_classes=(2,),
        )
        path = tmp_path / "synth.json"
        path.write_text(config_to_json(config))
        code, out, _ = _run(capsys, ["synth", "--config", str(path),
                                     "--out", str(tmp_path / "c")])
        assert code == 0
        assert "solo: tau=1.5 (1 calibration + 1 test images)" in out
        assert "holdout classes [2]" in out

    def test_config_and_shift_conflict(self, capsys, tmp_path):
        config = tmp_path / "synth.json"
        config.write_text("{}")
        code, _, err = _run(capsys, ["synth", "--config", str(config),
                                     "--shift", "2.0", "--out", str(tmp_path / "x")])
        assert code == 1 and "--shift" in err

    def test_missing_config_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["synth", "--config", str(tmp_path / "absent.json"),
                                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert err.count("\n") == 1 and "cannot read config file" in err

    @pytest.mark.parametrize("payload", [
        {"seed": "x"},
        {"height": None},
        {"sharpness": [1.0]},
        {"classes": 1e400},
        {"domains": [{"tag": "a", "test_images": "many"}]},
        {"height": 16.9},
        {"seed": True},
        {"domains": [{"tag": "a", "test_images": 2.5}]},
        {"holdout_classes": [True]},
        {"domains": [{"tag": 5}]},
        {"domains": [{"tag": ""}]},
        {"domains": [{"tag": None}]},
        {"domains": [{"tag": ["a"]}]},
    ])
    def test_bad_config_value_is_usage_error(self, capsys, tmp_path, payload):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps(payload))
        code, _, err = _run(capsys, ["synth", "--config", str(config),
                                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert err.count("\n") == 1 and "malformed value" in err
        assert not (tmp_path / "x").exists()

    def test_missing_out(self, capsys):
        code, _, err = _run(capsys, ["synth"])
        assert code == 1 and "--out" in err

    def test_out_the_os_refuses_is_usage_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "bench"
        code, _, err = _run(capsys, ["synth", "--out", str(out)])
        assert code == 1 and _one_error_line(err)
        assert f"cannot write {out}" in err

    @pytest.mark.parametrize("payload, name", [
        ({"holdout_classes": "12"}, "holdout-classes"),
        ({"domains": [{"tag": "a", "feature_offset": "34"}]}, "feature-offset"),
        ({"domains": "id"}, "domains"),
    ])
    def test_list_field_given_a_string_is_usage_error(self, capsys, tmp_path, payload, name):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"height": 8, "width": 8, **payload}))
        code, _, err = _run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1 and _one_error_line(err)
        assert f"{name} must be a list" in err
        assert not (tmp_path / "x").exists()

    def test_empty_domain_list_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"domains": [], "height": 8, "width": 8}))
        code, _, err = _run(capsys, ["synth", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1 and _one_error_line(err)
        assert "need at least one domain" in err
        assert not (tmp_path / "x").exists()

    def test_seed_overrides_config(self, capsys, tmp_path):
        config = tmp_path / "synth.json"
        config.write_text(config_to_json(SynthConfig(
            domains=(DomainSpec("a", 1.0, 0.0, (0.0,)),),
            height=8, width=8, calibration_images=1, test_images=1, seed=1,
        )))
        for seed, name in (("1", "same"), ("2", "other")):
            code, _, _ = _run(capsys, ["synth", "--config", str(config),
                                       "--seed", seed, "--out", str(tmp_path / name)])
            assert code == 0
        base = (tmp_path / "same" / "data" / "a-cal-000.logits.bin").read_bytes()
        other = (tmp_path / "other" / "data" / "a-cal-000.logits.bin").read_bytes()
        assert base != other


class TestTheorem:
    def test_default_paradox_output(self, capsys):
        code, out, _ = _run(capsys, ["theorem"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "bins=3 per_bin=100 residual=+0.200000"
        assert "baseline  ECE:  B=0.200000  B'=0.200000  union=0.000000" in lines
        assert "groupwise ECE:  B=0.100000  B'=0.100000  union=0.100000" in lines
        assert "each group improves: PASS" in lines
        assert "union regresses:     PASS" in lines

    def test_custom_spec(self, capsys):
        code, out, _ = _run(capsys, ["theorem", "-r", "-0.1", "-m", "2", "--per-bin", "10"])
        assert code == 0
        assert "bins=2 per_bin=10 residual=-0.100000" in out
        assert "each group improves: PASS" in out

    def test_invalid_residual_is_usage_error(self, capsys):
        code, _, err = _run(capsys, ["theorem", "-r", "0.6"])
        assert code == 1 and "residual" in err

    def test_numerical_failure_exit_code(self, capsys, monkeypatch):
        def broken(values):
            raise NumericalError("sign flipped")
        monkeypatch.setattr("relikit.cli.evaluate_counterexample", broken)
        code, _, err = _run(capsys, ["theorem"])
        assert code == 3 and "sign flipped" in err


def _glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not (sys.platform.startswith("linux") and _glibc()), reason="glibc's malloc on Linux")
class TestHeapThresholds:
    SCRIPT = textwrap.dedent("""
        import contextlib, io, sys
        import numpy as np
        from relikit import cli

        def rss():
            with open("/proc/self/status") as status:
                return next(int(line.split()[1]) for line in status if line.startswith("VmRSS:")) / 1024

        big = np.ones(30 << 17)  # 30 MiB, mapped; freeing it raises glibc's thresholds to 30 and 60 MiB
        del big
        if sys.argv[1] == "main":
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["theorem"])
        before = rss()
        arrays = [np.ones(1 << 17) for _ in range(24)]  # 24 MiB in arrays of 1 MiB, on the heap
        del arrays
        print(rss() - before)
    """)

    def _kept_mib(self, how: str) -> float:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                                           os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", self.SCRIPT, how], capture_output=True, text=True, env=env,
                              check=True)
        return float(done.stdout.split()[-1])

    def test_a_command_makes_freed_heap_above_4_mib_go_back(self):
        # without main the freed 24 MiB stay resident; after it, at most the 4 MiB threshold does
        assert self._kept_mib("import") > 20
        assert self._kept_mib("main") < 6
