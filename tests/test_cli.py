"""Command-line interface: subcommands, option layering, exit codes."""

import json

import numpy as np
import pytest

from relikit.calibration import (
    ClusterTemperatureModel,
    GlobalTemperature,
    TemperatureRegressor,
    load_calibrator,
)
from relikit.cli import main
from relikit.errors import NumericalError
from relikit.manifest import load_manifest
from relikit.synth import DomainSpec, SynthConfig, config_to_json, generate_benchmark


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

    def test_missing_manifest_is_data_error(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["validate", str(tmp_path / "absent.json")])
        assert code == 2 and "error:" in err


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

    def test_missing_out_is_usage_error(self, bench, capsys):
        code, _, err = _run(capsys, ["fit", "--manifest", str(bench)])
        assert code == 1 and "--out" in err

    def test_malformed_domain_weight(self, bench, capsys, tmp_path):
        code, _, err = _run(capsys, [
            "fit", "--manifest", str(bench), "--out", str(tmp_path / "x.json"),
            "--method", "lts", "--domain-weight", "id",
        ])
        assert code == 1 and "tag=number" in err


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
    ])
    def test_bad_config_value_is_usage_error(self, bench, capsys, tmp_path, command, key, value):
        config = tmp_path / "bad.json"
        options = {"manifest": str(bench)}
        if command == "fit":
            options.update(out=str(tmp_path / "c.json"),
                           method="lts" if key == "learning_rate" else "cluster_ts")
        options[key] = value
        config.write_text(json.dumps(options))
        code, _, err = _run(capsys, [command, "--config", str(config)])
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"{key.replace('_', '-')} must be" in err and repr(value) in err

    def test_bad_config_choice_is_usage_error(self, bench, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"manifest": str(bench), "score": "loudest"}))
        code, _, err = _run(capsys, ["eval", "--config", str(config)])
        assert code == 1 and "score must be one of max_prob, neg_entropy" in err


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

    def test_bad_calibrator_artifact_is_data_error(self, bench, capsys, tmp_path):
        artifact = tmp_path / "cluster.json"
        artifact.write_text(json.dumps({
            "method": "cluster_ts", "centroids": [[0.0]], "temperatures": [1.0],
            "fallback_temperature": -1.0, "classes": 5,
        }))
        code, _, err = _run(capsys, ["eval", "--manifest", str(bench),
                                     "--calibrator", str(artifact)])
        assert code == 2 and "fallback temperature" in err

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

    def test_unknown_metric_is_usage_error(self, bench, capsys):
        code, _, err = _run(capsys, ["eval", "--manifest", str(bench), "--metrics", "f1"])
        assert code == 1 and "unknown metrics" in err


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
