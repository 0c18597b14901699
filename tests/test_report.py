"""Report structure and byte-deterministic serialization."""

import json

import pytest

from relikit.errors import MetricError
from relikit.report import (
    ReliabilityReport,
    from_json_bytes,
    to_csv_bytes,
    to_json_bytes,
)


def _sample_report():
    return ReliabilityReport(
        meta={"split": "test", "bins": 15, "seed": 0},
        domains={
            "id": {
                "n_images": 2, "n_records": 100, "accuracy": 0.75,
                "mean_confidence": 0.1 + 0.2,  # not exactly 0.3: repr must survive
                "miou": 0.5, "ece": 0.0125, "ada_ece": 0.013,
                "ks_error": 0.01, "prr": 61.5,
                "per_class_iou": [0.5, None, 1.0],
            },
            "shifted": {"n_images": 1, "n_records": 50, "accuracy": 0.5,
                        "mean_confidence": 0.9, "ece": 0.2},
        },
        ood_auroc={"shifted": 0.875},
        pixel_ood_auroc={"shifted": 0.75},
    )


class TestJson:
    def test_round_trip_is_exact(self):
        report = _sample_report()
        again = from_json_bytes(to_json_bytes(report))
        assert again == report
        assert again.domains["id"]["mean_confidence"] == 0.1 + 0.2

    def test_bytes_are_deterministic(self):
        assert to_json_bytes(_sample_report()) == to_json_bytes(_sample_report())

    def test_keys_sorted_and_newline_terminated(self):
        data = to_json_bytes(_sample_report())
        assert data.endswith(b"\n")
        payload = json.loads(data)
        assert list(payload) == sorted(payload)
        assert list(payload["domains"]) == ["id", "shifted"]

    def test_missing_sections_rejected(self):
        with pytest.raises(MetricError):
            from_json_bytes(b'{"domains": {}}')
        with pytest.raises(MetricError):
            from_json_bytes(b'{"meta": {}}')

    def test_invalid_json_rejected(self):
        with pytest.raises(MetricError):
            from_json_bytes(b"{nope")
        with pytest.raises(MetricError):
            from_json_bytes(b"\xff\xfe")

    def test_ood_sections_default_empty(self):
        report = from_json_bytes(b'{"meta": {}, "domains": {}}')
        assert report.ood_auroc == {} and report.pixel_ood_auroc == {}


class TestJsonThatIsNoReport:
    @pytest.mark.parametrize("data", [b"5", b'"meta domains"', b'["meta", "domains"]', b"null"])
    def test_json_value_that_is_not_an_object(self, data):
        with pytest.raises(MetricError, match="^report must be a JSON object$"):
            from_json_bytes(data)

    def test_over_nested_json(self):
        with pytest.raises(MetricError, match="^report is not valid JSON"):
            from_json_bytes(b"[" * 100_000 + b"]" * 100_000)

    @pytest.mark.parametrize("key", ["meta", "domains", "ood_auroc", "pixel_ood_auroc"])
    @pytest.mark.parametrize("value", ["3", "[]", '"x"', "null"])
    def test_section_that_is_not_an_object(self, key, value):
        payload = {"meta": "{}", "domains": "{}", key: value}
        data = ("{" + ", ".join(f'"{k}": {v}' for k, v in payload.items()) + "}").encode()
        with pytest.raises(MetricError, match=f"^report section '{key}' must be a JSON object$"):
            from_json_bytes(data)

    def test_report_bytes_that_are_not_utf8(self):
        with pytest.raises(MetricError, match="^report is not valid JSON"):
            from_json_bytes(b'{"meta": {}, "domains": {"' + bytes([0xFF]) + b'": 1}}')


class TestCsv:
    def test_layout(self):
        rows = to_csv_bytes(_sample_report()).decode().splitlines()
        assert rows[0] == "domain,metric,value"
        assert rows[1] == "id,n_images,2"
        # fixed metric order inside a domain, then per-class IoU rows
        id_metrics = [r.split(",")[1] for r in rows if r.startswith("id,")]
        assert id_metrics == [
            "n_images", "n_records", "accuracy", "mean_confidence",
            "miou", "ece", "ada_ece", "ks_error", "prr",
            "iou_class_0", "iou_class_1", "iou_class_2",
        ]
        assert rows[-2] == "shifted,ood_auroc,0.875"
        assert rows[-1] == "shifted,pixel_ood_auroc,0.75"

    def test_floats_use_repr_and_none_is_empty(self):
        rows = to_csv_bytes(_sample_report()).decode().splitlines()
        assert "id,mean_confidence,0.30000000000000004" in rows
        assert "id,iou_class_1," in rows

    def test_missing_metrics_skipped(self):
        report = ReliabilityReport(meta={}, domains={"d": {"ece": 0.5}})
        rows = to_csv_bytes(report).decode().splitlines()
        assert rows == ["domain,metric,value", "d,ece,0.5"]

    def test_bytes_are_deterministic(self):
        assert to_csv_bytes(_sample_report()) == to_csv_bytes(_sample_report())
