import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photoseg.datamodel import (
    ConceptDetections,
    FeatureStream,
    Segmentation,
    ValidationError,
    load_concept_detections,
    load_feature_stream,
    load_report,
    load_segmentation,
    save_concept_detections,
    save_feature_stream,
    save_segmentation,
)


def segmentations(max_n=60):
    return st.integers(1, max_n).flatmap(
        lambda n: st.sets(st.integers(1, max(1, n - 1)), max_size=n - 1).map(
            lambda bs: Segmentation(n, tuple(sorted({0} | bs)))
        )
    )


class TestSegmentation:
    def test_segments_partition(self):
        seg = Segmentation(10, (0, 4, 7))
        assert seg.segments() == [(0, 3), (4, 6), (7, 9)]
        assert list(seg.labels()) == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_rejects_nonzero_first_start(self):
        with pytest.raises(ValidationError):
            Segmentation(10, (1, 4))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValidationError):
            Segmentation(10, (0, 4, 4))

    def test_rejects_start_past_end(self):
        with pytest.raises(ValidationError):
            Segmentation(10, (0, 10))

    def test_from_labels_roundtrip(self):
        seg = Segmentation.from_labels([5, 5, 2, 2, 2, 9])
        assert seg.starts == (0, 2, 5)

    def test_labels_and_from_labels_match_loop_definitions(self):
        rng = np.random.default_rng(17)
        for case in range(300):
            n = 1 if case % 10 == 0 else int(rng.integers(2, 40))
            lab = np.sort(rng.integers(0, 1 + case % 7, size=n)) if case % 2 else \
                rng.integers(-3, 3, size=n)
            starts = [0] + [i for i in range(1, n) if lab[i] != lab[i - 1]]
            seg = Segmentation.from_labels(lab)
            assert seg.starts == tuple(starts)
            want = np.zeros(n, dtype=np.int64)
            for k, s in enumerate(seg.starts):
                want[s:] = k
            got = seg.labels()
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @given(segmentations())
    @settings(max_examples=200, deadline=None)
    def test_partition_invariant(self, seg):
        covered = [frame for s, e in seg.segments() for frame in range(s, e + 1)]
        assert covered == list(range(seg.n))

    @given(segmentations())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_file(self, seg):
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/seg.json"
            save_segmentation(seg, path)
            assert load_segmentation(path) == seg


class TestFeatureStreamIO:
    def test_csv_roundtrip(self, tmp_path):
        stream = FeatureStream(contextual=np.array([[1.5, 2.0], [3.25, -4.0]]))
        path = tmp_path / "feat.csv"
        save_feature_stream(stream, path)
        loaded = load_feature_stream(path)
        assert loaded.n == 2 and loaded.contextual_dim == 2
        np.testing.assert_array_equal(loaded.contextual, stream.contextual)

    def test_csv_parse_shape(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("1,2,3,4\n5,6,7,8\n9,10,11,12\n")
        stream = load_feature_stream(path)
        assert stream.n == 3 and stream.contextual_dim == 4

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("1,2,3,4\n5,6,7\n")
        with pytest.raises(ValidationError, match="columns"):
            load_feature_stream(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValidationError, match="non-numeric"):
            load_feature_stream(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            load_feature_stream(path)

    @pytest.mark.parametrize("text", [
        "1,2\n\n3,4\n\n",                  # blank lines
        "1,2\n   \n3,4\n",                  # whitespace-only line
        "1\n \t\n2\n",                     # whitespace-only line, one column
        "\n\n",                             # only blank lines
        "",
        "1,nan\n3,4\n",
        "1,2\n-inf,4\n",
        '"1.5",2\n3,"4"\n',                 # quoted cells
        "1_0,2\n3,4\n",                     # underscores
        "1,2 # note\n3,4\n",
        "# header\n1,2\n",
        "1,2,\n3,4,\n",                     # trailing commas
        "1.5,2e-3\r\n3,4\r\n\r\n",          # CRLF
        "1\n2.5\n-3\n",                      # one column
        " 1 , 2\n3,+4\n",
        "1,2\n3\n",                          # ragged
        "1,2\n3,oops\n",
    ])
    def test_csv_fast_path_agrees_with_per_cell_parse(self, tmp_path, monkeypatch, text):
        path = tmp_path / "feat.csv"
        path.write_bytes(text.encode())

        def outcome():
            try:
                return load_feature_stream(path).contextual
            except ValidationError as exc:
                return str(exc)

        fast = outcome()

        def refuse(*args, **kwargs):
            raise ValueError("per-cell parse forced")

        monkeypatch.setattr(np, "loadtxt", refuse)
        per_cell = outcome()
        if isinstance(per_cell, str):
            assert fast == per_cell
        else:
            assert fast.dtype == per_cell.dtype and fast.shape == per_cell.shape
            assert fast.tobytes() == per_cell.tobytes()

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "feat.jsonl"
        stream = FeatureStream(contextual=np.array([[0.5, 1.0], [2.0, 3.0]]),
                               ids=("img0", "img1"))
        save_feature_stream(stream, path, format="jsonl")
        loaded = load_feature_stream(path, format="jsonl")
        np.testing.assert_array_equal(loaded.contextual, stream.contextual)
        assert loaded.ids == ("img0", "img1")

    def test_contextual_is_a_read_only_copy(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        stream = FeatureStream(rows)
        assert not stream.contextual.flags.writeable
        with pytest.raises(ValueError):
            stream.contextual[0, 0] = 9.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            stream.contextual = rows
        rows[0, 0] = 9.0
        assert rows.flags.writeable and stream.contextual[0, 0] == 1.0
        ints = FeatureStream(np.array([[1, 2]]))
        assert ints.contextual.dtype == np.float64

    @pytest.mark.parametrize("direction", ["load", "save"])
    def test_json_lines_alias_rejected(self, tmp_path, direction):
        path = tmp_path / "feat.jsonl"
        stream = FeatureStream(np.array([[0.5, 1.0]]))
        save_feature_stream(stream, path, format="jsonl")
        with pytest.raises(ValidationError, match="unknown feature format 'json-lines'"):
            if direction == "load":
                load_feature_stream(path, format="json-lines")
            else:
                save_feature_stream(stream, path, format="json-lines")

    def test_ids_must_match_rows(self):
        with pytest.raises(ValidationError, match="ids"):
            FeatureStream(contextual=np.zeros((2, 3)), ids=("a",))

    def test_zero_width_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="zero width"):
            FeatureStream(np.zeros((3, 0)))
        path = tmp_path / "feat.jsonl"
        path.write_text('{"id": "a", "vector": []}\n')
        with pytest.raises(ValidationError, match=re.escape(f"{path}: feature vectors")):
            load_feature_stream(path, format="jsonl")


class TestConceptDetectionsIO:
    def test_parse_and_roundtrip(self, tmp_path):
        path = tmp_path / "det.jsonl"
        lines = [
            {"id": "f0", "tags": [{"tag": "table", "confidence": 0.8},
                                  {"tag": "person", "confidence": 0.6}]},
            {"id": "f1", "tags": []},
        ]
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        det = load_concept_detections(path)
        assert det.n == 2
        assert det.frames[0] == (("table", 0.8), ("person", 0.6))
        assert det.frames[1] == ()
        out = tmp_path / "det2.jsonl"
        save_concept_detections(det, out)
        assert load_concept_detections(out) == det

    def test_confidence_out_of_range(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text(json.dumps(
            {"id": "f0", "tags": [{"tag": "cat", "confidence": 1.3}]}) + "\n")
        with pytest.raises(ValidationError, match="outside"):
            load_concept_detections(path)

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_empty_file(self, tmp_path, text):
        path = tmp_path / "det.jsonl"
        path.write_text(text)
        with pytest.raises(ValidationError, match="empty detections file"):
            load_concept_detections(path)

    def test_duplicate_tag(self):
        with pytest.raises(ValidationError, match="duplicate"):
            ConceptDetections(frames=((("cat", 0.5), ("cat", 0.7)),))

    def test_unique_tags_sorted(self):
        det = ConceptDetections(frames=((("b", 0.5),), (("a", 0.2), ("b", 0.1))))
        assert det.unique_tags() == ["a", "b"]


class TestEvalReportIO:
    def test_roundtrip(self, tmp_path):
        from photoseg.datamodel import EvalReport, load_report, save_report
        report = EvalReport(precision=0.75, recall=0.6, fmeasure=2 * 0.75 * 0.6 / 1.35,
                            tp=3, fp=1, fn=2, gce=0.2, lce=0.1)
        path = tmp_path / "report.json"
        save_report(report, path)
        assert load_report(path) == report

    def test_lce_above_gce_rejected(self):
        from photoseg.datamodel import EvalReport
        with pytest.raises(ValidationError, match="cannot exceed"):
            EvalReport(precision=1, recall=1, fmeasure=1, tp=1, fp=0, fn=0,
                       gce=0.1, lce=0.3)


class TestIntegralIndices:
    @pytest.mark.parametrize("start", [1.7, "1", "x", True, float("nan"), None])
    def test_rejects_non_integral_start(self, start):
        with pytest.raises(ValidationError, match="segment start must be an integer"):
            Segmentation(10, (0, start))

    @pytest.mark.parametrize("n", [10.5, "10", float("inf")])
    def test_rejects_non_integral_n(self, n):
        with pytest.raises(ValidationError, match="segmentation n must be an integer"):
            Segmentation(n, (0,))

    def test_accepts_numpy_integers_and_integral_floats(self):
        seg = Segmentation(np.int64(10), (0, np.int32(4), 7.0, np.float64(8.0)))
        assert seg == Segmentation(10, (0, 4, 7, 8))
        assert all(type(s) is int for s in (seg.n, *seg.starts))

    @pytest.mark.parametrize("body", ['{"n": 10.5, "starts": [0]}',
                                      '{"n": "ten", "starts": [0]}',
                                      '{"n": 10, "starts": [0, 1.7]}',
                                      '{"n": 10, "starts": 0}',
                                      '{"n": 10}',
                                      '[10, [0]]'])
    def test_load_segmentation_rejects(self, tmp_path, body):
        path = tmp_path / "seg.json"
        path.write_text(body)
        with pytest.raises(ValidationError):
            load_segmentation(path)


@pytest.mark.parametrize("body", ['{"precision": 1.0, "recall"',
                                  '["precision", 1.0]',
                                  '{"precision": 1.0, "recall": 1.0}',
                                  '{"precision": 1.0, "recall": 1.0, "fmeasure": 1.0, '
                                  '"tp": "2", "fp": 0, "fn": 0, "gce": null, "lce": null}'],
                         ids=["truncated", "not-an-object", "missing-field", "string-count"])
def test_load_report_rejects_malformed(tmp_path, body):
    path = tmp_path / "report.json"
    path.write_text(body)
    with pytest.raises(ValidationError):
        load_report(path)
