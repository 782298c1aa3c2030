import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photoseg.datamodel import (
    ConceptDetections,
    EvalReport,
    FeatureStream,
    Segmentation,
    ValidationError,
    _as_index,
    _as_number,
    load_concept_detections,
    load_feature_stream,
    load_report,
    load_segmentation,
    read_json_object,
    save_concept_detections,
    save_feature_stream,
    save_segmentation,
    write_json_object,
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

    @pytest.mark.parametrize("text", ["", " \n\t\n", "\r\n  \r\n"])
    def test_empty_file(self, tmp_path, text):
        path = tmp_path / "feat.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=re.escape(f"empty feature file: {path}")):
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
        loaded = load_feature_stream(path)
        np.testing.assert_array_equal(loaded.contextual, stream.contextual)
        assert loaded.ids == ("img0", "img1")

    def test_json_lines_after_blank_lines(self, tmp_path):
        # the first non-blank line decides the format, whatever the suffix
        path = tmp_path / "feat.csv"
        path.write_text('\n  \n {"id": "a", "vector": [1.5, 2]}\n'
                        '\n{"id": "b", "vector": [3, -4]}\n')
        loaded = load_feature_stream(path)
        assert loaded.ids == ("a", "b")
        assert loaded.contextual.tobytes() == np.array([[1.5, 2.0], [3.0, -4.0]]).tobytes()

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

    def test_json_lines_alias_rejected(self, tmp_path):
        path = tmp_path / "feat.jsonl"
        stream = FeatureStream(np.array([[0.5, 1.0]]))
        with pytest.raises(ValidationError, match="unknown feature format 'json-lines'"):
            save_feature_stream(stream, path, format="json-lines")

    def test_csv_error_names_the_row(self, tmp_path):
        # the stray quote opens a field that outgrows csv's field size limit
        path = tmp_path / "feat.csv"
        path.write_text('1,2\n3,"4\n' + "5,6\n" * 40_000)
        with pytest.raises(ValidationError, match=r"^row 1: malformed CSV \(field larger"):
            load_feature_stream(path)

    def test_ids_must_match_rows(self):
        with pytest.raises(ValidationError, match="ids"):
            FeatureStream(contextual=np.zeros((2, 3)), ids=("a",))

    def test_zero_width_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="zero width"):
            FeatureStream(np.zeros((3, 0)))
        path = tmp_path / "feat.jsonl"
        path.write_text('{"id": "a", "vector": []}\n')
        with pytest.raises(ValidationError, match=re.escape(f"{path}: feature vectors")):
            load_feature_stream(path)


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


# Both JSON-lines loaders share one row format; every case runs on each.
JSON_LINE_LOADERS = pytest.mark.parametrize(
    "load", [load_feature_stream, load_concept_detections], ids=["features", "detections"])
ROW = '{"vector": [1.5], "tags": []}\n'


@JSON_LINE_LOADERS
class TestJsonLinesRowFormat:
    def test_whitespace_lines_skipped_but_counted(self, tmp_path, load):
        path = tmp_path / "rows.jsonl"
        path.write_text(" \t\n" + ROW + "   \n" + '{"id": "x", "vector": [2], "tags": []}\n'
                        + "\n" + ROW)
        assert load(path).ids == ("1", "x", "5")

    @pytest.mark.parametrize("line, message", [
        ('{"vector": [1.5],\n', "row 2: malformed JSON"),
        ("[1.5]\n", "row 2: expected a JSON object"),
        ('{"id": 1' + "0" * 5000 + ', "vector": [1.5], "tags": []}\n',
         "row 2: JSON past the parser's limits"),
        ('{"vector": ' + "[" * 200_000 + "]" * 200_000 + "}\n",
         "row 2: JSON past the parser's limits"),
    ], ids=["malformed", "not-an-object", "long-integer", "deep-nesting"])
    def test_bad_line_names_its_row(self, tmp_path, load, line, message):
        path = tmp_path / "rows.jsonl"
        path.write_text(ROW + "  \n" + line + ROW)
        with pytest.raises(ValidationError, match=re.escape(message)):
            load(path)

    def test_non_utf8_byte_names_the_file(self, tmp_path, load):
        # past the first read buffer, so the rows are being parsed when it fails
        path = tmp_path / "rows.jsonl"
        path.write_bytes(ROW.encode() * 4000 + b'{"id": "\xff"}\n')
        with pytest.raises(ValidationError, match=re.escape(f"{path}: not UTF-8 text")):
            load(path)

    def test_missing_ids_default_to_row_numbers(self, tmp_path, load):
        path = tmp_path / "rows.jsonl"
        path.write_text(ROW + '{"id": 7, "vector": [2], "tags": []}\n' + ROW + "\n" + ROW)
        assert load(path).ids == ("0", "7", "2", "4")


@pytest.mark.parametrize("ids, expected", [
    (None, '{"id": "0", "vector": [0.5, -2.0]}\n{"id": "1", "vector": [3.0, 1e-05]}\n'),
    (("a", "b"), '{"id": "a", "vector": [0.5, -2.0]}\n{"id": "b", "vector": [3.0, 1e-05]}\n'),
], ids=["row-numbers", "ids"])
def test_feature_json_lines_bytes(tmp_path, ids, expected):
    path = tmp_path / "feat.jsonl"
    save_feature_stream(FeatureStream(np.array([[0.5, -2.0], [3.0, 1e-5]]), ids=ids), path,
                        format="jsonl")
    assert path.read_text() == expected


@pytest.mark.parametrize("ids, expected", [
    (None, '{"id": "0", "tags": [{"tag": "cat", "confidence": 0.5}]}\n{"id": "1", "tags": []}\n'),
    (("a", "b"), '{"id": "a", "tags": [{"tag": "cat", "confidence": 0.5}]}\n'
                 '{"id": "b", "tags": []}\n'),
], ids=["row-numbers", "ids"])
def test_detection_json_lines_bytes(tmp_path, ids, expected):
    path = tmp_path / "det.jsonl"
    save_concept_detections(ConceptDetections(((("cat", 0.5),), ()), ids=ids), path)
    assert path.read_text() == expected


@pytest.mark.parametrize("data, message", [
    (b'{"seed": 1' + b"0" * 5000 + b"}", "JSON past the parser's limits"),
    (b'{"seed": ' + b"[" * 200_000 + b"]" * 200_000 + b"}", "JSON past the parser's limits"),
    (b'{"seed": "\xff"}', "not UTF-8 text"),
], ids=["long-integer", "deep-nesting", "non-utf8"])
def test_json_object_python_cannot_hold(tmp_path, data, message):
    # the limit errors are ValueErrors, as is UnicodeDecodeError; each keeps its message
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
        read_json_object(path)


def test_json_object_bytes(tmp_path):
    path = tmp_path / "doc.json"
    obj = {"b": [1, 2], "a": {"c": 0.5}}
    write_json_object(path, obj)
    assert path.read_text() == '{\n  "a": {\n    "c": 0.5\n  },\n  "b": [\n    1,\n    2\n  ]\n}\n'
    assert read_json_object(path) == obj


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


# (value, what _as_number returns, what _as_index returns); None rejects
_NUMBER_TABLE = {
    "10^400": (10 ** 400, None, None),
    "-10^400": (-10 ** 400, None, None),
    "1e999": (float("inf"), None, None),
    "-inf": (float("-inf"), None, None),
    "nan": (float("nan"), None, None),
    "true": (True, None, None),
    "numpy-bool": (np.bool_(False), None, None),
    "string": ("0.5", None, None),
    "null": (None, None, None),
    "list": ([], None, None),
    "dict": ({}, None, None),
    "-0.0": (-0.0, -0.0, 0),
    "float32": (np.float32(0.5), 0.5, None),
    "int64": (np.int64(3), 3.0, 3),
    "integral-float": (2.0, 2.0, 2),
    "int64-max": (2 ** 63 - 1, float(2 ** 63 - 1), 2 ** 63 - 1),
    "int64-min": (-2 ** 63, float(-2 ** 63), -2 ** 63),
    "past-int64": (2 ** 63, float(2 ** 63), None),
    "below-int64": (-2 ** 63 - 1, float(-2 ** 63 - 1), None),
    "past-int64-float": (1e19, 1e19, None),
    "uint64-max": (np.uint64(2 ** 64 - 1), float(2 ** 64 - 1), None),
}


@pytest.mark.parametrize("rule", ["number", "index"])
@pytest.mark.parametrize("case", sorted(_NUMBER_TABLE))
def test_number_rules(case, rule):
    value, as_number, as_index = _NUMBER_TABLE[case]
    convert, expected, kind = ((_as_number, as_number, float) if rule == "number"
                               else (_as_index, as_index, int))
    if expected is None:
        with pytest.raises(ValidationError, match=re.escape(f"field {case!r} must be")):
            convert(value, f"field {case!r}")
        return
    got = convert(value, f"field {case!r}")
    assert type(got) is kind and got == expected
    # -0.0 keeps its sign as a number and is 0 as an index
    assert np.signbit(got) == np.signbit(expected)


class TestIntegralIndices:
    @pytest.mark.parametrize("start", [1.7, "1", "x", True, float("nan"), None])
    def test_rejects_non_integral_start(self, start):
        with pytest.raises(ValidationError, match="segment start must be an integer"):
            Segmentation(10, (0, start))

    @pytest.mark.parametrize("n", [10.5, "10", float("inf")])
    def test_rejects_non_integral_n(self, n):
        with pytest.raises(ValidationError, match="segmentation n must be an integer"):
            Segmentation(n, (0,))

    def test_from_boundaries_rejects_a_fractional_boundary(self):
        with pytest.raises(ValidationError, match="segment start must be an integer"):
            Segmentation.from_boundaries(10, [4, 2.5])

    def test_accepts_numpy_integers_and_integral_floats(self):
        seg = Segmentation(np.int64(10), (0, np.int32(4), 7.0, np.float64(8.0)))
        assert seg == Segmentation(10, (0, 4, 7, 8))
        assert all(type(s) is int for s in (seg.n, *seg.starts))

    def test_one_converted_start_among_plain_ints(self):
        # plain ints skip the per-start check; any other start sends the
        # whole tuple through it
        plain = tuple(range(0, 400, 4))
        for odd in (np.int64(401), np.uint16(401), 401.0, np.float32(401.0)):
            seg = Segmentation(402, list(plain) + [odd])
            assert seg.starts == plain + (int(odd),)
            assert all(type(s) is int for s in seg.starts)

    @pytest.mark.parametrize("odd", [True, False, 401.5, np.float64(401.5), np.bool_(True)])
    def test_bool_and_fractional_starts_among_plain_ints_rejected(self, odd):
        with pytest.raises(ValidationError, match="segment start must be an integer"):
            Segmentation(402, tuple(range(0, 400, 4)) + (odd,))
        with pytest.raises(ValidationError, match="segment start must be an integer"):
            Segmentation(402, (odd,) if isinstance(odd, (bool, np.bool_)) else (0, odd))

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


@pytest.mark.parametrize("field, value, message", [
    ("tp", "true", "report field 'tp' must be an integer"),
    ("fn", "1.5", "report field 'fn' must be an integer"),
    ("precision", '"0.5"', "report field 'precision' must be a number"),
    ("recall", "null", "report field 'recall' must be a number"),
    ("gce", "1e999", "report field 'gce' must be finite"),
])
def test_load_report_rejects_a_value_of_the_wrong_type(tmp_path, field, value, message):
    good = {"precision": 1.0, "recall": 1.0, "fmeasure": 1.0, "tp": 2, "fp": 0, "fn": 0,
            "gce": 0.0, "lce": 0.0}
    path = tmp_path / "report.json"
    path.write_text(json.dumps({**good, field: "@"}).replace('"@"', value))
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_report(path)


def test_report_scores_are_floats_and_counts_ints():
    report = EvalReport(precision=1, recall=np.float64(0.5), fmeasure=np.float32(0.5),
                        tp=np.int64(2), fp=0.0, fn=0)
    kinds = [type(v) for v in report.to_dict().values()]
    assert kinds == [float] * 3 + [int] * 3 + [type(None)] * 2
