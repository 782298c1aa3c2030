import numpy as np
import pytest

from photoseg.datamodel import ValidationError
from photoseg.synth import SegmentSpec, SynthSpec, block_spec, generate


def two_segment_spec(noise=0.0, seed=0):
    return SynthSpec(
        n=8,
        segments=(
            SegmentSpec(4, (1.0, 0.0), (("cup", 0.8),)),
            SegmentSpec(4, (0.0, 1.0), (("road", 0.7),)),
        ),
        noise_sigma=noise,
        seed=seed,
    )


def test_zero_noise_rows_equal_means():
    stream, det, gt = generate(two_segment_spec())
    np.testing.assert_array_equal(stream.contextual[:4], np.tile([1.0, 0.0], (4, 1)))
    np.testing.assert_array_equal(stream.contextual[4:], np.tile([0.0, 1.0], (4, 1)))
    assert det.frames[0] == (("cup", 0.8),)
    assert gt.starts == (0, 4)


def test_gt_reflects_spec_even_for_identical_segments():
    spec = SynthSpec(
        n=6,
        segments=(SegmentSpec(3, (1.0,)), SegmentSpec(3, (1.0,))),
    )
    _, _, gt = generate(spec)
    assert gt.starts == (0, 3)


def test_same_seed_identical_output():
    a_stream, a_det, _ = generate(two_segment_spec(noise=0.3, seed=9))
    b_stream, b_det, _ = generate(two_segment_spec(noise=0.3, seed=9))
    np.testing.assert_array_equal(a_stream.contextual, b_stream.contextual)
    assert a_det == b_det


def test_different_seeds_differ():
    a, _, _ = generate(two_segment_spec(noise=0.3, seed=1))
    b, _, _ = generate(two_segment_spec(noise=0.3, seed=2))
    assert not np.array_equal(a.contextual, b.contextual)


def test_confidences_clamped():
    spec = SynthSpec(
        n=50,
        segments=(SegmentSpec(50, (1.0,), (("thing", 0.95),)),),
        noise_sigma=0.5,
        seed=4,
    )
    _, det, _ = generate(spec)
    confs = [c for fr in det.frames for _, c in fr]
    assert max(confs) <= 1.0 and min(confs) >= 0.0


def test_length_sum_validated():
    with pytest.raises(ValidationError, match="sum"):
        SynthSpec(n=9, segments=(SegmentSpec(4, (1.0,)), SegmentSpec(4, (1.0,))))


def test_spec_file_roundtrip(tmp_path):
    spec = block_spec(num_segments=3, segment_length=(5, 7, 6), noise_sigma=0.1, seed=3)
    path = tmp_path / "spec.json"
    spec.save(path)
    loaded = SynthSpec.from_file(path)
    assert loaded == spec
    a, _, _ = generate(spec)
    b, _, _ = generate(loaded)
    np.testing.assert_array_equal(a.contextual, b.contextual)


def test_block_spec_orthogonal_means():
    spec = block_spec(num_segments=4, segment_length=10, contextual_dim=8)
    means = np.array([s.contextual_mean for s in spec.segments])
    gram = means @ means.T
    np.testing.assert_array_equal(gram, np.eye(4))
    tag_sets = [set(t for t, _ in s.concepts) for s in spec.segments]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not (tag_sets[i] & tag_sets[j])


@pytest.mark.parametrize("body", ['{"n": 2, "segments": [', '[2]', '{"n": 2}',
                                  '{"n": 2, "segments": [{"contextual_mean": [0.0]}]}',
                                  '{"n": "two", "segments": []}',
                                  '{"n": 1, "segments": [{"length": 1, "contextual_mean": 0}]}'],
                         ids=["truncated", "not-an-object", "no-segments", "no-length",
                              "string-n", "scalar-mean"])
def test_spec_file_malformed(tmp_path, body):
    path = tmp_path / "spec.json"
    path.write_text(body)
    with pytest.raises(ValidationError):
        SynthSpec.from_file(path)
