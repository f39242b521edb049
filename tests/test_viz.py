import hashlib

import pytest

from mot3d.core import Box, Observation
from mot3d.viz import PALETTE, render_scene_svg, track_color, write_scene_svg

CAR_SIZE = (4.0, 2.0, 1.5)
GOLDEN_SHA256 = "51021ef26c5d789dd3eb50e5c424f7938ad210b6266caf53eecf01b7f46a55a0"


def track_frames(n=5, track_id=1):
    return {frame: [Box(Observation(1.0 * frame, 0, 0, 0.2, *CAR_SIZE),
                        "car", frame, "s", score=0.9, track_id=track_id)]
            for frame in range(n)}


def test_track_color_cycles_palette():
    assert len(PALETTE) == 12
    assert len(set(PALETTE)) == 12
    assert track_color(1) == PALETTE[1]
    assert track_color(13) == PALETTE[1]
    assert track_color(12) == PALETTE[0]


def test_one_track_renders_all_frames_in_one_color():
    svg = render_scene_svg(track_frames(5, track_id=3))
    assert svg.count("<polygon") == 5
    assert svg.count("<line") == 5  # one heading tick per box
    color = track_color(3)
    # polygon stroke + tick stroke per frame, plus one legend entry
    assert svg.count(color) == 11
    other_colors = [c for c in PALETTE if c != color]
    assert not any(c in svg for c in other_colors)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_distinct_tracks_get_distinct_colors():
    frames = track_frames(3, track_id=1)
    for frame, boxes in track_frames(3, track_id=2).items():
        moved = Box(Observation(boxes[0].observation.x, 15.0, 0, 0.0, *CAR_SIZE),
                    "car", frame, "s", score=0.9, track_id=2)
        frames[frame] = frames[frame] + [moved]
    svg = render_scene_svg(frames)
    assert track_color(1) in svg
    assert track_color(2) in svg


def test_ground_truth_drawn_dashed():
    gt = {0: [Box(Observation(0, 0, 0, 0, *CAR_SIZE), "car", 0, "s", instance_id="i0")]}
    svg = render_scene_svg({}, gt)
    assert "stroke-dasharray" in svg
    assert svg.count("<polygon") == 1


def test_title_is_escaped():
    svg = render_scene_svg(track_frames(1), title="a<b & \"c\"")
    assert "a&lt;b &amp; &quot;c&quot;" in svg
    assert "a<b" not in svg


def test_empty_scene_still_renders():
    svg = render_scene_svg({})
    assert svg.startswith("<svg")
    assert "</svg>" in svg
    assert "<polygon" not in svg


def test_write_scene_svg(tmp_path):
    path = tmp_path / "scene.svg"
    write_scene_svg(str(path), track_frames(2), title="unit scene")
    content = path.read_text()
    assert content.startswith("<svg")
    assert "unit scene" in content


def test_y_axis_points_up():
    # svg pixel y grows downward; the renderer must flip world y
    frames = {0: [Box(Observation(0, 10.0, 0, 0, *CAR_SIZE), "car", 0, "s",
                      score=0.9, track_id=1)]}
    svg = render_scene_svg(frames)
    assert 'scale(1,-1)' in svg.replace(" ", "")


def test_scene_bytes_are_pinned():
    # two classes, yawed track boxes (one facing away from +x), dashed
    # ground truth and a title; the digest pins every byte, so a change
    # to how the renderer computes corners cannot move a coordinate unseen
    tracks = {frame: (Box(Observation(2.0 * frame, 0.5 * frame, 0, 0.3 + 0.1 * frame, *CAR_SIZE),
                          "car", frame, "s", score=0.9, track_id=3),
                      Box(Observation(-1.0, 3.0 + 0.7 * frame, 0, -2.5, 0.8, 0.6, 1.7),
                          "pedestrian", frame, "s", score=0.6, track_id=14))
              for frame in range(4)}
    gt = {frame: [Box(Observation(2.0 * frame + 0.2, 0.5 * frame, 0, 0.35 + 0.1 * frame,
                                  *CAR_SIZE), "car", frame, "s", instance_id="c0"),
                  Box(Observation(-1.1, 3.0 + 0.7 * frame, 0, 0.6, 0.8, 0.6, 1.7),
                      "pedestrian", frame, "s", instance_id="p0")]
          for frame in range(5)}
    svg = render_scene_svg(tracks, gt, title="golden <scene>")
    assert svg.count("<polygon") == 18 and svg.count("<line") == 8
    assert hashlib.sha256(svg.encode()).hexdigest() == GOLDEN_SHA256
