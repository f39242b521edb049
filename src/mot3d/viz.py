"""Bird's-eye-view SVG rendering of tracks and ground truth.

Hand-rolled SVG strings keep the output deterministic: the same
inputs produce byte-identical files, colors come from a fixed palette
keyed by track id, and every coordinate is formatted with two
decimals.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .association import footprint_corners
from .core import observation_rows
from .dataset_io import atomic_open

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
)

GT_STYLE = 'fill="none" stroke="#999999" stroke-width="0.08" stroke-dasharray="0.4 0.3"'


def track_color(track_id: int) -> str:
    return PALETTE[track_id % len(PALETTE)]


def _polygon(points, style: str) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polygon points="{coords}" {style} />'


def _heading_tick(observation, corners, color: str) -> str:
    # line from box center to the midpoint of the leading edge
    front_x = (corners[0][0] + corners[3][0]) / 2.0
    front_y = (corners[0][1] + corners[3][1]) / 2.0
    return (f'<line x1="{observation.x:.2f}" y1="{observation.y:.2f}" '
            f'x2="{front_x:.2f}" y2="{front_y:.2f}" '
            f'stroke="{color}" stroke-width="0.08" />')


def render_scene_svg(track_frames: Mapping, gt_frames: Mapping | None = None,
                     title: str = "", width: int = 900) -> str:
    """Render every frame of one scene into a single overlaid SVG.

    track_frames maps frame index to track boxes; gt_frames optionally
    maps frame index to ground-truth boxes drawn as dashed outlines.
    """
    track_items = []
    gt_items = []
    xs: list = []
    ys: list = []

    if gt_frames:
        for frame in sorted(gt_frames):
            rows = observation_rows(box.observation for box in gt_frames[frame])
            for corners in footprint_corners(rows):
                xs.extend(c[0] for c in corners)
                ys.extend(c[1] for c in corners)
                gt_items.append(_polygon(corners, GT_STYLE))

    track_ids = []
    for frame in sorted(track_frames):
        boxes = track_frames[frame]
        rows = observation_rows(box.observation for box in boxes)
        for box, corners in zip(boxes, footprint_corners(rows)):
            xs.extend(c[0] for c in corners)
            ys.extend(c[1] for c in corners)
            color = track_color(box.track_id)
            style = f'fill="none" stroke="{color}" stroke-width="0.12"'
            track_items.append(_polygon(corners, style))
            track_items.append(_heading_tick(box.observation, corners, color))
            if box.track_id not in track_ids:
                track_ids.append(box.track_id)

    if not xs:
        xs = [-1.0, 1.0]
        ys = [-1.0, 1.0]
    pad = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    height = int(round(width * (y1 - y0) / (x1 - x0))) or width

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="{x0:.2f} {y0:.2f} {x1 - x0:.2f} {y1 - y0:.2f}">',
        # flip y so north is up; translate keeps the viewBox valid
        f'<g transform="translate(0,{y0 + y1:.2f}) scale(1,-1)">',
        f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
        f'height="{y1 - y0:.2f}" fill="#fcfcfc" />',
    ]
    parts.extend(gt_items)
    parts.extend(track_items)
    parts.append("</g>")
    # text lives outside the flipped group; sizes scale with the view
    unit = (x1 - x0) / 50.0
    cursor = y0 + 1.5 * unit
    if title:
        parts.append(f'<text x="{x0 + unit:.2f}" y="{cursor:.2f}" '
                     f'font-size="{unit:.2f}" fill="#333333" '
                     'style="font-family:monospace">'
                     f"{_escape(title)}</text>")
        cursor += 1.4 * unit
    for track_id in sorted(track_ids)[:len(PALETTE)]:
        parts.append(f'<text x="{x0 + unit:.2f}" y="{cursor:.2f}" '
                     f'font-size="{unit:.2f}" fill="{track_color(track_id)}" '
                     'style="font-family:monospace">'
                     f"track {track_id}</text>")
        cursor += 1.2 * unit
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def write_scene_svg(path: str, track_frames: Mapping,
                    gt_frames: Mapping | None = None, title: str = "") -> None:
    svg = render_scene_svg(track_frames, gt_frames, title=title)
    with atomic_open(path) as handle:
        handle.write(svg)
