"""Deterministic SVG rendering of instances and embeddings.

All styling constants live in one table so identical inputs always produce
byte-identical output. The y axis is flipped at emit time (SVG grows
downward) by negating y coordinates, which keeps every emitted number an
integer.
"""

from __future__ import annotations

from .errors import ValidationError
from .model import Embedding, EmbeddingInstance

STYLE = {
    "padding": 2,  # viewport margin around the geometry, grid units
    "point_radius": "0.3",
    "polygon_stroke": "#222222",
    "polygon_width": "0.2",
    "edge_stroke": "#2b6cb0",
    "edge_width": "0.12",
    "point_fill": "#222222",
    "anchor_fill": "#c53030",  # the highlighted point, when one is marked
}


def render_svg(
    instance: EmbeddingInstance,
    embedding: Embedding | None = None,
    highlight_point: int | None = None,
) -> str:
    if embedding is not None and len(embedding) != instance.tree.node_count:
        raise ValidationError(
            "MappingLengthMismatch",
            f"mapping covers {len(embedding)} nodes, tree has {instance.tree.node_count}",
        )
    poly = instance.polygon.vertices
    xs, ys = instance.points.xs, instance.points.ys
    all_x = [p.x for p in poly] + list(xs)
    all_y = [p.y for p in poly] + list(ys)
    pad = STYLE["padding"]
    minx, maxx = min(all_x) - pad, max(all_x) + pad
    miny, maxy = min(all_y) - pad, max(all_y) + pad
    view = f"{minx} {-maxy} {maxx - minx} {maxy - miny}"

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">',
    ]
    outline = "M " + " L ".join(f"{p.x} {-p.y}" for p in poly) + " Z"
    lines.append(
        f'<path d="{outline}" fill="none" stroke="{STYLE["polygon_stroke"]}" '
        f'stroke-width="{STYLE["polygon_width"]}"/>'
    )
    if embedding is not None:
        mapping = embedding.mapping
        for u, v in instance.tree.edges:
            a, b = mapping[u], mapping[v]
            lines.append(
                f'<line x1="{xs[a]}" y1="{-ys[a]}" x2="{xs[b]}" y2="{-ys[b]}" '
                f'stroke="{STYLE["edge_stroke"]}" stroke-width="{STYLE["edge_width"]}"/>'
            )
    for i, (x, y) in enumerate(zip(xs, ys)):
        fill = STYLE["anchor_fill"] if i == highlight_point else STYLE["point_fill"]
        lines.append(
            f'<circle cx="{x}" cy="{-y}" r="{STYLE["point_radius"]}" fill="{fill}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
