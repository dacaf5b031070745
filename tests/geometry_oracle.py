"""Reference implementations of the polygon kernels, kept as they were
before `lexgate.context.geometry` computed them in one pass.

`point_in_polygon` first tests every edge for the point lying on it
(`_on_segment`), then casts the ray; `disc_polygon_relation` calls it and
then takes the distance to each edge, projecting both ends afresh. The
one-pass kernels must give the same answer for every polygon and point.
"""

from __future__ import annotations

import math

from lexgate.context.geometry import _EPS, METERS_PER_DEGREE_LAT


def _project(point, origin):
    meters_per_degree_lon = METERS_PER_DEGREE_LAT * math.cos(math.radians(origin.lat))
    return (
        (point.lon - origin.lon) * meters_per_degree_lon,
        (point.lat - origin.lat) * METERS_PER_DEGREE_LAT,
    )


def _on_segment(p, a, b):
    cross = (b.lat - a.lat) * (p.lon - a.lon) - (b.lon - a.lon) * (p.lat - a.lat)
    if abs(cross) > _EPS:
        return False
    return (
        min(a.lat, b.lat) - _EPS <= p.lat <= max(a.lat, b.lat) + _EPS
        and min(a.lon, b.lon) - _EPS <= p.lon <= max(a.lon, b.lon) + _EPS
    )


def point_in_polygon(point, vertices):
    n = len(vertices)
    for i in range(n):
        if _on_segment(point, vertices[i], vertices[(i + 1) % n]):
            return True
    inside = False
    x, y = point.lon, point.lat
    p1 = vertices[0]
    for i in range(1, n + 1):
        p2 = vertices[i % n]
        if y > min(p1.lat, p2.lat) and y <= max(p1.lat, p2.lat) and x <= max(p1.lon, p2.lon):
            if p1.lat != p2.lat:
                x_cross = (y - p1.lat) * (p2.lon - p1.lon) / (p2.lat - p1.lat) + p1.lon
                if p1.lon == p2.lon or x <= x_cross:
                    inside = not inside
        p1 = p2
    return inside


def _segment_distance_m(point, a, b):
    ax, ay = _project(a, point)
    bx, by = _project(b, point)
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    if length_sq == 0:
        return math.hypot(ax, ay)
    t = max(0.0, min(1.0, -(ax * dx + ay * dy) / length_sq))
    return math.hypot(ax + t * dx, ay + t * dy)


def distance_to_boundary_m(point, vertices):
    n = len(vertices)
    return min(_segment_distance_m(point, vertices[i], vertices[(i + 1) % n]) for i in range(n))


def disc_polygon_relation(point, radius_m, vertices):
    contained = point_in_polygon(point, vertices)
    boundary_distance = distance_to_boundary_m(point, vertices)
    if contained:
        return "inside" if boundary_distance >= radius_m else "straddles"
    return "outside" if boundary_distance > radius_m else "straddles"
