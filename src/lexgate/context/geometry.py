"""Planar geometry over lat/lon polygons.

Points are WGS84 coordinates; metric distances use a local equirectangular
projection around the query point, which is plenty for the fixture-scale
areas this package classifies (countries, cities, customs zones). Points
exactly on a polygon edge count as inside - a deterministic rule the zone
classifier relies on.
"""

from __future__ import annotations

import math

from ..model import GeoPoint

METERS_PER_DEGREE_LAT = 111320.0

_EPS = 1e-12


def _project(point: GeoPoint, origin: GeoPoint) -> tuple[float, float]:
    """Local east/north offsets in meters relative to origin."""
    meters_per_degree_lon = METERS_PER_DEGREE_LAT * math.cos(math.radians(origin.lat))
    return (
        (point.lon - origin.lon) * meters_per_degree_lon,
        (point.lat - origin.lat) * METERS_PER_DEGREE_LAT,
    )


def distance_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle-ish distance in meters (equirectangular, local scale)."""
    east, north = _project(a, b)
    return math.hypot(east, north)


def _on_segment(p: GeoPoint, a: GeoPoint, b: GeoPoint) -> bool:
    cross = (b.lat - a.lat) * (p.lon - a.lon) - (b.lon - a.lon) * (p.lat - a.lat)
    if abs(cross) > _EPS:
        return False
    return (
        min(a.lat, b.lat) - _EPS <= p.lat <= max(a.lat, b.lat) + _EPS
        and min(a.lon, b.lon) - _EPS <= p.lon <= max(a.lon, b.lon) + _EPS
    )


def point_in_polygon(point: GeoPoint, vertices: tuple[GeoPoint, ...]) -> bool:
    """Ray-casting containment; boundary points are inside."""
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


def _segment_distance_m(point: GeoPoint, a: GeoPoint, b: GeoPoint) -> float:
    ax, ay = _project(a, point)
    bx, by = _project(b, point)
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    if length_sq == 0:
        return math.hypot(ax, ay)
    # Projection parameter of the origin (the query point) onto the segment.
    t = max(0.0, min(1.0, -(ax * dx + ay * dy) / length_sq))
    return math.hypot(ax + t * dx, ay + t * dy)


def distance_to_boundary_m(point: GeoPoint, vertices: tuple[GeoPoint, ...]) -> float:
    n = len(vertices)
    return min(
        _segment_distance_m(point, vertices[i], vertices[(i + 1) % n]) for i in range(n)
    )


def disc_polygon_relation(
    point: GeoPoint, radius_m: float, vertices: tuple[GeoPoint, ...]
) -> str:
    """How the accuracy disc around point relates to a polygon.

    Returns 'inside' (disc wholly contained), 'outside' (disjoint) or
    'straddles' (the disc crosses the boundary).
    """
    contained = point_in_polygon(point, vertices)
    boundary_distance = distance_to_boundary_m(point, vertices)
    if contained:
        return "inside" if boundary_distance >= radius_m else "straddles"
    return "outside" if boundary_distance > radius_m else "straddles"


def _orient(p: GeoPoint, q: GeoPoint, r: GeoPoint) -> float:
    return (q.lon - p.lon) * (r.lat - p.lat) - (q.lat - p.lat) * (r.lon - p.lon)


def _proper_intersection(a: GeoPoint, b: GeoPoint, c: GeoPoint, d: GeoPoint) -> bool:
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    return o1 * o2 < 0 and o3 * o4 < 0


def is_simple_polygon(vertices: tuple[GeoPoint, ...]) -> bool:
    """No two non-adjacent edges properly intersect."""
    n = len(vertices)
    if n < 3:
        return False
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _proper_intersection(*edges[i], *edges[j]):
                return False
    return True
