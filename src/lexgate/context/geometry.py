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


def point_in_polygon(point: GeoPoint, vertices: tuple[GeoPoint, ...]) -> bool:
    """Ray-casting containment; boundary points are inside.

    One pass over the edges (Haines, "Point in Polygon Strategies",
    Graphics Gems IV, 1994): a point within _EPS of an edge is inside at
    once, else each edge the eastward ray crosses flips the answer. The
    comparisons are written out in place of min/max, with the same float
    expressions.
    """
    x, y = point.lon, point.lat
    inside = False
    last = vertices[-1]
    alat, alon = last.lat, last.lon
    for vertex in vertices:
        blat, blon = vertex.lat, vertex.lon
        if blat < alat:
            lat_lo, lat_hi = blat, alat
        else:
            lat_lo, lat_hi = alat, blat
        if lat_lo - _EPS <= y <= lat_hi + _EPS:
            if blon < alon:
                lon_lo, lon_hi = blon, alon
            else:
                lon_lo, lon_hi = alon, blon
            if lon_lo - _EPS <= x <= lon_hi + _EPS:
                cross = (blat - alat) * (x - alon) - (blon - alon) * (y - alat)
                if -_EPS <= cross <= _EPS:
                    return True
            if lat_lo < y <= lat_hi and x <= lon_hi and (
                alon == blon or x <= (y - alat) * (blon - alon) / (blat - alat) + alon
            ):
                inside = not inside
        alat, alon = blat, blon
    return inside


def disc_polygon_relation(
    point: GeoPoint, radius_m: float, vertices: tuple[GeoPoint, ...]
) -> str:
    """How the accuracy disc around point relates to a polygon.

    Returns 'inside' (disc wholly contained), 'outside' (disjoint) or
    'straddles' (the disc crosses the boundary). Containment is
    point_in_polygon's; one pass over the edges finds the distance to the
    nearest edge in the local projection of _project.
    """
    contained = point_in_polygon(point, vertices)
    x, y = point.lon, point.lat
    meters_per_degree_lon = METERS_PER_DEGREE_LAT * math.cos(math.radians(y))
    boundary_distance = math.inf
    last = vertices[-1]
    ax, ay = (last.lon - x) * meters_per_degree_lon, (last.lat - y) * METERS_PER_DEGREE_LAT
    for vertex in vertices:
        bx, by = (vertex.lon - x) * meters_per_degree_lon, (vertex.lat - y) * METERS_PER_DEGREE_LAT
        # Distance from the point (the origin) to the edge: the nearest
        # point of the segment is at t, clamped to [0, 1].
        dx, dy = bx - ax, by - ay
        length_sq = dx * dx + dy * dy
        if length_sq == 0:
            distance = math.hypot(ax, ay)
        else:
            t = -(ax * dx + ay * dy) / length_sq
            if t >= 1.0:
                t = 1.0
            elif not t > 0.0:
                t = 0.0
            distance = math.hypot(ax + t * dx, ay + t * dy)
        if distance < boundary_distance:
            boundary_distance = distance
        ax, ay = bx, by
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
