"""Hierarchical circle packing.

This is the layout behind the hierarchical bubble chart of Fig. 1: leaf
circles (compute nodes) are packed tightly inside their parent circle
(task), task circles inside their job circle, and job circles inside the
view.  The sibling-packing step follows the front-chain algorithm used by
d3-hierarchy (Wang et al., "Visualization of large hierarchical data by
circle packing"), and parent circles are the smallest enclosing circle of
their children (Welzl's algorithm) plus padding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import LayoutError


@dataclass
class PackNode:
    """A node of the hierarchy to lay out.

    Leaves must carry a positive ``value`` (it determines their area);
    internal nodes derive their size from their children.  After calling
    :func:`pack`, ``x``, ``y`` and ``r`` hold the layout in the target
    coordinate system.
    """

    id: str
    value: float = 0.0
    children: list["PackNode"] = field(default_factory=list)
    #: Arbitrary payload the chart code wants back (utilisation, labels, ...).
    data: dict = field(default_factory=dict)
    x: float = 0.0
    y: float = 0.0
    r: float = 0.0
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def iter(self) -> Iterator["PackNode"]:
        """Depth-first traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.iter()

    def leaves(self) -> list["PackNode"]:
        return [node for node in self.iter() if node.is_leaf]


@dataclass(frozen=True)
class _Circle:
    x: float
    y: float
    r: float


def _distance2(a: _Circle, b: _Circle) -> float:
    dx, dy = b.x - a.x, b.y - a.y
    return dx * dx + dy * dy


def _encloses(a: _Circle, b: _Circle, epsilon: float = 1e-9) -> bool:
    dr = a.r - b.r + epsilon
    return dr > 0 and _distance2(a, b) < dr * dr


def _enclose_basis_2(a: _Circle, b: _Circle) -> _Circle:
    x1, y1, r1 = a.x, a.y, a.r
    x2, y2, r2 = b.x, b.y, b.r
    dx, dy = x2 - x1, y2 - y1
    d = math.hypot(dx, dy)
    r = (d + r1 + r2) / 2.0
    if d <= 1e-12:
        return _Circle(x1, y1, max(r1, r2))
    t = (r - r1) / d
    return _Circle(x1 + dx * t, y1 + dy * t, r)


def _enclose_basis_3(a: _Circle, b: _Circle, c: _Circle) -> _Circle:
    # Solve for the circle tangent (internally) to three circles: linear system
    # derived from equalising the three tangency constraints.
    x1, y1, r1 = a.x, a.y, a.r
    x2, y2, r2 = b.x, b.y, b.r
    x3, y3, r3 = c.x, c.y, c.r
    a2, b2 = 2 * (x1 - x2), 2 * (y1 - y2)
    c2 = 2 * (r2 - r1)
    d2 = x1 * x1 + y1 * y1 - r1 * r1 - x2 * x2 - y2 * y2 + r2 * r2
    a3, b3 = 2 * (x1 - x3), 2 * (y1 - y3)
    c3 = 2 * (r3 - r1)
    d3 = x1 * x1 + y1 * y1 - r1 * r1 - x3 * x3 - y3 * y3 + r3 * r3
    ab = a3 * b2 - a2 * b3
    if abs(ab) < 1e-12:
        return _enclose_basis_2(a, b if b.r >= c.r else c)
    xa = (b2 * d3 - b3 * d2) / ab - x1
    xb = (b3 * c2 - b2 * c3) / ab
    ya = (a3 * d2 - a2 * d3) / ab - y1
    yb = (a2 * c3 - a3 * c2) / ab
    qa = xb * xb + yb * yb - 1
    qb = 2 * (r1 + xa * xb + ya * yb)
    qc = xa * xa + ya * ya - r1 * r1
    if abs(qa) > 1e-12:
        disc = qb * qb - 4 * qa * qc
        r = -(qb + math.sqrt(max(0.0, disc))) / (2 * qa)
    else:
        r = -qc / qb if abs(qb) > 1e-12 else 0.0
    return _Circle(x1 + xa + xb * r, y1 + ya + yb * r, r)


def _enclose_basis(basis: list[_Circle]) -> _Circle:
    if not basis:
        return _Circle(0.0, 0.0, 0.0)
    if len(basis) == 1:
        return basis[0]
    if len(basis) == 2:
        return _enclose_basis_2(basis[0], basis[1])
    return _enclose_basis_3(basis[0], basis[1], basis[2])


def _fallback_enclosing(circles: Sequence[_Circle]) -> _Circle:
    """A guaranteed (not necessarily minimal) enclosing circle.

    Used when the move-to-front iteration fails to converge on numerically
    degenerate input (nearly-identical circles, extreme coordinates): the
    centroid of the centres with a radius reaching the farthest circle edge
    always encloses everything and keeps the layout finite.
    """
    count = len(circles)
    cx = sum(c.x for c in circles) / count
    cy = sum(c.y for c in circles) / count
    radius = max(math.hypot(c.x - cx, c.y - cy) + c.r for c in circles)
    return _Circle(cx, cy, radius)


def smallest_enclosing_circle(circles: Sequence[_Circle]) -> _Circle:
    """Welzl's algorithm over circles (move-to-front heuristic, iterative)."""
    items = list(circles)
    if not items:
        return _Circle(0.0, 0.0, 0.0)
    enclosing: _Circle | None = None
    basis: list[_Circle] = []
    i = 0
    # The move-to-front heuristic needs O(n) basis changes on well-conditioned
    # input; the cap below only trips when floating-point cancellation makes
    # the basis oscillate, in which case the conservative fallback circle is
    # returned instead of looping forever.
    steps = 0
    max_steps = 10 * len(items) * len(items) + 200
    while i < len(items):
        steps += 1
        if steps > max_steps:
            return _fallback_enclosing(items)
        circle = items[i]
        if enclosing is not None and _encloses(enclosing, circle):
            i += 1
            continue
        # extend the basis with this circle
        basis = _extend_basis(basis, circle)
        enclosing = _enclose_basis(basis)
        # move-to-front and restart scanning
        items.pop(i)
        items.insert(0, circle)
        i = 0
    return enclosing if enclosing is not None else items[0]


def _extend_basis(basis: list[_Circle], circle: _Circle) -> list[_Circle]:
    if _encloses_weak(_enclose_basis(basis), circle):
        return basis
    # try basis of size 1 and 2 including the new circle
    for existing in basis:
        if _encloses_weak(_enclose_basis_2(existing, circle), basis):
            return [existing, circle]
    for j in range(len(basis)):
        for k in range(j + 1, len(basis)):
            candidate = _enclose_basis_3(basis[j], basis[k], circle)
            if _encloses_weak(candidate, basis):
                return [basis[j], basis[k], circle]
    return [circle]


def _encloses_weak(a: _Circle, b) -> bool:
    if isinstance(b, list):
        return all(_encloses_weak(a, item) for item in b)
    dr = a.r - b.r + max(a.r, b.r, 1.0) * 1e-9
    return dr > 0 and _distance2(a, b) < dr * dr


def _tangent_positions(a: _Circle, b: _Circle, r: float) -> list[tuple[float, float]]:
    """Centres of circles of radius ``r`` externally tangent to both a and b."""
    ra, rb = a.r + r, b.r + r
    dx, dy = b.x - a.x, b.y - a.y
    d = math.hypot(dx, dy)
    if d < 1e-12 or d > ra + rb or d < abs(ra - rb):
        return []
    # intersection of circles (a.center, ra) and (b.center, rb)
    along = (d * d + ra * ra - rb * rb) / (2 * d)
    h2 = ra * ra - along * along
    if h2 < 0:
        return []
    h = math.sqrt(h2)
    ux, uy = dx / d, dy / d
    px, py = a.x + along * ux, a.y + along * uy
    return [(px - h * uy, py + h * ux), (px + h * uy, py - h * ux)]


def pack_siblings(radii: Sequence[float]) -> list[tuple[float, float]]:
    """Pack non-overlapping circles of the given radii around the origin.

    Returns the centre of each circle, in input order.  Circles are placed
    greedily from largest to smallest: each circle takes the collision-free
    position (tangent to one or two already-placed circles) closest to the
    origin, which yields a compact, roughly round cluster.  Unlike a strict
    front-chain implementation this is guaranteed overlap-free, which is the
    property the bubble chart actually relies on.
    """
    n = len(radii)
    if n == 0:
        return []
    for r in radii:
        if r <= 0:
            raise LayoutError(f"sibling radius must be positive, got {r}")
    if n == 1:
        return [(0.0, 0.0)]

    order = sorted(range(n), key=lambda i: -radii[i])
    placed: list[_Circle] = []
    result: list[tuple[float, float] | None] = [None] * n

    def overlaps_any(x: float, y: float, r: float) -> bool:
        for other in placed:
            dr = r + other.r - 1e-7
            dx, dy = x - other.x, y - other.y
            if dx * dx + dy * dy < dr * dr:
                return True
        return False

    for rank, index in enumerate(order):
        r = float(radii[index])
        if rank == 0:
            placed.append(_Circle(0.0, 0.0, r))
            result[index] = (0.0, 0.0)
            continue
        if rank == 1:
            x = placed[0].r + r
            placed.append(_Circle(x, 0.0, r))
            result[index] = (x, 0.0)
            continue
        candidates: list[tuple[float, float]] = []
        # tangent to a single placed circle, pushed toward the origin
        for c in placed:
            d = math.hypot(c.x, c.y)
            if d < 1e-12:
                candidates.append((c.r + r, 0.0))
            else:
                scale = (d - c.r - r) / d if d > c.r + r else (d + c.r + r) / d
                candidates.append((c.x * (c.r + r + d) / d,
                                   c.y * (c.r + r + d) / d))
                candidates.append((c.x * scale, c.y * scale))
        # tangent to pairs of nearby placed circles
        for i in range(len(placed)):
            for j in range(i + 1, len(placed)):
                a, b = placed[i], placed[j]
                max_reach = a.r + b.r + 2 * r
                dx, dy = b.x - a.x, b.y - a.y
                if dx * dx + dy * dy > max_reach * max_reach:
                    continue
                candidates.extend(_tangent_positions(a, b, r))
        best: tuple[float, float] | None = None
        best_cost = math.inf
        for x, y in candidates:
            if overlaps_any(x, y, r):
                continue
            cost = math.hypot(x, y)
            if cost < best_cost:
                best_cost = cost
                best = (x, y)
        if best is None:
            # defensive fallback: push outward past the current extent
            extent = max(math.hypot(c.x, c.y) + c.r for c in placed)
            best = (extent + r, 0.0)
        placed.append(_Circle(best[0], best[1], r))
        result[index] = best
    return [pos for pos in result]  # type: ignore[return-value]


def pack(root: PackNode, *, radius: float, padding: float = 3.0,
         leaf_radius_floor: float = 2.0) -> PackNode:
    """Lay out a hierarchy inside a circle of the given radius.

    Leaf radii are proportional to ``sqrt(value)``; each parent becomes the
    smallest circle enclosing its packed children plus ``padding``.  The
    whole layout is finally scaled and centred so the root has exactly the
    requested ``radius`` centred at the origin.
    """
    if radius <= 0:
        raise LayoutError(f"pack radius must be positive, got {radius}")
    if padding < 0:
        raise LayoutError("padding must be non-negative")

    def assign_depth(node: PackNode, depth: int) -> None:
        node.depth = depth
        for child in node.children:
            assign_depth(child, depth + 1)

    assign_depth(root, 0)

    def layout(node: PackNode) -> None:
        if node.is_leaf:
            if node.value < 0:
                raise LayoutError(f"leaf {node.id!r} has negative value")
            node.r = max(leaf_radius_floor, math.sqrt(max(node.value, 1e-9)))
            return
        for child in node.children:
            layout(child)
        radii = [child.r + padding for child in node.children]
        centers = pack_siblings(radii)
        for child, (x, y) in zip(node.children, centers):
            child.x, child.y = x, y
        enclosing = smallest_enclosing_circle(
            [_Circle(child.x, child.y, child.r + padding)
             for child in node.children])
        # recentre children on the enclosing circle's centre
        for child in node.children:
            child.x -= enclosing.x
            child.y -= enclosing.y
        node.r = enclosing.r + padding

    layout(root)

    scale = radius / root.r if root.r > 0 else 1.0

    def apply(node: PackNode, cx: float, cy: float) -> None:
        node.x = cx
        node.y = cy
        node.r *= scale
        for child in node.children:
            apply(child, cx + child.x * scale, cy + child.y * scale)

    # apply() reads child offsets before overwriting them, so walk top-down
    def apply_tree(node: PackNode, cx: float, cy: float) -> None:
        offsets = [(child, child.x, child.y) for child in node.children]
        node.x, node.y = cx, cy
        node.r *= scale
        for child, ox, oy in offsets:
            apply_tree(child, cx + ox * scale, cy + oy * scale)

    root_r = root.r
    apply_tree(root, 0.0, 0.0)
    root.r = root_r * scale
    return root
