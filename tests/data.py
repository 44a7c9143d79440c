"""Shared golden inputs: the worked 5-vertex complex, the minimal
6-vertex real projective plane, the 8-vertex dunce-hat triangulation
(boundary identified 1-3-2-1 on all three sides), the 7-vertex
square-with-diamond complex whose 2-closure has a unique non-facet
simplicial face {1,2}, and a 10-vertex complex whose 2-closure is
small but whose simplicial-order search is wide."""

EX0_FACETS = [[2, 5], [1, 4, 5], [1, 2, 3, 4]]

RP2_FACETS = [
    [1, 2, 4], [1, 3, 4], [1, 2, 6], [1, 3, 5], [1, 5, 6],
    [2, 3, 5], [2, 4, 5], [2, 3, 6], [3, 4, 6], [4, 5, 6],
]

HOLLOW_TETRA_FACETS = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]

DUNCE_HAT_FACETS = [
    [1, 3, 5], [1, 5, 6], [1, 3, 6],
    [2, 3, 5], [2, 4, 5], [1, 2, 4], [1, 3, 4],
    [2, 3, 8], [3, 4, 8], [1, 2, 8],
    [1, 7, 8], [1, 2, 7], [2, 3, 7], [3, 6, 7],
    [4, 5, 6], [4, 6, 8], [6, 7, 8],
]

FIG4_FACETS = [
    [2, 3, 7], [1, 3, 7], [2, 3, 4], [2, 4, 7],
    [1, 6, 7], [1, 3, 6], [2, 3, 6], [2, 5, 6],
    [1, 2, 5], [1, 4, 5], [1, 3, 4],
    [4, 6, 7], [4, 5, 6],
]

# an octahedron boundary (antipodal pairs 12, 34, 56) and twelve triangles
# joining it to 7..10: the 2-closure grows only the 45 edges and these 20
# triangles, and its exhaustive search needs more than 2000 nodes
BUDGET_GADGET_FACETS = [[x, y, z] for x in (1, 2) for y in (3, 4) for z in (5, 6)] + [
    [k % 6 + 1, 7 + k // 6, 9 + k % 2] for k in range(12)
]
