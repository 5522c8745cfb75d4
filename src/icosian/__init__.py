"""Exact quaternionic geometry: icosians, H4 reflections, and the snub 24-cell.

Everything is computed in the field Q(sqrt2, sqrt5), so each count, scalar
product, and incidence claim is proved by arithmetic rather than sampled to
machine precision.  The central objects: the binary polyhedral groups T, O,
I as unit quaternions; the E8 roots as icosians; the reflection groups W(H4)
and W(D4):C3 acting as quaternion pair transforms; the snub 24-cell carved
out of the 600-cell; and its dual with 96 kite-and-triangle cells.
"""

from .coxeter import (IDENTITY, OrbitPartition, Transform, TransformGroup,
                      a4xc2, build_group, orbit, orbit_decompose, reflection,
                      s3_of, s4_of, stabilizer, wd4c3, wh3xc2, wh4)
from .dual import (CELL_ROTATION, DualCell, DualComplex, cell_rotation_orbit,
                   dual_cell, dual_complex, dual_vertices, rotate_cell,
                   vertex_surroundings)
from .errors import (BadParameter, CapExceeded, CertificationFailed,
                     CoplanarityFailed, DegenerateInput, InvalidSelector,
                     NotInGoldenSubfield, NotInvariant, SearchFailed)
from .field import (HALF, ONE, SIGMA, SQRT2, SQRT5, TAU, ZERO, FieldElement,
                    field_sqrt)
from .groups import (ConjugacyClass, ConjugacyClassTable, QuaternionGroup,
                     QuaternionSet, binary_icosahedral, binary_octahedral,
                     binary_tetrahedral, closure, conjugacy_classes,
                     d4_weight_orbits, element_order, icosa_class_plus,
                     icosian_seed, t_prime)
from .polytope import (Cell, Cell120, PolytopeComplex, VertexFigure,
                       build_120cell, cell_census, edge_graph,
                       embedding_censuses, icosa_cell, projective_equal,
                       snub24_vertices, snub_census,
                       snub_embeddings_in_600cell, tetra_cells_at,
                       vertex_figure)
from .quaternion import E1, E2, E3, Q_ONE, Quaternion, canonical_sorted
from .roots import (appendix_decompositions, e8_roots, f4_roots,
                    format_appendix_table, h4_orbit, h4_simple_roots,
                    h4_weights, snub_sum_form)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "BadParameter", "CapExceeded", "CELL_ROTATION", "Cell", "Cell120",
    "CertificationFailed", "ConjugacyClass", "ConjugacyClassTable",
    "CoplanarityFailed", "DegenerateInput", "DualCell", "DualComplex",
    "E1", "E2", "E3", "FieldElement", "HALF", "IDENTITY", "InvalidSelector",
    "NotInGoldenSubfield", "NotInvariant", "ONE", "OrbitPartition",
    "PolytopeComplex", "Q_ONE", "Quaternion", "QuaternionGroup",
    "QuaternionSet", "SIGMA", "SQRT2", "SQRT5", "SearchFailed", "TAU",
    "Transform", "TransformGroup", "VertexFigure", "ZERO", "a4xc2",
    "appendix_decompositions", "binary_icosahedral", "binary_octahedral",
    "binary_tetrahedral", "build_120cell", "build_group", "canonical_sorted",
    "cell_census", "cell_rotation_orbit", "closure", "conjugacy_classes",
    "d4_weight_orbits",
    "dual_cell", "dual_complex", "dual_vertices", "e8_roots", "edge_graph",
    "embedding_censuses",
    "element_order", "f4_roots", "field_sqrt", "format_appendix_table",
    "h4_orbit", "h4_simple_roots", "h4_weights", "icosa_cell",
    "icosa_class_plus", "icosian_seed", "orbit", "orbit_decompose",
    "projective_equal", "reflection", "rotate_cell", "run_suite",
    "s3_of", "s4_of",
    "snub24_vertices", "snub_census", "snub_embeddings_in_600cell",
    "snub_sum_form", "stabilizer", "t_prime", "tetra_cells_at",
    "vertex_figure", "vertex_surroundings", "wd4c3",
    "wh3xc2", "wh4",
]
