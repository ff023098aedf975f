"""coxbound: visual-boundary classification for complete-graph-nerve Coxeter
groups, with Davis-complex balls, tessellation rendering, and exact
Sierpinski-carpet star embeddings."""

from .carpet import (CarpetApprox, CarpetStar, HoledDisk, K5Scaffold,
                     MarkedPoint, RoutingError, StarEmbedding,
                     build_carpet_approx, build_k5_scaffold, carpet_svg,
                     corridors, embed_star_in_carpet, excluded_t_values,
                     null_family_check, scaffold_svg, scaffold_to_json,
                     select_t_avoiding, star_family_point,
                     verify_k5_graph, verify_leg_family_disjointness,
                     verify_star_disjointness, verify_star_in_carpet)
from .classify import (BoundaryClass, ClassificationReport, classify_boundary,
                       euclidean_triple_scan, isolated_flats_check,
                       report_to_json, serre_fa_criterion)
from .davis import (DavisBall, LinkGraph, build_davis_ball, ball_to_json,
                    euler_characteristic, link_matches_nerve,
                    tessellation_svg, tessellation_triangles, vertex_link)
from .nerve import NerveComplex, build_nerve, is_complete_1d_nerve, nerve_to_json
from .system import (INF, CoxeterSystem, FiniteTypeVerdict, PresentationError,
                     complete_graph_system, cosine_matrix, format_system,
                     geometric_representation, irreducible_components,
                     is_finite_type, make_system, parse_system,
                     subgroup_order, triangle_type)
from .words import (COSET_BACKEND, CayleyBall, CosetTable, NormalForm,
                    cayley_ball, spherical_triangle_order, tits_normal_form,
                    todd_coxeter_enumerate, words_equal)

__version__ = "0.1.0"
