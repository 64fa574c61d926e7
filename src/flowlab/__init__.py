"""flowlab: numerical laboratory for rescaled shadowing and hyperbolicity
diagnostics of smooth flows on Euclidean boxes."""

__version__ = "0.1.0"

from .fields import (Box, OrbitSegment, VectorFieldSpec, custom_field,
                     estimate_lipschitz, evaluate, flow, flow_points,
                     make_field, sample_orbit)
from .flowbox import (FlowboxChart, chart_radius, flowbox_invert, make_chart,
                      verify_box_bounds)
from .poincare import (NormalFrame, NormalMap, linear_poincare,
                       section_radius, sectional_poincare)
from .reparam import (Reparametrization, admissible_delta, crossing_sequence,
                      drift_bounds_check, fit_reparametrization,
                      rescaled_sup_distance)
from .hyperbolic import (CocycleSpec, NormalSplitting, TangentSplitting,
                         check_domination, estimate_normal_splitting,
                         evaluate_cocycle, induce_from_tangent_splitting,
                         rebalance_sequence)
from .blockseq import (BlockSequenceSystem, angle, assemble_block_system,
                       contraction_bound, solve_fixed_point)
from .expansive import (ScanConfig, ScanReport, epsilon0_estimate,
                        expansiveness_scan, nonsingular_equivalence_probe,
                        replay_witness)
