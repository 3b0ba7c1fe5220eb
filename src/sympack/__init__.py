"""Exact-arithmetic toolkit for 4-dimensional symplectic ball packing."""

from .cremona import (PackingVector, ReductionTrace, max_equal_ball,
                      reduce_vector)
from .certifier import (Certificate, certify_packing,
                        decide_balls_into_ellipsoid, decide_packing,
                        check_directed_hypotheses, lambda_bound)
from .lattice import (BlowupForm, HomologyClass, class_invariants,
                      d_omega_bound, d_omega_search)
from .planner import (Curve, DiscAllocation, Polarization, basin_of_cross,
                      basin_of_disc, build_plan, liouville_flow,
                      partition_balls, perturb_allocation, plan_discs,
                      validate_polarization)
from .rationals import parse_rational, format_rational, rational_below
from .toric import (Ball, Ellipsoid, ProjectivePlane, PseudoBall,
                    parse_domain, validate_pseudo_ball, volume)
from .weights import ellipsoid_weights, weight_count, weight_sequence

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
