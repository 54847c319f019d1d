"""Gaussian graphical model inference with hidden nodes by spanning-tree aggregation."""

from .em import FitOptions, FitResult, edge_posteriors, fit
from .fixed_tree import FixedTreeFit, fit_fixed_tree
from .graphs import Graph
from .matrices import EmpiricalCovariance, PartitionedPrecision
from .selection import SelectionReport, select
from .simulate import GroundTruth, make_ground_truth

__version__ = "0.1.0"

__all__ = [
    "EmpiricalCovariance",
    "FitOptions",
    "FitResult",
    "FixedTreeFit",
    "Graph",
    "GroundTruth",
    "PartitionedPrecision",
    "SelectionReport",
    "edge_posteriors",
    "fit",
    "fit_fixed_tree",
    "make_ground_truth",
    "select",
]
