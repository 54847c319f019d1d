"""Gaussian graphical model inference with hidden nodes by spanning-tree aggregation."""

from .em import (
    EStepState,
    FitOptions,
    FitResult,
    e_step,
    edge_posteriors,
    fit,
    joint_entropy,
    m_step,
    observed_loglik,
    tree_entropy,
    uniform_prior,
)
from .fixed_tree import FixedTreeFit, fit_fixed_tree
from .graphs import Graph
from .matrices import EmpiricalCovariance, PartitionedPrecision
from .selection import SelectionReport, penalty, select
from .simulate import GroundTruth, make_ground_truth
from .spanning_trees import edge_marginals, log_partition_function
from .tree_gaussian import log_marginal_tree_weight, tree_precision_from_cov

__version__ = "0.1.0"

__all__ = [
    "EStepState",
    "EmpiricalCovariance",
    "FitOptions",
    "FitResult",
    "FixedTreeFit",
    "Graph",
    "GroundTruth",
    "PartitionedPrecision",
    "SelectionReport",
    "e_step",
    "edge_marginals",
    "edge_posteriors",
    "fit",
    "fit_fixed_tree",
    "joint_entropy",
    "log_marginal_tree_weight",
    "log_partition_function",
    "m_step",
    "make_ground_truth",
    "observed_loglik",
    "penalty",
    "select",
    "tree_entropy",
    "tree_precision_from_cov",
    "uniform_prior",
]
