"""Exact-arithmetic engine for graded complex semisimple Lie algebras."""

__version__ = "0.1.0"

from .rootsystem import LieType, RootSystem, build_root_system
from .chevalley import ChevalleyAlgebra, build_algebra
from .grading import KacLabels, ZGrading, ZmGrading, kac_labels, kac_lift_check, z_grading_from_labels, zm_from_kac
from .vinberg import Sl2Triple, VinbergPair, generic_element, jm_regular, jm_triple, orbit_dimension, pair_rank, regrade, toledo_rank, vinberg_pair
from .quaternionic import QuaternionicData, build_quaternionic, quaternionic_ranks
from .quiver import QuiverDims, QuiverHiggsTopology, toledo_invariant
from .cayley import CayleyData, bracket_projection_test, cayley_pair
from .amw import RANK_TABLE, BoundInput, amw_lower, amw_upper, coarse_interval, quaternionic_interval, tau
