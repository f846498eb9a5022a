"""Exact-arithmetic engine for graded complex semisimple Lie algebras."""

__version__ = "0.1.0"

from .rootsystem import LieType, RootSystem, build_root_system
from .chevalley import ChevalleyAlgebra, Element, build_algebra
from .grading import KacLabels, RootGrading, ZGrading, ZmGrading, kac_labels, kac_lift_check, root_grading, z_grading_from_labels, zm_from_kac
from .vinberg import Sl2Triple, VinbergPair, generic_element, jm_regular, jm_triple, orbit_dimension, pair_rank, regrade, vinberg_pair
from .quaternionic import QuaternionicData, amw_interval, build_quaternionic, quaternionic_ranks
from .quiver import QuiverDims, QuiverHiggsTopology, toledo_invariant
from .cayley import CayleyData, bracket_projection_test, cayley_pair
from .amw import BoundInput, amw_lower, amw_upper, tau
