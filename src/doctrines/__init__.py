"""Finite doctrines workbench: indexed posets, interior operators, adjunctions,
comonads, and fixed-point temporal semantics, all machine-checked at desk scale."""

__version__ = "0.1.0"

from .adjunction import (  # noqa: F401
    DoctrineAdjunction,
    adjunction_violations,
    am_modality,
    base_change_adjunction,
    factorize,
    factorize2_report,
    factorize2_violations,
    triviality_violations,
    vertical_adjunction,
    vertical_modality,
)
from .comonad import (  # noqa: F401
    DoctrineComonad,
    cm_modality,
    cmd_of_adjunction,
    comonad_violations,
    em_adjunction,
    em_doctrine,
    ma,
    mc,
)
from .doctrine import Doctrine, OneArrow, TwoArrow, doctrine_violations, one_arrow_violations  # noqa: F401
from .fincat import FinCategory, Functor, NatTransformation, check_category  # noqa: F401
from .interior import InteriorOp, interior_violations, stable_elements, stable_subdoctrine  # noqa: F401
from .order import FinLattice, FinPoset, MonotoneMap, check_poset, graph_map, monotone_violations  # noqa: F401
from .temporal import FCoalgebra, gfp_modality, temporal_doctrine  # noqa: F401
