"""Exact monodromy computations over products of finite discrete groups."""

from .action import (Automorphism, Basis, act_word, algebraic_basis, decompose, recompose,
                     tree_basis)
from .commutators import (delta_identity_check, iterated_commutator,
                          magnus_weight, product_expansion_check)
from .complexes import (CubicalComplex, SimplicialComplex, build_complex,
                        full_simplex, h1, parse_complex_spec, zero_complex)
from .fibre import FibreGraph, betti_one, build_fibre_graph, rank_formula
from .groups import (FiniteGroup, make_cyclic, make_dihedral, make_symmetric,
                     parse_group_spec)
from .intmatrix import (IntMatrix, abelianize, cyclic_closed_form, determinant,
                        representation_report)
from .words import (Word, commutator, invert, is_in_kernel, multiply, parse_word, project,
                    reduce_word)

__version__ = "0.1.0"
