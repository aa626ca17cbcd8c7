"""Policy networks: state encoder, tree policy, flat baseline, crafting."""

from repro.attack.policies.base import CraftResult, SelectionResult
from repro.attack.policies.crafting_policy import CraftingPolicy
from repro.attack.policies.flat import FlatPolicy
from repro.attack.policies.hierarchical import HierarchicalTreePolicy
from repro.attack.policies.state import PolicyStateEncoder, SelectionPrefix

__all__ = [
    "SelectionResult",
    "CraftResult",
    "PolicyStateEncoder",
    "SelectionPrefix",
    "HierarchicalTreePolicy",
    "FlatPolicy",
    "CraftingPolicy",
]
