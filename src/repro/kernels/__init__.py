"""CAS-generated, alias-free, matrix-free, quadrature-free DG kernels."""

from .flops import (
    compare_costs,
    four_sided_kernels,
    modal_update_multiplications,
    modal_update_traffic,
    nodal_update_multiplications,
)
from .generator import (
    FaceKernels,
    FluxSpec,
    FluxTerm,
    generate_face_termsets,
    generate_moment_termset,
    generate_multiply_termset,
    generate_volume_termset,
)
# NOTE: GroupedOperator lives in repro.kernels.grouped and is imported from
# there directly — importing it here would cycle through repro.engine, whose
# plans consume this package's termsets.
from .registry import get_lbo_kernels, get_vlasov_kernels, registry_stats
from .termset import Term, TermSet, merge_termsets, stack_termsets
from .vlasov import VlasovKernels, acceleration_flux, build_vlasov_kernels, streaming_flux

__all__ = [
    "TermSet",
    "Term",
    "merge_termsets",
    "stack_termsets",
    "FluxSpec",
    "FluxTerm",
    "generate_volume_termset",
    "FaceKernels",
    "generate_face_termsets",
    "generate_moment_termset",
    "generate_multiply_termset",
    "VlasovKernels",
    "build_vlasov_kernels",
    "streaming_flux",
    "acceleration_flux",
    "get_vlasov_kernels",
    "get_lbo_kernels",
    "registry_stats",
    "compare_costs",
    "four_sided_kernels",
    "modal_update_multiplications",
    "modal_update_traffic",
    "nodal_update_multiplications",
]
