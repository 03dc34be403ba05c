"""Logical entropies of classical partitions and quantum states."""

# set before the submodule imports: reports reads it while the package loads
__version__ = "0.1.0"

from .channels import InteractionBlocks, interaction_blocks, prop6_bounds
from .linalg import (
    HermitianEigenSystem,
    hermitian_eig,
    psd_sqrt,
    tensor_product,
)
from .partitions import (
    SetPartition,
    dit_count,
    distribution_logical_entropy,
    partition_logical_entropy,
    two_draw_distinction_mc,
)
from .postselect import (
    GeneralizedDensity,
    PrePostPair,
    abl_probabilities,
    postselected_logical_entropy,
    pre_post_state,
    relation_diagnostic,
    weak_logical_entropy,
    weak_values,
)
from .propositions import (
    PropositionResult,
    SamplerConfig,
    strong_subadditivity_search,
    two_draw_quantum_mc,
    verify_proposition,
)
from .sampling import sample_density, sample_pvm, sample_unitary
from .states import (
    DensityMatrix,
    Pvm,
    basis_decomposition_check,
    conditional_states,
    fidelity,
    logical_divergence,
    logical_entropy,
    measured_state,
    purity,
    pvm_logical_entropy,
    relative_logical_entropy,
)
