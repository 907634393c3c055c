"""Exact Lin-Lu-Yau curvature, matching witnesses, and spectral checks for amply regular graphs."""

from .curvature import (
    CurvatureError,
    CurvatureTable,
    certify_assignments,
    curvature_all_edges,
    kantorovich_potential,
    kappa_p_all_edges,
    lly_curvature,
    mu_p,
    ollivier_kappa_p,
    wasserstein,
)
from .generators import (
    gen_clebsch,
    gen_cocktail,
    gen_complete,
    gen_cycle,
    gen_hamming,
    gen_hypercube,
    gen_paley,
    gen_product,
    gen_shrikhande,
)
from .graph import (
    AmplyParams,
    AmplyViolation,
    Graph,
    GraphError,
    detect_amply_params,
    dump_edge_list,
    edge_partition,
    load_edge_list,
)
from .matching import Bipartite, MatchingError, dense_perfect_matching, konig_decomposition
from .report import VerificationReport, verify_graph
from .search import infeasibility_reason, search_amply
from .spectral import (
    IntersectionArray,
    NotDistanceRegular,
    PsdCertificate,
    PsdFailure,
    SpectralError,
    Spectrum,
    adjacency_spectrum,
    distance_regular,
    lambda1,
    second_largest,
    sigma2_at_most,
    sigma2_bareiss,
    sigma2_sturm,
)
from .witness import (
    EdgeWitness,
    TransportBipartite,
    WitnessBatch,
    WitnessError,
    edge_witness,
    prop_3_1_certificate,
    witness_batches,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
