"""Numerical laboratory for invariant Hermitian geometry on Lie algebras.

Core objects: structure-constant brackets (lie_core), invariant exterior
calculus and Hermitian metrics (hermitian_forms), Levi-Civita / Bismut
connections with their Ricci objects (connections), the Bismut Ricci form
fast path (bismut_ricci), three geometric flows with monitors (flows),
reference algebras (catalog) and a batch CLI (cli).
"""

from .lie_core import (
    LieBracket,
    Subspace,
    act,
    bracket_norm_sq,
    center,
    from_real_structure,
    export_real_structure,
    jacobi_defect,
    nijenhuis_defect,
    nilpotency_step,
    principal_angles,
)
from .hermitian_forms import (
    HermitianMetric,
    InvariantForm,
    TamedForm,
    closedness_defect,
    codifferential,
    d_mu,
    form_inner,
    fundamental_form,
    lee_form,
    skt_defect,
    taming_margin,
)
from .connections import (
    Connection,
    CurvatureTensor,
    bismut,
    curvature,
    levi_civita,
    ricci_forms,
)
from .bismut_ricci import (
    eta,
    p_of_bracket,
    p_of_metric,
    rho_B,
    static_defect,
)
from .flows import (
    FlowTrajectory,
    IntegratorConfig,
    bracket_flow,
    hs_flow,
    pluriclosed_flow,
)
from . import catalog

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
