"""Spectral-truncation LQ control for wave-type systems.

Library layout:

* ``spectral``    -- modal vectors, energy coordinates, the weighted norm scale
* ``models``      -- interval / star-network / rectangle / synthetic systems,
                     Gramians, weak-observability exponent fits
* ``riccati``     -- the exact Hamiltonian step-map kernel, differential and
                     algebraic Riccati solvers, value, bounds
* ``closed_loop`` -- collocated / Riccati-feedback / backward-observer loops,
                     HUM steering, decay fits, the sequence-lemma roll-out
* ``turnpike``    -- stationary problem, finite-horizon tracking, averaged
                     turnpike metrics
* ``serialize``   -- JSON/CSV formats
* ``cli``         -- config-driven experiment runner (``wavelq`` entry point)
"""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    DimensionError,
    DomainError,
    EnergyState,
    ModalVector,
    NormScale,
    energy_norm_squared,
    to_energy,
)
from .models import (  # noqa: F401
    ConsistencyError,
    ObservabilityReport,
    SpectralSystem,
    build_interval_wave,
    build_rectangle,
    build_star_network,
    build_synthetic,
    build_synthetic_exponential,
    controllability_gramian,
    fit_weak_observability,
    observability_gramian,
    shell_constant,
)
from .riccati import (  # noqa: F401
    BoundsReport,
    MethodError,
    RiccatiSolution,
    StabilizabilityError,
    bounds_report,
    first_order_matrices,
    integrate_dre,
    solve_are,
    value,
)
from .closed_loop import (  # noqa: F401
    DecayFit,
    HumControl,
    Trajectory,
    default_decay_window,
    energy_identity_defect,
    fit_decay,
    hum_null_control,
    sequence_lemma_check,
    simulate_backward_observer,
    simulate_collocated,
    simulate_riccati_feedback,
    smooth_initial_state,
)
from .turnpike import (  # noqa: F401
    StationarySolution,
    TrackingIntegrals,
    TrackingSolution,
    TurnpikeReport,
    averaged_metrics,
    g_weight,
    solve_stationary,
    solve_tracking,
    tracking_integrals,
    tracking_os_residual,
)
