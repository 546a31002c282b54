"""configeo: a desk-scale workbench for point-configuration geometry.

Generators for structured point sets, exact delta-approximate configuration
counting, discrete Riesz-type energies, threshold/exponent scans, and
Fourier-decay / curvature measurements of configuration measures.
"""

__version__ = "0.1.0"

from .configcount import (
    BoxDimReport,
    ConfigQuery,
    CountReport,
    PhiFunction,
    box_dim,
    count_angle,
    count_area2,
    count_phi,
    count_simplex,
    count_simplex_brute,
    count_volume,
    distinct_classes,
    run_query,
)
from .energy import EnergyReport, discrete_energy, energy_profile, is_adaptable
from .errors import CapacityError, CoincidentPointsError, ConfigeoError, InfeasibleError
from .expfit import (
    ScanReport,
    ScanSpec,
    count_exponent,
    fit_slope,
    run_scan,
    threshold,
)
from .fourierlab import (
    DecayReport,
    FrequencyPoint,
    MeasureSpec,
    decay_fit,
    ft_montecarlo,
    ft_quadrature,
    ft_sphere,
    ft_sphere_radial,
    ft_triangle,
    level_set_curvatures,
    nonzero_curvature_count,
    phase_hessian,
    phase_plane_discriminant,
    phase_plane_form,
    sphere_area,
)
from .pointgen import (
    GeneratorSpec,
    PointSet,
    PointSetMeta,
    gen_cantor,
    gen_coplanar,
    gen_homogeneous,
    gen_lattice,
    gen_random,
    generate,
    load_pointset,
    save_pointset,
)

__all__ = [name for name in dir() if not name.startswith("_")]
