"""Random walks, radial Fourier analysis and heat kernels on the Poincare ball."""

__version__ = "0.1.0"

from .geometry import Dimension, sphere_area
from .gyro import BoundaryError
from .heat_kernel import hk, hk_even, hk_fourier, hk_odd, psi_clt
from .radial_density import (RadialProfile, cdf_eta, limit_time, make_bump,
                             make_table, mean_eta, pdf_eta, profile_from_config,
                             scale_profile, second_moment)
from .spectral import (fh_inverse_grid, fh_transform, inversion_constant, phi_many,
                       plancherel_density, variance_direct, walk_density_grid,
                       walk_transform)
from .diagnostics import (Verdict, clt_check, gyro_property_suite, lln_check,
                          llt_check, variance_rate_check)
from .walk_sim import WalkConfig, run_walk
