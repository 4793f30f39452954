"""1D harmonic oscillator with energy-dependent frequency: spectrum,
thermodynamics and information measures under the modified scalar product."""

from .errors import DomainError, NonConvergence, NonPositiveEnergy, NotReached
from .information import (cramer_rao, entropy_density, fisher_closed,
                          fisher_numeric, moments, shannon_entropy)
from .quadrature import gaussian_window, integrate
from .spectrum import (DensityMode, EnergyLevel, ModelParams, eigenvalue,
                       residual, saturation_index, saturation_limit)
from .thermo import (ThermoPoint, reference_partition_function,
                     specific_heat_curve)
from .wavefunction import (density, density_gradient_sq_terms, perey_factor,
                           psi, psi_prime, weight, weight_coefficient)

__version__ = "0.1.0"
