"""Normalized ground states of radial nonlinear Schrodinger equations.

Library layout:
    models   nonlinearity / potential definitions and hypothesis classifiers
    grids    radial grids, quadrature, discrete Laplacian
    energy   functionals, identity residuals, fiber map
    flow     constrained minimizer: shifted bordered Newton on the mass sphere
    oracle   reference solutions for pure power nonlinearities (N = 1 closed form)
    curves   energy-curve scans, threshold bisection, spectral infimum
    cli      command-line front end
"""

__version__ = "0.1.0"
