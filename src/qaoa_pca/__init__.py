"""PCA-reparameterized QAOA for MaxCut on exact statevector simulation.

Train full-parameter circuits on small graph families, fit a principal
component model to the optimized angles, then optimize only a few component
coefficients on unseen instances and compare both methods with paired
nonparametric tests.
"""

__version__ = "0.1.0"
