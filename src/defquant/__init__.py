"""defquant: symbolic-numeric workbench for deformation quantization.

Layers, bottom up:

- exactnum / exactpoly: exact Gaussian-rational scalars and sparse
  polynomial jets.
- graphs: admissible upper-half-plane graphs, enumeration, canonical forms.
- propagators: the one-parameter interpolation family of angle one-forms
  on the half-plane and the disk.
- weight_mc: configuration-space Monte Carlo graph weights, the two-valent
  disk integrals, weights as polynomials in the interpolation parameter
  read from one sample stream, and the tiered weight source (exact table
  > cache > sampling).  The polynomials' reflection relations are gated
  at roundoff: they re-check the propagators' conjugation identity
  phi_{1-cj lam} = cj phi_lam through the integrand, not the integral.
- series: wheel zeta values, the 2-wheel shadow sum and its displayed
  combination, each with a rigorous bound; exact harmonic identities.
- star: graph operators on polynomial data and the order-2 star product
  with error propagation into associativity residuals.
- weyl / fedosov: truncated formal Weyl algebra, the curved connection
  fixed point, Catalan-tree expansion, and the resulting star product.
- geodesics: covariant exponential-map series with an ODE oracle.
- acceptance / cli: the gated acceptance suite and the command-line front.
"""

__version__ = "0.1.0"
