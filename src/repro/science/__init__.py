"""Science substrates: the driver simulations behind the Section V workflows.

Real, laptop-scale implementations standing in for the production codes the
paper's case studies run on Summit (see DESIGN.md substitution table):

- :mod:`repro.science.ising` — binary-alloy lattice model with Metropolis
  Monte Carlo (stands in for the LSMS-driven statistical mechanics of
  Liu et al.); its order-disorder transition is an exact, known target.
- :mod:`repro.science.cluster_expansion` — linear cluster-expansion energy
  model with Bayesian-information-criterion term selection (Zhang et al.).
- :mod:`repro.science.md` — Lennard-Jones molecular dynamics mini-engine
  (stands in for NAMD/OpenMM in the multiscale and fault-detection
  workflows).
- :mod:`repro.science.potentials` — pair potentials, including a
  machine-learned potential trained on reference data (the "MD potentials"
  motif of Jia / Nguyen-Cong et al.).
- :mod:`repro.science.ffea` — coarse mass-spring continuum model (stands in
  for fluctuating finite-element analysis in Trifan et al.).
- :mod:`repro.science.docking` — synthetic compound-binding landscape with
  cheap (docking) and expensive (MD-refined) scoring tiers (Glaser /
  Blanchard / IMPECCABLE-style drug pipelines);
- :mod:`repro.science.solver` — ML-enhanced conjugate-gradient solver with
  a snapshot-learned deflation space (the "math/cs algorithm" motif;
  Ichimura et al., Gordon Bell 2018).
"""

from repro.science.cluster_expansion import ClusterExpansion, bic_select
from repro.science.docking import CompoundLibrary, DockingOracle
from repro.science.ffea import MassSpringModel
from repro.science.ising import AlloyLattice, MonteCarlo, exact_critical_temperature
from repro.science.lorenz96 import L96Params, ReducedLorenz96, TwoScaleLorenz96
from repro.science.md import LennardJonesMD, MDState
from repro.science.potentials import LennardJonesPotential, MLPairPotential
from repro.science.solver import (
    ConjugateGradient,
    LearnedDeflation,
    VariableCoefficientPoisson,
)

__all__ = [
    "AlloyLattice",
    "ClusterExpansion",
    "CompoundLibrary",
    "ConjugateGradient",
    "DockingOracle",
    "L96Params",
    "LearnedDeflation",
    "ReducedLorenz96",
    "TwoScaleLorenz96",
    "VariableCoefficientPoisson",
    "LennardJonesMD",
    "LennardJonesPotential",
    "MDState",
    "MLPairPotential",
    "MassSpringModel",
    "MonteCarlo",
    "bic_select",
    "exact_critical_temperature",
]
