"""AI-coordinated workflow machinery and the Section V case studies.

- :mod:`repro.workflows.dag` — task graphs executed on the discrete-event
  engine (the Balsam/RAPTOR orchestration role);
- :mod:`repro.workflows.facility` — multi-facility placement (Summit,
  Perlmutter, ThetaGPU, Cerebras CS-2 — the cross-facility campaign of
  Trifan et al.);
- :mod:`repro.workflows.steering` — the DeepDriveMD steering pattern:
  autoencoder-scored outlier detection redirecting simulation ensembles;
- :mod:`repro.workflows.active_learning` — surrogate refinement loops;
- ``case_materials`` / ``case_drug`` / ``case_biology`` — the three
  Section V case studies end to end.

The package re-exports nothing: import from the submodules, so that the
DAG executor never loads the ML stack that steering and active learning
use.
"""
