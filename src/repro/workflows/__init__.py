"""AI-coordinated workflow machinery and the Section V case studies.

- :mod:`repro.workflows.dag` — task graphs executed on the discrete-event
  engine (the Balsam/RAPTOR orchestration role);
- :mod:`repro.workflows.facility` — multi-facility placement (Summit,
  Perlmutter, ThetaGPU, Cerebras CS-2 — the cross-facility campaign of
  Trifan et al.);
- ``case_materials`` / ``case_biology`` / ``case_drug`` — the three
  Section V case studies end to end, each running its own AI–simulation
  loop: a cluster-expansion surrogate refined inside Monte Carlo, an
  autoencoder-flagged outlier triggering atomistic refinement, and a
  random forest re-ranking a docking library every round;
- ``case_analysis`` / ``case_fault`` / ``case_nas`` / ``case_submodel`` —
  the Table I motif rows (analysis, fault detection, hyperparameter
  search, submodel) reproduced at laptop scale.

The package re-exports nothing: import from the submodules, so that the
DAG executor never loads the ML stack the case studies use.
"""
