"""Interconnect models.

The paper's communication analysis (Section VI-B) rests on two facts about
Summit's network: each node injects at 25 GB/s (dual-rail EDR InfiniBand) and
ring-based allreduce achieves half the injection bandwidth algorithmically.
This package provides:

- :mod:`repro.network.link` — alpha-beta (latency/bandwidth) link model;
- :mod:`repro.network.topology` — non-blocking fat-tree construction
  (networkx) matching Summit's three-level EDR fabric;
- :mod:`repro.network.routing` — static vs. adaptive routing and link
  congestion accounting;
- :mod:`repro.network.collectives` — allreduce cost models (ring,
  recursive doubling, binomial tree) and the paper's ``M / (B/2)`` estimate.

The package re-exports nothing: import from the submodules, so that a
link or collective model never loads the networkx graph stack.
"""
