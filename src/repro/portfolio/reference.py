"""Paper-reported survey statistics, with per-value provenance.

Two provenance classes:

- ``stated`` — the number appears in the paper's text or tables verbatim
  (e.g. "147 INCITE project-years", "20% in 2019", "about 1/3 active").
- ``estimated`` — the paper shows the value only graphically (Figures 1-6
  are images) or implies it qualitatively; we commit to a concrete value
  consistent with every stated constraint and the narrative (e.g. Biology
  uses no grid Submodels; Engineering x Submodel is the most prominent
  cell; the top five motifs cover over 3/4 of usage).

The synthetic portfolio generator consumes these tables; the analytics
recompute them from generated records; the expectation registry
(``repro verify``) judges each figure against these values. All
cross-table consistency (row/column sums, cohort totals) is enforced by
the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.machine.spec import SUMMIT
from repro.portfolio.taxonomy import AdoptionStatus, Domain, MLMethod, Motif, Program

# ---------------------------------------------------------------------------
# Cohort sizes (Section III intro — all `stated` totals):
#   662 project-years: INCITE 147, ALCC 72, DD 352, COVID non-DD 12, ECP 62,
#   Gordon Bell 17. Figures 1-5 exclude Gordon Bell (645 project-years).
# Per-year splits within a program are `estimated`.
# Each entry: (program, year) -> (total, active, inactive).
# ---------------------------------------------------------------------------

PROGRAM_YEAR_TABLE: dict[tuple[Program, int], tuple[int, int, int]] = {
    # INCITE: 147 total (stated); 2019 active 20% (stated);
    # 2022 active ~31%, inactive ~28% (stated in conclusions).
    (Program.INCITE, 2019): (35, 7, 8),
    (Program.INCITE, 2020): (36, 9, 9),
    (Program.INCITE, 2021): (37, 10, 9),
    (Program.INCITE, 2022): (39, 12, 11),
    # ALCC: 72 total (stated); "large subset of a smaller number of
    # projects" used AI in 2019-20 (stated qualitatively).
    (Program.ALCC, 2019): (20, 9, 1),
    (Program.ALCC, 2020): (25, 8, 2),
    (Program.ALCC, 2021): (27, 9, 2),
    # DD: 352 total (stated); "very large number of projects, many using
    # AI/ML" (stated qualitatively).
    (Program.DD, 2019): (110, 38, 2),
    (Program.DD, 2020): (120, 43, 3),
    (Program.DD, 2021): (122, 45, 3),
    # COVID non-DD: 12 total (stated); "use AI/ML heavily" (stated).
    (Program.COVID, 2020): (12, 9, 0),
    # ECP: 62 total (stated); "use AI/ML less" (stated).
    (Program.ECP, 2020): (62, 9, 2),
}

#: Figure 1 targets: "1/3 ... actively used" and "another 8% indirect use"
#: (both stated). Derived from the table above: 208/645 and 52/645.
FIG1_EXPECTED = {
    AdoptionStatus.ACTIVE: 208 / 645,
    AdoptionStatus.INACTIVE: 52 / 645,
    AdoptionStatus.NONE: 385 / 645,
}

# ---------------------------------------------------------------------------
# Figure 4: domain totals and AI adoption per domain over the 645
# project-years. Totals per domain are `estimated`; the ordering constraints
# are stated: Biology, Computer Science and Materials are the top AI users;
# Engineering / Earth Science / Fusion have notable `inactive` counts.
# Each entry: domain -> (total, active, inactive).
# ---------------------------------------------------------------------------

DOMAIN_TABLE: dict[Domain, tuple[int, int, int]] = {
    Domain.BIOLOGY: (96, 52, 4),
    Domain.CHEMISTRY: (39, 3, 2),
    Domain.COMPUTER_SCIENCE: (62, 50, 2),
    Domain.EARTH_SCIENCE: (56, 14, 9),
    Domain.ENGINEERING: (89, 22, 14),
    Domain.FUSION_PLASMA: (54, 13, 8),
    Domain.MATERIALS: (101, 40, 6),
    Domain.NUCLEAR_ENERGY: (30, 2, 1),
    Domain.PHYSICS: (118, 12, 6),
}

#: Figure 3: ML-method split among AI (active + inactive) projects.
#: "DL/NN methods are much more prevalent than others" (stated); the split
#: is `estimated`.
METHOD_SHARES: dict[MLMethod, float] = {
    MLMethod.DEEP_LEARNING: 0.60,
    MLMethod.OTHER: 0.25,
    MLMethod.UNDETERMINED: 0.15,
}

# ---------------------------------------------------------------------------
# Figures 5-6 basis: AI projects in INCITE + ALCC + ECP only (stated
# methodology). From PROGRAM_YEAR_TABLE: INCITE 75 AI + ALCC 31 + ECP 11
# = 117 project-years.
# ---------------------------------------------------------------------------

FIG56_PROGRAMS = (Program.INCITE, Program.ALCC, Program.ECP)
FIG56_COHORT = 117

#: Figure 5 motif counts over the 117-project cohort. Stated constraints:
#: Submodel is the top motif; Submodel + Classification + Analysis +
#: Surrogate + MD Potentials account for over 3/4 of usage. Counts are
#: `estimated` subject to those constraints.
MOTIF_COUNTS: dict[Motif, int] = {
    Motif.SUBMODEL: 26,
    Motif.CLASSIFICATION: 19,
    Motif.ANALYSIS: 16,
    Motif.SURROGATE_MODEL: 15,
    Motif.MD_POTENTIAL: 14,
    Motif.STEERING: 7,
    Motif.ML_MODSIM_LOOP: 6,
    Motif.MATH_CS_ALGORITHM: 5,
    Motif.VARIOUS: 5,
    Motif.UNDETERMINED: 3,
    Motif.FAULT_DETECTION: 1,
}

#: Figure 6 domain totals for the same cohort (`estimated`).
FIG6_DOMAIN_TOTALS: dict[Domain, int] = {
    Domain.BIOLOGY: 25,
    Domain.CHEMISTRY: 3,
    Domain.COMPUTER_SCIENCE: 23,
    Domain.EARTH_SCIENCE: 10,
    Domain.ENGINEERING: 16,
    Domain.FUSION_PLASMA: 9,
    Domain.MATERIALS: 21,
    Domain.NUCLEAR_ENERGY: 2,
    Domain.PHYSICS: 8,
}

_DOMAIN_ORDER = (
    Domain.BIOLOGY,
    Domain.CHEMISTRY,
    Domain.COMPUTER_SCIENCE,
    Domain.EARTH_SCIENCE,
    Domain.ENGINEERING,
    Domain.FUSION_PLASMA,
    Domain.MATERIALS,
    Domain.NUCLEAR_ENERGY,
    Domain.PHYSICS,
)

#: Figure 6: motif x domain counts. `estimated`, honouring every stated
#: narrative constraint: Engineering x Submodel is the single most prominent
#: cell; Earth Science also uses Submodels; Biology uses NO Submodels (its
#: at-scale ML is MD Potentials / Steering / Classification); Materials is
#: the heavy MD-Potentials user, Fusion/Plasma a lighter one; Computer
#: Science is Classification-heavy with NO Math/CS-Algorithm entries; the
#: Various umbrella (CAAR/ESP/NESAP readiness) sits in Computer Science.
#: Rows and columns sum exactly to MOTIF_COUNTS / FIG6_DOMAIN_TOTALS (tested).
MOTIF_DOMAIN_MATRIX: dict[Motif, dict[Domain, int]] = {
    motif: dict(zip(_DOMAIN_ORDER, row))
    for motif, row in {
        Motif.SUBMODEL: (0, 1, 0, 3, 13, 1, 3, 1, 4),
        Motif.CLASSIFICATION: (6, 0, 12, 0, 0, 0, 0, 0, 1),
        Motif.ANALYSIS: (4, 1, 3, 3, 0, 2, 2, 0, 1),
        Motif.SURROGATE_MODEL: (3, 1, 2, 2, 2, 3, 1, 1, 0),
        Motif.MD_POTENTIAL: (2, 0, 0, 0, 0, 3, 9, 0, 0),
        Motif.STEERING: (4, 0, 0, 0, 0, 0, 3, 0, 0),
        Motif.ML_MODSIM_LOOP: (3, 0, 0, 1, 1, 0, 1, 0, 0),
        Motif.MATH_CS_ALGORITHM: (2, 0, 0, 1, 0, 0, 1, 0, 1),
        Motif.FAULT_DETECTION: (0, 0, 0, 0, 0, 0, 1, 0, 0),
        Motif.VARIOUS: (0, 0, 5, 0, 0, 0, 0, 0, 0),
        Motif.UNDETERMINED: (1, 0, 1, 0, 0, 0, 0, 0, 1),
    }.items()
}

# ---------------------------------------------------------------------------
# Table III: Gordon Bell finalist counts (all `stated`).
# (year, category) -> (summit_finalists, summit_ai_ml_finalists)
# ---------------------------------------------------------------------------

GORDON_BELL_TABLE: dict[tuple[int, str], tuple[int, int]] = {
    (2018, "std"): (5, 3),
    (2019, "std"): (2, 0),
    (2020, "std"): (4, 1),
    (2020, "covid"): (2, 2),
    (2021, "std"): (1, 1),
    (2021, "covid"): (3, 3),
}

# ---------------------------------------------------------------------------
# Section IV-B extreme-scale results (all `stated`).
# ---------------------------------------------------------------------------

EXTREME_SCALE_CLAIMS = {
    "kurth": {
        "nodes": 4560,
        "peak_flops": 1.13e18,
        "efficiency": 0.907,
        "optimizer": "larc",
    },
    "yang": {
        "nodes": 4584,
        "peak_flops": 1.2e18,
        "efficiency": 0.93,
        "optimizer": "adam",
    },
    "laanait": {
        "nodes": 4600,
        "peak_flops": 2.15e18,
        "global_batch": 27600,
        "optimizer": "lars",
    },
    "khan": {
        "nodes": 1024,
        "baseline_nodes": 8,
        "efficiency": 0.80,
        "optimizer": "lamb",
    },
    "blanchard": {
        "nodes": 4032,
        "peak_flops": 603e15,
        "efficiency_with_io": 0.68,
        "efficiency_without_io": 0.833,
        "max_global_batch": 5.8e6,
        "optimizer": "lamb",
    },
}

# ---------------------------------------------------------------------------
# Section VI-B analytic claims (all `stated`).
# ---------------------------------------------------------------------------

SECTION_6B_CLAIMS = {
    "resnet50_read_requirement": 20e12,  # bytes/s aggregate, full Summit
    "gpfs_read_bandwidth": SUMMIT.fs_aggregate_read_bandwidth,
    "nvme_aggregate_read_bandwidth": 27e12,  # the paper says "over 27 TB/s";
    # the calibrated aggregate (SUMMIT.aggregate_nvme_read_bandwidth)
    # is 6 GB/s x 4608 = 27.6 TB/s
    "network_bandwidth": SUMMIT.injection_bandwidth,
    "allreduce_algorithmic_bandwidth": SUMMIT.algorithmic_bandwidth,
    "resnet50_allreduce_message": 100e6,  # "about 100MB"
    "bert_large_allreduce_message": 1.4e9,
    "resnet50_allreduce_time": 8e-3,  # "roughly 8 ms"
    "bert_large_allreduce_time": 110e-3,  # "roughly ... 110 ms"
}


def consistency_report() -> dict[str, bool]:
    """Cross-table consistency checks (also exercised by the test suite)."""
    totals = {}
    for program in Program:
        if program is Program.GORDON_BELL:
            continue
        totals[program] = sum(
            t for (p, _), (t, _, _) in PROGRAM_YEAR_TABLE.items() if p is program
        )
    active = sum(a for _, a, _ in PROGRAM_YEAR_TABLE.values())
    inactive = sum(i for _, _, i in PROGRAM_YEAR_TABLE.values())
    domain_total = sum(t for t, _, _ in DOMAIN_TABLE.values())
    domain_active = sum(a for _, a, _ in DOMAIN_TABLE.values())
    domain_inactive = sum(i for _, _, i in DOMAIN_TABLE.values())
    matrix = np.array(
        [[MOTIF_DOMAIN_MATRIX[m][d] for d in _DOMAIN_ORDER] for m in MOTIF_COUNTS]
    )
    return {
        "incite_147": totals[Program.INCITE] == 147,
        "alcc_72": totals[Program.ALCC] == 72,
        "dd_352": totals[Program.DD] == 352,
        "covid_12": totals[Program.COVID] == 12,
        "ecp_62": totals[Program.ECP] == 62,
        "study_total_645": sum(totals.values()) == 645,
        "active_matches_domains": active == domain_active,
        "inactive_matches_domains": inactive == domain_inactive,
        "domain_total_645": domain_total == 645,
        "fig56_cohort_117": sum(MOTIF_COUNTS.values()) == FIG56_COHORT,
        "matrix_rows_match": all(
            int(matrix[i].sum()) == count
            for i, count in enumerate(MOTIF_COUNTS.values())
        ),
        "matrix_cols_match": all(
            int(matrix[:, j].sum()) == FIG6_DOMAIN_TOTALS[d]
            for j, d in enumerate(_DOMAIN_ORDER)
        ),
    }
