"""Performance analysis on the real ML stack: the empirical critical-batch
experiment (:mod:`repro.analysis.batch_scaling`)."""
