"""Application registry: Gordon Bell finalists (Section IV-A) and the
extreme-scale training configurations of Section IV-B."""

from repro.apps.extreme_scale import EXTREME_SCALE_APPS, ExtremeScaleApp
from repro.apps.registry import (
    GORDON_BELL_FINALISTS,
    GordonBellFinalist,
    gordon_bell_table,
)

__all__ = [
    "EXTREME_SCALE_APPS",
    "ExtremeScaleApp",
    "GORDON_BELL_FINALISTS",
    "GordonBellFinalist",
    "gordon_bell_table",
]
