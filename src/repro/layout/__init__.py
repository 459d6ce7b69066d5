"""Layout models: area estimation (Figs. 6/10), common-centroid
placement and the matching consequences of placement."""

from repro.layout.area import (
    AreaBreakdown,
    estimate_area_mm2,
    estimate_mic_amp_area_mm2,
)
from repro.layout.common_centroid import (
    Placement,
    common_centroid_pattern,
    gradient_imbalance,
    interdigitated_pattern,
)
from repro.layout.matching import placement_sigma_vt, worst_case_offset

__all__ = [
    "AreaBreakdown",
    "Placement",
    "common_centroid_pattern",
    "estimate_area_mm2",
    "estimate_mic_amp_area_mm2",
    "gradient_imbalance",
    "interdigitated_pattern",
    "placement_sigma_vt",
    "worst_case_offset",
]
