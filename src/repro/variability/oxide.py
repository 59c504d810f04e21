"""Oxide-thickness variation study.

Section 4 names the second fabrication-control variability source:
"Variability, for example, can come from the difficulty of control of
the GNR width *or oxide thickness* in fabrication."  The paper studies
width; this module extends the same methodology to the gate-oxide
thickness.

A thicker oxide (i) reduces the insulator capacitance (weaker charge
control), and (ii) lengthens the double-gate natural length
``lambda ~ sqrt(t_ox)``, softening the Schottky-barrier band bending and
reducing the tunneling current.  Both are carried consistently: the
study scales the calibrated ``natural_length_nm`` by
``sqrt(t_ox / t_ox,nominal)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.circuit.inverter import (
    InverterJob,
    InverterMetrics,
    characterize_inverter,
    characterize_inverters,
)
from repro.device.geometry import GNRFETGeometry
from repro.device.tables import build_device_table
from repro.errors import AnalysisError
from repro.exploration.technology import GNRFETTechnology


def oxide_variant_geometry(base: GNRFETGeometry,
                           oxide_thickness_nm: float) -> GNRFETGeometry:
    """Geometry with a different oxide, natural length co-scaled."""
    if oxide_thickness_nm <= 0.0:
        raise ValueError("oxide thickness must be positive")
    scale = math.sqrt(oxide_thickness_nm / base.oxide_thickness_nm)
    return replace(base, oxide_thickness_nm=oxide_thickness_nm,
                   natural_length_nm=base.natural_length_nm * scale)


@dataclass
class OxideEntry:
    """Inverter metrics of one oxide-thickness variant (all ribbons)."""

    oxide_thickness_nm: float
    metrics: InverterMetrics
    delay_pct: float
    static_power_pct: float
    snm_pct: float


def oxide_thickness_study(
    tech: GNRFETTechnology,
    thicknesses_nm: tuple[float, ...] = (1.2, 1.5, 1.8, 2.1),
    vdd: float = 0.4,
    vt: float = 0.13,
) -> tuple[InverterMetrics, list[OxideEntry]]:
    """Inverter sensitivity to oxide thickness (both devices affected).

    The work-function offset stays at the *nominal* design value (a
    fixed gate metal), so thickness drift shifts the effective operating
    point exactly as width drift does in Table 2.
    """
    nominal = characterize_inverter(*tech.inverter_tables(vt), vdd,
                                    tech.params)
    offset = tech.gate_offset_for_vt(vt)

    def pct(value, ref):
        return 100.0 * (value - ref) / ref

    jobs = []
    for t_ox in thicknesses_nm:
        geometry = oxide_variant_geometry(tech.geometry, t_ox)
        table = (build_device_table(geometry)
                 .scaled(tech.params.n_ribbons)
                 .with_gate_offset(offset))
        jobs.append(InverterJob(table, table, vdd, tech.params,
                                load_tables=tech.inverter_tables(vt)))
    entries = []
    for t_ox, metrics in zip(thicknesses_nm, characterize_inverters(jobs)):
        if isinstance(metrics, AnalysisError):
            raise metrics
        entries.append(OxideEntry(
            oxide_thickness_nm=t_ox, metrics=metrics,
            delay_pct=pct(metrics.delay_s, nominal.delay_s),
            static_power_pct=pct(metrics.static_power_w,
                                 nominal.static_power_w),
            snm_pct=pct(metrics.snm_v, nominal.snm_v)))
    return nominal, entries
