"""Width-variation study: the paper's Table 2.

For every pair of n-/p-device width indices (N in {9, 12, 15, 18}) and
both array scenarios (one of four / all four GNRs affected), characterize
the FO4 inverter at the nominal operating point (V_DD = 0.4 V,
V_T = 0.13 V) and report percentage changes of delay, static power,
dynamic power and SNM relative to the nominal (N=12/N=12) inverter.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.circuit.inverter import (
    InverterJob,
    InverterMetrics,
    characterize_inverter,
    characterize_inverters,
    inverter_snm,
    inverter_static_power_w,
)
from repro.errors import AnalysisError
from repro.exploration.technology import GNRFETTechnology
from repro.variability.variants import DeviceVariant, variant_array_table


@dataclass
class VariabilityEntry:
    """One (n-variant, p-variant) cell of a sensitivity table.

    Each metric holds ``(one_affected_pct, all_affected_pct)`` percentage
    changes relative to the nominal inverter, matching the paper's
    comma-separated table cells.
    """

    n_label: str
    p_label: str
    delay_pct: tuple[float, float]
    static_power_pct: tuple[float, float]
    dynamic_power_pct: tuple[float, float]
    snm_pct: tuple[float, float]
    metrics_one: InverterMetrics
    metrics_all: InverterMetrics


def _pct(value: float, nominal: float) -> float:
    if nominal == 0.0:
        return float("inf") if value else 0.0
    return 100.0 * (value - nominal) / nominal


def variant_job(
    tech: GNRFETTechnology,
    n_variant: DeviceVariant,
    p_variant: DeviceVariant,
    n_affected: int,
    vdd: float,
    vt: float,
) -> InverterJob:
    """The characterization of one variant inverter driving a nominal
    FO4 load, with ``n_affected`` ribbons of each device varied."""
    offset = tech.gate_offset_for_vt(vt)
    nt = variant_array_table(n_variant, +1, n_affected, offset,
                             tech.params.n_ribbons, tech.geometry)
    pt = variant_array_table(p_variant, -1, n_affected, offset,
                             tech.params.n_ribbons, tech.geometry)
    return InverterJob(nt, pt, vdd, tech.params,
                       load_tables=tech.inverter_tables(vt))


def _variant_metrics(job: InverterJob,
                     outcome: InverterMetrics | AnalysisError,
                     degenerate_ok: bool) -> InverterMetrics:
    """A job's metrics; a broken cell's NaN ones if ``degenerate_ok``."""
    if not isinstance(outcome, AnalysisError):
        return outcome
    if not degenerate_ok:
        raise outcome
    return InverterMetrics(
        delay_s=np.nan, t_plh_s=np.nan, t_phl_s=np.nan,
        static_power_w=inverter_static_power_w(job.n_table, job.p_table,
                                               job.vdd, job.params),
        dynamic_power_w=np.nan,
        snm_v=inverter_snm(job.n_table, job.p_table, job.vdd, job.params),
        vdd=job.vdd)


def characterize_variant_inverter(
    tech: GNRFETTechnology,
    n_variant: DeviceVariant,
    p_variant: DeviceVariant,
    n_affected: int,
    vdd: float,
    vt: float,
    degenerate_ok: bool = False,
) -> InverterMetrics:
    """Characterize one variant inverter against a nominal FO4 load.

    With ``degenerate_ok=True``, a variant whose output never completes
    both logic transitions (an inverter broken by the anomaly - possible
    at the most asymmetric corners of Table 4) is reported with NaN
    delay/dynamic power instead of raising; its static power and SNM are
    still measured (the SNM of a collapsed cell is 0 by the bistability
    rule).
    """
    job = variant_job(tech, n_variant, p_variant, n_affected, vdd, vt)
    (outcome,) = characterize_inverters([job])
    return _variant_metrics(job, outcome, degenerate_ok)


def sensitivity_entries(
    tech: GNRFETTechnology,
    pairs: Sequence[tuple[DeviceVariant, DeviceVariant]],
    nominal: InverterMetrics,
    vdd: float,
    vt: float,
    scenarios: tuple[int, int] = (1, 4),
    degenerate_ok: bool = True,
) -> list[VariabilityEntry]:
    """Both scenarios of every ``(n_variant, p_variant)`` pair, as
    percentage deltas, all characterized in one lockstep batch.

    Broken (swing-less) cells surface as NaN percentages (rendered as
    ``-`` by the reporting layer) rather than aborting the study.
    """
    jobs = [variant_job(tech, n_variant, p_variant, n_affected, vdd, vt)
            for n_variant, p_variant in pairs for n_affected in scenarios]
    metrics = [_variant_metrics(job, outcome, degenerate_ok)
               for job, outcome in zip(jobs, characterize_inverters(jobs))]
    entries = []
    for k, (n_variant, p_variant) in enumerate(pairs):
        m_one, m_all = metrics[2 * k], metrics[2 * k + 1]
        entries.append(VariabilityEntry(
            n_label=n_variant.label(), p_label=p_variant.label(),
            delay_pct=(_pct(m_one.delay_s, nominal.delay_s),
                       _pct(m_all.delay_s, nominal.delay_s)),
            static_power_pct=(
                _pct(m_one.static_power_w, nominal.static_power_w),
                _pct(m_all.static_power_w, nominal.static_power_w)),
            dynamic_power_pct=(
                _pct(m_one.dynamic_power_w, nominal.dynamic_power_w),
                _pct(m_all.dynamic_power_w, nominal.dynamic_power_w)),
            snm_pct=(_pct(m_one.snm_v, nominal.snm_v),
                     _pct(m_all.snm_v, nominal.snm_v)),
            metrics_one=m_one, metrics_all=m_all))
    return entries


def sensitivity_entry(
    tech: GNRFETTechnology,
    n_variant: DeviceVariant,
    p_variant: DeviceVariant,
    nominal: InverterMetrics,
    vdd: float,
    vt: float,
    scenarios: tuple[int, int] = (1, 4),
    degenerate_ok: bool = True,
) -> VariabilityEntry:
    """Both scenarios of one variant pair (see :func:`sensitivity_entries`)."""
    return sensitivity_entries(tech, [(n_variant, p_variant)], nominal, vdd,
                               vt, scenarios, degenerate_ok)[0]


def width_variation_study(
    tech: GNRFETTechnology,
    vdd: float = 0.4,
    vt: float = 0.13,
    indices: tuple[int, ...] = (9, 12, 15, 18),
) -> tuple[InverterMetrics, dict[tuple[int, int], VariabilityEntry]]:
    """Full Table 2: nominal metrics plus every (N_p, N_n) cell.

    Returns ``(nominal_metrics, entries)`` with entries keyed by
    ``(p_index, n_index)`` to match the paper's row/column layout.
    """
    nominal = characterize_inverter(*tech.inverter_tables(vt), vdd,
                                    tech.params)
    keys = [(n_p, n_n) for n_p in indices for n_n in indices
            if not (n_p == 12 and n_n == 12)]
    pairs = [(DeviceVariant(n_index=n_n), DeviceVariant(n_index=n_p))
             for n_p, n_n in keys]
    return nominal, dict(zip(keys, sensitivity_entries(
        tech, pairs, nominal, vdd, vt)))
