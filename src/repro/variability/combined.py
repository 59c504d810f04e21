"""Simultaneous width + impurity study: the paper's Table 4.

Worst-case combinations of width (N = 9 / 18) and charge impurity
(-q / +q) applied simultaneously to the n- and p-devices.  The paper's
headline: the combined worst case more than doubles delay, increases
static power over 7x, doubles dynamic power and drives the noise margin
to zero when all GNRs are affected.
"""

from __future__ import annotations

from repro.circuit.inverter import InverterMetrics, characterize_inverter
from repro.exploration.technology import GNRFETTechnology
from repro.variability.variants import DeviceVariant
from repro.variability.width import VariabilityEntry, sensitivity_entries

#: The paper's Table 4 axis: (index, impurity charge) combinations.
TABLE4_VARIANTS: tuple[tuple[int, float], ...] = (
    (9, -1.0), (9, +1.0), (18, -1.0), (18, +1.0),
)


def combined_variation_study(
    tech: GNRFETTechnology,
    vdd: float = 0.4,
    vt: float = 0.13,
    variants: tuple[tuple[int, float], ...] = TABLE4_VARIANTS,
) -> tuple[InverterMetrics,
           dict[tuple[tuple[int, float], tuple[int, float]], VariabilityEntry]]:
    """Full Table 4: entries keyed by ``((p_N, p_q), (n_N, n_q))``."""
    nominal = characterize_inverter(*tech.inverter_tables(vt), vdd,
                                    tech.params)
    keys = [(p_spec, n_spec) for p_spec in variants for n_spec in variants]
    pairs = [(DeviceVariant(n_index=n_spec[0], impurity_e=n_spec[1]),
              DeviceVariant(n_index=p_spec[0], impurity_e=p_spec[1]))
             for p_spec, n_spec in keys]
    return nominal, dict(zip(keys, sensitivity_entries(
        tech, pairs, nominal, vdd, vt)))
