"""Charge-impurity study: the paper's Table 3.

Independent impurities of charge -2q ... +2q in the n- and p-device
channels (Table 3 labels the *physical* charge near each device; the
electron-hole mirror for p-devices is handled by the variant layer).
"""

from __future__ import annotations

from repro.circuit.inverter import InverterMetrics, characterize_inverter
from repro.exploration.technology import GNRFETTechnology
from repro.variability.variants import DeviceVariant
from repro.variability.width import VariabilityEntry, sensitivity_entries


def charge_impurity_study(
    tech: GNRFETTechnology,
    vdd: float = 0.4,
    vt: float = 0.13,
    charges: tuple[float, ...] = (-2.0, -1.0, 0.0, 1.0, 2.0),
) -> tuple[InverterMetrics, dict[tuple[float, float], VariabilityEntry]]:
    """Full Table 3: entries keyed by ``(p_charge, n_charge)``.

    The paper's row order runs +2q down to -2q for the p-device; the
    reporting layer handles presentation, this returns the raw grid.
    """
    nominal = characterize_inverter(*tech.inverter_tables(vt), vdd,
                                    tech.params)
    keys = [(q_p, q_n) for q_p in charges for q_n in charges
            if not (q_p == 0.0 and q_n == 0.0)]
    pairs = [(DeviceVariant(impurity_e=q_n), DeviceVariant(impurity_e=q_p))
             for q_p, q_n in keys]
    return nominal, dict(zip(keys, sensitivity_entries(
        tech, pairs, nominal, vdd, vt)))
