//! Delay models.

use crate::CellType;

/// A gate delay model: maps a cell master and its output load to a delay.
///
/// The trait exists so STA can be tested against alternative models
/// (e.g. a constant-delay model in unit tests) without changing the
/// timing-graph code.
pub trait DelayModel {
    /// Delay in picoseconds through `cell` when driving `load_ff`.
    fn gate_delay_ps(&self, cell: &CellType, load_ff: f64) -> f64;

    /// Interconnect delay in picoseconds for a net of `fanout` sinks and
    /// estimated `wirelength_um` micrometres.
    fn wire_delay_ps(&self, fanout: usize, wirelength_um: f64) -> f64;
}

/// The default linear (lumped-RC-like) delay model.
///
/// Gate delay is `intrinsic + R_drive * C_load`. Wire delay uses a simple
/// per-micron RC estimate scaled by fanout, which is adequate for the
/// runtime-characterization experiments where only relative magnitudes
/// matter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearDelay {
    /// Wire resistance per micron in Ω/µm.
    pub wire_res_ohm_per_um: f64,
    /// Wire capacitance per micron in fF/µm.
    pub wire_cap_ff_per_um: f64,
}

impl LinearDelay {
    /// Model with 14nm-class metal parasitics.
    #[must_use]
    pub fn new() -> Self {
        Self {
            wire_res_ohm_per_um: 2.2,
            wire_cap_ff_per_um: 0.18,
        }
    }

    /// Capacitance contributed by a wire of the given length.
    #[must_use]
    pub fn wire_cap_ff(&self, wirelength_um: f64) -> f64 {
        self.wire_cap_ff_per_um * wirelength_um
    }
}

impl Default for LinearDelay {
    fn default() -> Self {
        Self::new()
    }
}

impl DelayModel for LinearDelay {
    fn gate_delay_ps(&self, cell: &CellType, load_ff: f64) -> f64 {
        cell.delay_ps(load_ff)
    }

    fn wire_delay_ps(&self, fanout: usize, wirelength_um: f64) -> f64 {
        // 0.5 * R * C Elmore-style estimate, in (Ω * fF) = 1e-3 ps units.
        let r = self.wire_res_ohm_per_um * wirelength_um;
        let c = self.wire_cap_ff_per_um * wirelength_um;
        0.5 * r * c * 1e-3 * (1.0 + 0.1 * fanout as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellKind, Library};

    #[test]
    fn gate_delay_monotone_in_load() {
        let lib = Library::synthetic_14nm();
        let model = LinearDelay::new();
        // Every cell master: each kind at each drive it is offered at.
        let names = CellKind::ALL.iter().flat_map(|kind| [1, 2].map(|d| format!("{kind}_X{d}")));
        let cells = names.filter_map(|name| lib.cell(&name).ok());
        for cell in cells.filter(|c| c.drive_resistance_kohm > 0.0) {
            let d1 = model.gate_delay_ps(cell, 1.0);
            let d2 = model.gate_delay_ps(cell, 10.0);
            assert!(d2 > d1, "{}: delay must grow with load", cell.name);
        }
    }

    #[test]
    fn wire_delay_grows_with_length_and_fanout() {
        let model = LinearDelay::new();
        assert!(model.wire_delay_ps(1, 100.0) > model.wire_delay_ps(1, 10.0));
        assert!(model.wire_delay_ps(8, 100.0) > model.wire_delay_ps(1, 100.0));
        assert_eq!(model.wire_delay_ps(1, 0.0), 0.0);
    }
}
