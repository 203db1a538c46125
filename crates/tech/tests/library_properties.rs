//! Property-based tests over the technology library.

use eda_cloud_tech::{CellKind, CellType, DelayModel, Library, LinearDelay};
use proptest::prelude::*;

/// Every cell master of `lib`: each kind at each drive it is offered at.
fn cells(lib: &Library) -> impl Iterator<Item = &CellType> {
    let names = CellKind::ALL.into_iter().flat_map(|kind| [1, 2].map(|d| format!("{kind}_X{d}")));
    names.filter_map(|name| lib.cell(&name).ok())
}

proptest! {
    /// Delay is monotone in load for every driving cell.
    #[test]
    fn delay_monotone_in_load(load_a in 0.0f64..50.0, load_b in 0.0f64..50.0) {
        let lib = Library::synthetic_14nm();
        let model = LinearDelay::new();
        let (lo, hi) = if load_a <= load_b { (load_a, load_b) } else { (load_b, load_a) };
        for cell in cells(&lib).filter(|c| c.drive_resistance_kohm > 0.0) {
            prop_assert!(model.gate_delay_ps(cell, lo) <= model.gate_delay_ps(cell, hi));
        }
    }

    /// Stronger drives are never slower at the same load, for every
    /// function class that offers multiple drives.
    #[test]
    fn stronger_drive_not_slower(load in 5.0f64..80.0) {
        let lib = Library::synthetic_14nm();
        for weak in cells(&lib) {
            for strong in cells(&lib).filter(|c| c.kind == weak.kind && c.drive > weak.drive) {
                prop_assert!(
                    strong.delay_ps(load) <= weak.delay_ps(load) + 1e-9,
                    "{} vs {} at load {load}", strong.name, weak.name
                );
            }
        }
    }

    /// Cell evaluation is total for all input combinations at each arity.
    #[test]
    fn eval_is_total(bits in 0u8..8) {
        for kind in CellKind::ALL {
            let n = kind.input_count();
            let inputs: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            let _ = kind.eval(&inputs);
        }
    }
}

#[test]
fn every_combinational_kind_has_exactly_one_output() {
    let lib = Library::synthetic_14nm();
    for cell in cells(&lib) {
        assert_eq!(
            cell.pins.iter().filter(|p| p.name == cell.output_pin().name).count(),
            1,
            "{}",
            cell.name
        );
        assert_eq!(cell.input_pins().count(), cell.kind.input_count().max(
            // DFF has D + CK even though eval arity is 1.
            if cell.kind == CellKind::Dff { 2 } else { 0 }
        ));
    }
}
