//! The standard-cell library container.

use crate::cell::{CellKind, CellType, PinDirection, PinSpec};
use crate::error::TechError;
use std::collections::HashMap;

/// A collection of standard-cell masters addressable by name or function.
///
/// # Examples
///
/// ```
/// use eda_cloud_tech::{Library, CellKind};
///
/// let lib = Library::synthetic_14nm();
/// assert_eq!(lib.cell("NAND2_X2").expect("has a strong NAND").drive, 2);
/// let inv = lib.cell_by_kind(CellKind::Inv).expect("has inverter");
/// assert_eq!(inv.kind, CellKind::Inv);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Library {
    /// Human-readable library name.
    name: String,
    cells: Vec<CellType>,
    by_name: HashMap<String, usize>,
    by_kind: HashMap<CellKind, Vec<usize>>,
}

impl Library {
    /// Create an empty library with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            cells: Vec::new(),
            by_name: HashMap::new(),
            by_kind: HashMap::new(),
        }
    }

    /// The synthetic 14nm-class library used throughout the reproduction.
    ///
    /// It substitutes for the GF 14nm PDK of the paper; values are in the
    /// range of published 14/16nm FinFET libraries. Each combinational
    /// function is offered at drive strengths X1 and X2.
    #[must_use]
    pub fn synthetic_14nm() -> Self {
        let mut lib = Self::new("synth14");
        let base: &[(CellKind, f64, f64, f64, f64, f64)] = &[
            // kind, area um^2, intrinsic ps, R kohm, input cap fF, leakage nW
            (CellKind::Inv, 0.196, 6.0, 2.2, 0.85, 1.2),
            (CellKind::Buf, 0.294, 11.0, 2.0, 0.90, 1.6),
            (CellKind::Nand2, 0.294, 8.5, 2.6, 1.00, 1.9),
            (CellKind::Nand3, 0.392, 11.5, 3.0, 1.05, 2.6),
            (CellKind::Nor2, 0.294, 9.5, 3.1, 1.00, 1.9),
            (CellKind::And2, 0.392, 13.0, 2.4, 0.95, 2.2),
            (CellKind::Or2, 0.392, 14.0, 2.5, 0.95, 2.2),
            (CellKind::Xor2, 0.588, 18.0, 2.9, 1.40, 3.5),
            (CellKind::Xnor2, 0.588, 18.5, 2.9, 1.40, 3.5),
            (CellKind::Aoi21, 0.392, 12.0, 3.2, 1.10, 2.4),
            (CellKind::Oai21, 0.392, 12.5, 3.2, 1.10, 2.4),
            (CellKind::Mux2, 0.588, 16.0, 2.7, 1.20, 3.0),
            (CellKind::Maj3, 0.686, 19.0, 3.0, 1.30, 3.8),
            (CellKind::Dff, 1.176, 42.0, 2.8, 1.10, 6.5),
            (CellKind::Tie0, 0.098, 0.0, 0.0, 0.0, 0.3),
            (CellKind::Tie1, 0.098, 0.0, 0.0, 0.0, 0.3),
        ];
        for &(kind, area, intrinsic, res, cap, leak) in base {
            lib.push(Self::make_cell(kind, 1, area, intrinsic, res, cap, leak));
            if !matches!(kind, CellKind::Tie0 | CellKind::Tie1) {
                // X2: double area & leakage, halve resistance, +20% cap.
                lib.push(Self::make_cell(
                    kind,
                    2,
                    area * 1.8,
                    intrinsic * 0.95,
                    res * 0.55,
                    cap * 1.2,
                    leak * 2.0,
                ));
            }
        }
        lib
    }

    fn make_cell(
        kind: CellKind,
        drive: u8,
        area_um2: f64,
        intrinsic_delay_ps: f64,
        drive_resistance_kohm: f64,
        input_cap_ff: f64,
        leakage_nw: f64,
    ) -> CellType {
        let mut pins = Vec::new();
        if kind == CellKind::Dff {
            pins.push(PinSpec {
                name: "D".to_owned(),
                direction: PinDirection::Input,
                cap_ff: input_cap_ff,
            });
            pins.push(PinSpec {
                name: "CK".to_owned(),
                direction: PinDirection::Input,
                cap_ff: input_cap_ff * 0.8,
            });
            pins.push(PinSpec {
                name: "Q".to_owned(),
                direction: PinDirection::Output,
                cap_ff: 0.0,
            });
        } else {
            const NAMES: [&str; 3] = ["A", "B", "C"];
            for name in NAMES.iter().take(kind.input_count()) {
                pins.push(PinSpec {
                    name: (*name).to_owned(),
                    direction: PinDirection::Input,
                    cap_ff: input_cap_ff,
                });
            }
            pins.push(PinSpec {
                name: "Y".to_owned(),
                direction: PinDirection::Output,
                cap_ff: 0.0,
            });
        }
        CellType {
            name: format!("{kind}_X{drive}"),
            kind,
            drive,
            area_um2,
            intrinsic_delay_ps,
            drive_resistance_kohm,
            input_cap_ff,
            leakage_nw,
            pins,
        }
    }

    /// Add a cell master.
    ///
    /// # Panics
    ///
    /// Panics if a cell with the same name is already present.
    pub fn push(&mut self, cell: CellType) {
        assert!(
            !self.by_name.contains_key(&cell.name),
            "duplicate cell name `{}`",
            cell.name
        );
        let idx = self.cells.len();
        self.by_name.insert(cell.name.clone(), idx);
        self.by_kind.entry(cell.kind).or_default().push(idx);
        self.cells.push(cell);
    }

    /// Library name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Look up a cell by exact name.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::UnknownCell`] if no such cell exists.
    pub fn cell(&self, name: &str) -> Result<&CellType, TechError> {
        self.by_name
            .get(name)
            .map(|&i| &self.cells[i])
            .ok_or_else(|| TechError::UnknownCell(name.to_owned()))
    }

    /// The lowest-drive cell implementing `kind`, if any.
    #[must_use]
    pub fn cell_by_kind(&self, kind: CellKind) -> Option<&CellType> {
        self.by_kind
            .get(&kind)
            .and_then(|v| v.iter().map(|&i| &self.cells[i]).min_by_key(|c| c.drive))
    }
}

impl Default for Library {
    fn default() -> Self {
        Self::synthetic_14nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_library_covers_all_kinds() {
        let lib = Library::synthetic_14nm();
        for kind in CellKind::ALL {
            assert!(lib.cell_by_kind(kind).is_some(), "missing {kind}");
        }
    }

    #[test]
    fn lookup_by_name() {
        let lib = Library::synthetic_14nm();
        let c = lib.cell("NAND2_X1").expect("exists");
        assert_eq!(c.kind, CellKind::Nand2);
        assert!(lib.cell("NAND2_X9").is_err());
    }

    #[test]
    fn stronger_drive_trades_area_for_resistance() {
        let lib = Library::synthetic_14nm();
        let inverters: Vec<&CellType> = lib.cells.iter().filter(|c| c.kind == CellKind::Inv).collect();
        let [x1, x2] = inverters[..] else { panic!("two inverter drives, weakest first") };
        assert!(x1.drive < x2.drive);
        assert_eq!(lib.cell_by_kind(CellKind::Inv), Some(x1), "lowest drive is the default");
        assert!(x2.drive_resistance_kohm < x1.drive_resistance_kohm);
        assert!(x2.area_um2 > x1.area_um2);
    }

    #[test]
    #[should_panic(expected = "duplicate cell name")]
    fn duplicate_name_panics() {
        let mut lib = Library::synthetic_14nm();
        let cell = lib.cell("INV_X1").expect("exists").clone();
        lib.push(cell);
    }

    #[test]
    fn pin_structure() {
        let lib = Library::synthetic_14nm();
        let dff = lib.cell_by_kind(CellKind::Dff).expect("dff");
        assert_eq!(dff.output_pin().name, "Q");
        assert_eq!(dff.input_pins().count(), 2); // D + CK
        let mux = lib.cell_by_kind(CellKind::Mux2).expect("mux");
        assert_eq!(mux.input_pins().count(), 3);
        assert_eq!(mux.output_pin().name, "Y");
    }

    #[test]
    fn default_is_synthetic() {
        assert_eq!(Library::default().name(), "synth14");
    }
}
