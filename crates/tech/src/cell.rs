//! Standard-cell descriptions.

use std::fmt;

/// The logical function class of a standard cell.
///
/// The set covers what the simple cut-based technology mapper in
/// `eda-cloud-flow` can target plus sequential and I/O helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// Non-inverting buffer.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// And-Or-Invert 2-1 (`!(a&b | c)`).
    Aoi21,
    /// Or-And-Invert 2-1 (`!((a|b) & c)`).
    Oai21,
    /// 2:1 multiplexer.
    Mux2,
    /// Majority-of-3 (full-adder carry).
    Maj3,
    /// Positive-edge D flip-flop.
    Dff,
    /// Constant-0 tie cell.
    Tie0,
    /// Constant-1 tie cell.
    Tie1,
}

impl CellKind {
    /// All kinds in a stable order.
    pub const ALL: [CellKind; 16] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nand3,
        CellKind::Nor2,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Aoi21,
        CellKind::Oai21,
        CellKind::Mux2,
        CellKind::Maj3,
        CellKind::Dff,
        CellKind::Tie0,
        CellKind::Tie1,
    ];

    /// Number of data inputs this kind consumes.
    #[must_use]
    pub fn input_count(self) -> usize {
        match self {
            CellKind::Tie0 | CellKind::Tie1 => 0,
            CellKind::Inv | CellKind::Buf | CellKind::Dff => 1,
            CellKind::Nand2
            | CellKind::Nor2
            | CellKind::And2
            | CellKind::Or2
            | CellKind::Xor2
            | CellKind::Xnor2 => 2,
            CellKind::Nand3 | CellKind::Aoi21 | CellKind::Oai21 | CellKind::Mux2 | CellKind::Maj3 => 3,
        }
    }

    /// Whether the cell is sequential (stateful).
    #[must_use]
    pub fn is_sequential(self) -> bool {
        matches!(self, CellKind::Dff)
    }

    /// Evaluate the cell's boolean function over its inputs.
    ///
    /// For [`CellKind::Dff`] this returns the input (combinational view of
    /// the data pin, used by structural checks, not simulation).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.input_count()`.
    #[must_use]
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert_eq!(
            inputs.len(),
            self.input_count(),
            "cell {self} expects {} inputs, got {}",
            self.input_count(),
            inputs.len()
        );
        match self {
            CellKind::Tie0 => false,
            CellKind::Tie1 => true,
            CellKind::Inv => !inputs[0],
            CellKind::Buf | CellKind::Dff => inputs[0],
            CellKind::Nand2 => !(inputs[0] & inputs[1]),
            CellKind::Nand3 => !(inputs[0] & inputs[1] & inputs[2]),
            CellKind::Nor2 => !(inputs[0] | inputs[1]),
            CellKind::And2 => inputs[0] & inputs[1],
            CellKind::Or2 => inputs[0] | inputs[1],
            CellKind::Xor2 => inputs[0] ^ inputs[1],
            CellKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            CellKind::Aoi21 => !((inputs[0] & inputs[1]) | inputs[2]),
            CellKind::Oai21 => !((inputs[0] | inputs[1]) & inputs[2]),
            CellKind::Mux2 => {
                if inputs[2] {
                    inputs[1]
                } else {
                    inputs[0]
                }
            }
            CellKind::Maj3 => {
                (inputs[0] & inputs[1]) | (inputs[1] & inputs[2]) | (inputs[0] & inputs[2])
            }
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellKind::Inv => "INV",
            CellKind::Buf => "BUF",
            CellKind::Nand2 => "NAND2",
            CellKind::Nand3 => "NAND3",
            CellKind::Nor2 => "NOR2",
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Xnor2 => "XNOR2",
            CellKind::Aoi21 => "AOI21",
            CellKind::Oai21 => "OAI21",
            CellKind::Mux2 => "MUX2",
            CellKind::Maj3 => "MAJ3",
            CellKind::Dff => "DFF",
            CellKind::Tie0 => "TIE0",
            CellKind::Tie1 => "TIE1",
        };
        f.write_str(s)
    }
}

/// Direction of a cell pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinDirection {
    /// Signal flows into the cell.
    Input,
    /// Signal flows out of the cell.
    Output,
}

/// A pin on a standard-cell master.
#[derive(Debug, Clone, PartialEq)]
pub struct PinSpec {
    /// Pin name (e.g. `"A"`, `"Y"`).
    pub name: String,
    /// Signal direction.
    pub direction: PinDirection,
    /// Input capacitance in femtofarads (0 for outputs).
    pub cap_ff: f64,
}

/// A standard-cell master: function, geometry, and timing parameters.
///
/// Timing uses a linear delay model, see [`CellType::delay_ps`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellType {
    /// Library cell name, e.g. `"NAND2_X1"`.
    pub name: String,
    /// Logical function class.
    pub kind: CellKind,
    /// Relative drive strength (1, 2, 4, ...).
    pub drive: u8,
    /// Cell area in square micrometres.
    pub area_um2: f64,
    /// Intrinsic (unloaded) delay in picoseconds.
    pub intrinsic_delay_ps: f64,
    /// Output drive resistance in kΩ; load-dependent delay is
    /// `drive_resistance_kohm * load_ff` ps per fF·kΩ.
    pub drive_resistance_kohm: f64,
    /// Capacitance of each input pin in femtofarads.
    pub input_cap_ff: f64,
    /// Leakage power in nanowatts.
    pub leakage_nw: f64,
    /// Pin list (inputs `A`, `B`, ... then output `Y`; `D`/`Q`/`CK` for DFF).
    pub pins: Vec<PinSpec>,
}

impl CellType {
    /// Total delay in picoseconds when driving `load_ff` femtofarads.
    #[must_use]
    pub fn delay_ps(&self, load_ff: f64) -> f64 {
        self.intrinsic_delay_ps + self.drive_resistance_kohm * load_ff
    }

    /// Names of input pins in declaration order.
    pub fn input_pins(&self) -> impl Iterator<Item = &PinSpec> {
        self.pins
            .iter()
            .filter(|p| p.direction == PinDirection::Input)
    }

    /// The single output pin.
    ///
    /// # Panics
    ///
    /// Panics if the cell has no output pin (library construction
    /// guarantees one).
    #[must_use]
    pub fn output_pin(&self) -> &PinSpec {
        self.pins
            .iter()
            .find(|p| p.direction == PinDirection::Output)
            .expect("every cell master has an output pin")
    }
}

impl fmt::Display for CellType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} x{})", self.name, self.kind, self.drive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_counts_match_eval_arity() {
        for kind in CellKind::ALL {
            let n = kind.input_count();
            let inputs = vec![false; n];
            // Must not panic.
            let _ = kind.eval(&inputs);
        }
    }

    #[test]
    fn eval_truth_tables() {
        assert!(CellKind::Nand2.eval(&[false, true]));
        assert!(!CellKind::Nand2.eval(&[true, true]));
        assert!(CellKind::Xor2.eval(&[true, false]));
        assert!(!CellKind::Xor2.eval(&[true, true]));
        assert!(CellKind::Maj3.eval(&[true, true, false]));
        assert!(!CellKind::Maj3.eval(&[true, false, false]));
        assert!(CellKind::Mux2.eval(&[false, true, true]));
        assert!(!CellKind::Mux2.eval(&[false, true, false]));
        assert!(!CellKind::Aoi21.eval(&[true, true, false]));
        assert!(CellKind::Aoi21.eval(&[true, false, false]));
        assert!(!CellKind::Oai21.eval(&[true, false, true]));
        assert!(CellKind::Tie1.eval(&[]));
        assert!(!CellKind::Tie0.eval(&[]));
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn eval_wrong_arity_panics() {
        let _ = CellKind::Nand2.eval(&[true]);
    }

    #[test]
    fn sequential_flag() {
        assert!(CellKind::Dff.is_sequential());
        assert!(!CellKind::Nand2.is_sequential());
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(CellKind::Nand2.to_string(), "NAND2");
        assert_eq!(CellKind::Aoi21.to_string(), "AOI21");
    }
}
