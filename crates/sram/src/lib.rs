//! Cycle-accurate behavioural/electrical SRAM array simulator.
//!
//! This crate is the memory substrate for the reproduction of
//! *"Minimizing Test Power in SRAM through Reduction of Pre-charge
//! Activity"* (DATE 2006). It models the pieces of a bit-oriented SRAM
//! macro that the paper's argument rests on:
//!
//! * a [`config::TechnologyParams`] / [`config::ArrayOrganization`] pair
//!   describing the operating point (0.13 µm, 1.6 V, 3 ns cycle, 512×512 by
//!   default) and the first-order electrical parameters (bit-line and word
//!   line capacitances, cell drive current, pre-charge strength),
//! * 6T [`cell::SramCell`]s holding a stored bit and a corruption flag,
//! * per-column [`bitline::BitLinePair`]s whose voltages evolve cycle by
//!   cycle (pre-charged, driven by an operation, or floating and discharged
//!   by the selected cell as in Figure 6 of the paper),
//! * per-column [`precharge::PrechargeCircuit`]s that can be enabled or
//!   disabled each cycle through a [`array::PrechargeMask`],
//! * [`decoder`], [`senseamp`] and [`writedriver`] periphery models, and
//! * the [`array::SramArray`] + [`controller::MemoryController`] pair that
//!   executes one [`operation::CycleCommand`] per clock cycle and returns
//!   the resulting [`energy::CycleEnergy`] breakdown and read data, while
//!   counting read-equivalent stress and faulty swaps.
//!
//! The crate is deliberately independent from the power-accounting and
//! March-test crates: it reports raw per-cycle energies and lets the
//! higher layers attribute and aggregate them.
//!
//! # Example
//!
//! ```
//! use sram_model::prelude::*;
//!
//! let config = SramConfig::builder()
//!     .organization(ArrayOrganization::new(16, 16)?)
//!     .build()?;
//! let mut memory = MemoryController::new(config);
//! let addr = Address::from_row_col(RowIndex(0), ColIndex(0), memory.organization());
//! let outcome = memory.execute(CycleCommand::functional(addr, MemOperation::Write(true)))?;
//! assert!(outcome.energy.total().value() > 0.0);
//! let outcome = memory.execute(CycleCommand::functional(addr, MemOperation::Read))?;
//! assert_eq!(outcome.read_value, Some(true));
//! # Ok::<(), sram_model::error::SramError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod array;
pub mod bitline;
pub mod cell;
pub mod colset;
pub mod config;
pub mod controller;
pub mod decoder;
pub mod energy;
pub mod error;
pub mod operation;
pub mod precharge;
pub mod senseamp;
pub mod stress;
pub mod writedriver;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::address::{Address, ColIndex, RowIndex};
    pub use crate::array::{PrechargeMask, SramArray};
    pub use crate::cell::SramCell;
    pub use crate::config::{ArrayOrganization, SramConfig, TechnologyParams};
    pub use crate::controller::{CycleOutcome, MemoryController};
    pub use crate::energy::CycleEnergy;
    pub use crate::error::SramError;
    pub use crate::operation::{CycleCommand, MemOperation};
    pub use crate::stress::StressReport;
}
