//! The computed schedule plan against the per-position arrays it
//! replaced: every accessor (address, column, row boundary, pre-charge
//! mask) in both walk directions, and the low-power command of every
//! position with the row-transition restore on and off, on degenerate
//! and ordinary shapes and lookahead widths up to wider than a row.

use lp_precharge::mode::OperatingMode;
use lp_precharge::scheduler::{LpOptions, SchedulePlan};
use march_test::element::AddressDirection;
use march_test::operation::MarchOp;
use sram_model::address::Address;
use sram_model::config::ArrayOrganization;
use sram_model::operation::PrechargePolicy;

/// The per-position arrays one walk direction stored before the plan
/// was computed, built the way they were: from the materialised
/// address permutation, looking each neighbour up by position.
struct StoredDirection {
    addresses: Vec<Address>,
    cols: Vec<u32>,
    row_boundary: Vec<bool>,
    masks: Vec<Vec<u32>>,
}

impl StoredDirection {
    fn build(
        organization: &ArrayOrganization,
        direction: AddressDirection,
        lookahead: u32,
    ) -> Self {
        let plan = march_test::executor::AddressPlan::new(
            &march_test::address_order::WordLineAfterWordLine,
            organization,
        );
        let mut stored = Self {
            addresses: Vec::new(),
            cols: Vec::new(),
            row_boundary: Vec::new(),
            masks: Vec::new(),
        };
        for pos in 0..plan.len() {
            let address = plan.at(direction, pos).expect("position within plan");
            let row = address.row(organization);
            let col = address.col(organization).value();
            let next = plan.at(direction, pos + 1);
            let mut mask = vec![col];
            for ahead in 1..=lookahead as usize {
                if let Some(a) = plan.at(direction, pos + ahead) {
                    let c = a.col(organization).value();
                    if a.row(organization) == row && !mask.contains(&c) {
                        mask.push(c);
                    }
                }
            }
            stored.addresses.push(address);
            stored.cols.push(col);
            stored
                .row_boundary
                .push(next.map(|a| a.row(organization)) != Some(row));
            stored.masks.push(mask);
        }
        stored
    }
}

#[test]
fn the_computed_plan_equals_the_stored_arrays() {
    let shapes = [(1, 1), (1, 9), (9, 1), (4, 8), (5, 3), (64, 64)];
    let directions = [
        AddressDirection::Ascending,
        AddressDirection::Descending,
        AddressDirection::Either,
    ];
    for (rows, cols) in shapes {
        let organization = ArrayOrganization::new(rows, cols).unwrap();
        for lookahead in [0, 1, 2, 300] {
            for restore in [false, true] {
                let options = LpOptions {
                    lookahead_columns: lookahead,
                    row_transition_restore: restore,
                };
                let plan = SchedulePlan::new(organization, options);
                assert_eq!(plan.len(), (rows * cols) as usize);
                for direction in directions {
                    let stored = StoredDirection::build(&organization, direction, lookahead);
                    for pos in 0..plan.len() {
                        let at = format!(
                            "{rows}x{cols} lookahead {lookahead} restore {restore} \
                             {direction:?} position {pos}"
                        );
                        let mask: Vec<u32> = plan.mask_at(direction, pos).collect();
                        assert_eq!(
                            plan.address_at(direction, pos),
                            stored.addresses[pos],
                            "{at}"
                        );
                        assert_eq!(plan.col_at(direction, pos), stored.cols[pos], "{at}");
                        let boundary = stored.row_boundary[pos];
                        assert_eq!(plan.row_boundary_at(direction, pos), boundary, "{at}");
                        assert_eq!(mask, stored.masks[pos], "{at}");
                        for last_op in [false, true] {
                            let cycle = plan.cycle(
                                direction,
                                pos,
                                MarchOp::R0,
                                last_op,
                                OperatingMode::LowPowerTest,
                                0,
                            );
                            let restores = restore && last_op && boundary;
                            let expected = if restores {
                                PrechargePolicy::AllColumns
                            } else {
                                PrechargePolicy::Columns(stored.masks[pos].clone())
                            };
                            assert_eq!(cycle.command.precharge, expected, "{at}");
                            assert_eq!(cycle.is_row_transition_restore, restores, "{at}");
                            assert_eq!(cycle.last_in_row, last_op && boundary, "{at}");
                        }
                    }
                }
            }
        }
    }
}
