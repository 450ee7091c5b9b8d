//! The low-power test schedule.
//!
//! The scheduler turns a March test into the per-cycle [`CycleCommand`]s
//! the memory controller executes. In functional mode every cycle simply
//! enables all pre-charge circuits. In the paper's low-power test mode the
//! schedule implements three rules:
//!
//! 1. the address order is fixed to *word line after word line* (the first
//!    March degree of freedom),
//! 2. each cycle pre-charges only the selected column and the next column
//!    to be accessed (the column that "immediately follows"),
//! 3. the last operation on the last cell of each row runs with every
//!    pre-charge circuit enabled for that single cycle, restoring all bit
//!    lines to `V_DD` before the word line of the next row rises — the fix
//!    that prevents the faulty swap of Figure 7 and keeps the technique
//!    independent of the data background.
//!
//! # The computed schedule plan
//!
//! A full 512×512 March G run is about six million cycles, so the
//! per-cycle data must be cheap to produce. The whole per-cycle command
//! stream is determined by `(organization, options)` alone — the March
//! test only selects which element directions walk it and which operation
//! runs each cycle. Rule 1 makes that stream arithmetic: word line after
//! word line is row-major, so ascending position `p` is address `p` and
//! descending position `p` is address `capacity − 1 − p`. [`SchedulePlan`]
//! computes every per-position value from that address — its physical
//! column, whether it ends its row in the walk's direction (the
//! restore-cycle trigger) and the low-power pre-charge mask, which is the
//! column plus up to `lookahead_columns` same-row neighbours in walk
//! direction. A plan is two small `Copy` fields whatever the array size,
//! so it is built in constant time and holds no heap memory.
//!
//! [`LowPowerSchedule`] stays a lazy iterator over that plan: commands are
//! produced on demand, with no allocation beyond the mask `Vec` the public
//! [`CycleCommand`] type requires.

use sram_model::address::Address;
use sram_model::config::ArrayOrganization;
use sram_model::operation::{CycleCommand, MemOperation};

use march_test::algorithm::MarchTest;
use march_test::element::AddressDirection;
use march_test::operation::MarchOp;

use crate::mode::OperatingMode;

/// Tuning knobs of the low-power schedule (the paper's choices are the
/// defaults; the alternatives exist for the ablation experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LpOptions {
    /// Number of upcoming columns to keep pre-charged in addition to the
    /// selected one. The paper uses 1 (the "column that immediately
    /// follows"); 0 breaks the next access, larger values waste power.
    pub lookahead_columns: u32,
    /// Whether the last operation of each row re-enables every pre-charge
    /// circuit for one cycle. Disabling this reproduces the faulty-swap
    /// hazard of Figure 7.
    pub row_transition_restore: bool,
}

impl Default for LpOptions {
    fn default() -> Self {
        Self {
            lookahead_columns: 1,
            row_transition_restore: true,
        }
    }
}

/// One scheduled clock cycle: the command to execute plus the value any
/// read is expected to return.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledCycle {
    /// The memory-controller command.
    pub command: CycleCommand,
    /// Expected read data (`None` for writes).
    pub expected_read: Option<bool>,
    /// Index of the March element this cycle belongs to.
    pub element: usize,
    /// Whether this cycle is a row-transition restore cycle.
    pub is_row_transition_restore: bool,
    /// Whether this is the element's last cycle on its row: the last
    /// operation on the row's last address.
    pub last_in_row: bool,
}

/// The per-cycle command stream of the low-power schedule, independent
/// of any particular March test, computed from the walk position (see the
/// module docs): addresses, columns, row boundaries and pre-charge masks
/// for both walk directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulePlan {
    organization: ArrayOrganization,
    options: LpOptions,
}

impl SchedulePlan {
    /// The schedule of `organization` under `options`, using the paper's
    /// word-line-after-word-line order. Constant time, no allocation.
    pub fn new(organization: ArrayOrganization, options: LpOptions) -> Self {
        Self {
            organization,
            options,
        }
    }

    /// The same plan as [`SchedulePlan::new`]: a computed plan has nothing
    /// to cache or share.
    pub fn shared(organization: ArrayOrganization, options: LpOptions) -> Self {
        Self::new(organization, options)
    }

    /// The organization the plan was built for.
    pub fn organization(&self) -> &ArrayOrganization {
        &self.organization
    }

    /// The options the plan was built with.
    pub fn options(&self) -> &LpOptions {
        &self.options
    }

    /// Number of addresses in one directional walk.
    pub fn len(&self) -> usize {
        self.organization.capacity() as usize
    }

    /// `true` when the plan covers no addresses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The address at `position` of a walk in `direction`.
    ///
    /// # Panics
    ///
    /// Panics if `position` is not below [`SchedulePlan::len`].
    #[inline]
    pub fn address_at(&self, direction: AddressDirection, position: usize) -> Address {
        assert!(position < self.len(), "position {position} past the walk");
        let position = position as u32;
        Address::new(match direction {
            AddressDirection::Ascending | AddressDirection::Either => position,
            AddressDirection::Descending => self.organization.capacity() - 1 - position,
        })
    }

    /// The physical column at `position` of a walk in `direction`.
    #[inline]
    pub fn col_at(&self, direction: AddressDirection, position: usize) -> u32 {
        self.address_at(direction, position)
            .col(&self.organization)
            .value()
    }

    /// Whether `position` is the last address of its row in `direction`:
    /// the last column ascending, column 0 descending.
    #[inline]
    pub fn row_boundary_at(&self, direction: AddressDirection, position: usize) -> bool {
        self.ends_row(direction, self.col_at(direction, position))
    }

    /// The low-power pre-charge mask at `position` of a walk in
    /// `direction`: the selected column followed by the columns of up to
    /// `lookahead_columns` next positions on the same row.
    #[inline]
    pub fn mask_at(
        &self,
        direction: AddressDirection,
        position: usize,
    ) -> impl ExactSizeIterator<Item = u32> {
        self.mask_from(direction, self.col_at(direction, position))
    }

    /// Whether column `col` ends its row in `direction`.
    #[inline]
    fn ends_row(&self, direction: AddressDirection, col: u32) -> bool {
        match direction {
            AddressDirection::Ascending | AddressDirection::Either => {
                col == self.organization.cols() - 1
            }
            AddressDirection::Descending => col == 0,
        }
    }

    /// The pre-charge mask of a position on column `col` in `direction`.
    #[inline]
    fn mask_from(
        &self,
        direction: AddressDirection,
        col: u32,
    ) -> impl ExactSizeIterator<Item = u32> {
        let descending = direction == AddressDirection::Descending;
        let same_row_ahead = if descending {
            col
        } else {
            self.organization.cols() - 1 - col
        };
        let ahead = same_row_ahead.min(self.options.lookahead_columns);
        (0..ahead + 1).map(move |step| if descending { col - step } else { col + step })
    }

    /// Builds the full [`ScheduledCycle`] of one `(position, op)` pair — the
    /// same command the lazy iterator produces, usable for rehearsing
    /// arbitrary schedule windows.
    pub fn cycle(
        &self,
        direction: AddressDirection,
        position: usize,
        op: MarchOp,
        last_op_on_address: bool,
        mode: OperatingMode,
        element: usize,
    ) -> ScheduledCycle {
        let address = self.address_at(direction, position);
        let col = address.col(&self.organization).value();
        let mem_op = match op {
            MarchOp::W0 => MemOperation::Write(false),
            MarchOp::W1 => MemOperation::Write(true),
            MarchOp::R0 | MarchOp::R1 => MemOperation::Read,
        };
        let expected_read = op.expected_value();
        let last_in_row = last_op_on_address && self.ends_row(direction, col);

        if !mode.is_low_power() {
            return ScheduledCycle {
                command: CycleCommand::functional(address, mem_op),
                expected_read,
                element,
                is_row_transition_restore: false,
                last_in_row,
            };
        }

        if self.options.row_transition_restore && last_in_row {
            return ScheduledCycle {
                command: CycleCommand::low_power_restore_all(address, mem_op),
                expected_read,
                element,
                is_row_transition_restore: true,
                last_in_row,
            };
        }

        ScheduledCycle {
            command: CycleCommand::low_power(
                address,
                mem_op,
                self.mask_from(direction, col).collect(),
            ),
            expected_read,
            element,
            is_row_transition_restore: false,
            last_in_row,
        }
    }
}

/// Lazy generator of the cycle-by-cycle schedule of a March test, reading
/// from a computed [`SchedulePlan`].
#[derive(Debug, Clone)]
pub struct LowPowerSchedule {
    mode: OperatingMode,
    options: LpOptions,
    plan: SchedulePlan,
    elements: Vec<(AddressDirection, Vec<MarchOp>)>,
    element_cursor: usize,
    address_cursor: usize,
    op_cursor: usize,
}

impl LowPowerSchedule {
    /// Builds the schedule of `test` over `organization` in `mode`, using
    /// the paper's default options and the word-line-after-word-line order.
    pub fn new(test: &MarchTest, organization: ArrayOrganization, mode: OperatingMode) -> Self {
        Self::with_options(test, organization, mode, LpOptions::default())
    }

    /// Builds the schedule with explicit options (ablation experiments).
    pub fn with_options(
        test: &MarchTest,
        organization: ArrayOrganization,
        mode: OperatingMode,
        options: LpOptions,
    ) -> Self {
        Self::on_plan(test, SchedulePlan::new(organization, options), mode)
    }

    /// Builds the schedule of `test` over an existing plan.
    pub fn on_plan(test: &MarchTest, plan: SchedulePlan, mode: OperatingMode) -> Self {
        let options = *plan.options();
        let elements = test
            .elements()
            .iter()
            .map(|element| (element.direction(), element.ops().to_vec()))
            .collect();
        Self {
            mode,
            options,
            plan,
            elements,
            element_cursor: 0,
            address_cursor: 0,
            op_cursor: 0,
        }
    }

    /// The plan the schedule walks.
    pub fn plan(&self) -> &SchedulePlan {
        &self.plan
    }

    /// Total number of cycles the schedule will produce.
    pub fn len(&self) -> u64 {
        let ops: u64 = self.elements.iter().map(|(_, ops)| ops.len() as u64).sum();
        ops * self.plan.len() as u64
    }

    /// Returns `true` if the schedule produces no cycles.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The operating mode the schedule targets.
    pub fn mode(&self) -> OperatingMode {
        self.mode
    }

    /// The options the schedule was built with.
    pub fn options(&self) -> &LpOptions {
        &self.options
    }

    fn build_cycle(&self) -> ScheduledCycle {
        let (direction, ops) = &self.elements[self.element_cursor];
        let op = ops[self.op_cursor];
        self.plan.cycle(
            *direction,
            self.address_cursor,
            op,
            self.op_cursor == ops.len() - 1,
            self.mode,
            self.element_cursor,
        )
    }

    fn advance(&mut self) {
        let ops_len = self.elements[self.element_cursor].1.len();
        let addr_len = self.plan.len();
        self.op_cursor += 1;
        if self.op_cursor == ops_len {
            self.op_cursor = 0;
            self.address_cursor += 1;
            if self.address_cursor == addr_len {
                self.address_cursor = 0;
                self.element_cursor += 1;
            }
        }
    }
}

impl Iterator for LowPowerSchedule {
    type Item = ScheduledCycle;

    fn next(&mut self) -> Option<ScheduledCycle> {
        if self.element_cursor >= self.elements.len() {
            return None;
        }
        let cycle = self.build_cycle();
        self.advance();
        Some(cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use march_test::library;
    use sram_model::operation::PrechargePolicy;

    fn org() -> ArrayOrganization {
        ArrayOrganization::new(4, 8).unwrap()
    }

    #[test]
    fn functional_schedule_enables_all_columns_every_cycle() {
        let organization = org();
        let test = library::mats_plus();
        let schedule = LowPowerSchedule::new(&test, organization, OperatingMode::Functional);
        assert_eq!(schedule.len(), 5 * 32);
        let mut row_ends = 0;
        for cycle in schedule {
            assert_eq!(cycle.command.precharge, PrechargePolicy::AllColumns);
            assert!(!cycle.command.lp_test_mode);
            if cycle.last_in_row {
                assert!(!cycle.is_row_transition_restore);
                row_ends += 1;
            }
        }
        // One row end per row of each of MATS+'s three elements.
        assert_eq!(row_ends, 3 * 4);
    }

    #[test]
    fn low_power_schedule_precharges_selected_and_next_column() {
        let organization = org();
        let test = library::mats_plus();
        let schedule = LowPowerSchedule::new(&test, organization, OperatingMode::LowPowerTest);
        let cycles: Vec<ScheduledCycle> = schedule.collect();
        assert_eq!(cycles.len(), 5 * 32);

        // A mid-row cycle of the ascending element ⇑(r0,w1): address row 0,
        // col 2 — the mask must be exactly {2, 3}.
        let mid = cycles
            .iter()
            .find(|c| {
                c.element == 1
                    && c.command.address.col(&organization).value() == 2
                    && c.command.address.row(&organization).value() == 0
            })
            .unwrap();
        match &mid.command.precharge {
            PrechargePolicy::Columns(cols) => assert_eq!(cols, &vec![2, 3]),
            PrechargePolicy::AllColumns => panic!("mid-row cycle must not restore all"),
        }
        assert!(mid.command.lp_test_mode);
    }

    #[test]
    fn last_operation_of_each_row_is_a_restore_cycle() {
        let organization = org();
        let test = library::mats_plus();
        let schedule = LowPowerSchedule::new(&test, organization, OperatingMode::LowPowerTest);
        let cycles: Vec<ScheduledCycle> = schedule.collect();
        // Element 1 is ⇑(r0,w1): for each of the 4 rows, the w1 on the last
        // column of the row must be the restore cycle.
        let restores: Vec<&ScheduledCycle> = cycles
            .iter()
            .filter(|c| c.element == 1 && c.is_row_transition_restore)
            .collect();
        assert_eq!(restores.len(), 4, "one restore per row");
        for restore in restores {
            assert_eq!(restore.command.address.col(&organization).value(), 7);
            assert_eq!(restore.command.precharge, PrechargePolicy::AllColumns);
            assert!(restore.command.lp_test_mode);
        }
        // Descending elements restore on column 0 instead.
        let descending_restores: Vec<&ScheduledCycle> = cycles
            .iter()
            .filter(|c| c.element == 2 && c.is_row_transition_restore)
            .collect();
        assert_eq!(descending_restores.len(), 4);
        for restore in descending_restores {
            assert_eq!(restore.command.address.col(&organization).value(), 0);
        }
    }

    #[test]
    fn restore_can_be_disabled_for_the_hazard_ablation() {
        let organization = org();
        let test = library::mats_plus();
        let options = LpOptions {
            row_transition_restore: false,
            ..LpOptions::default()
        };
        let schedule = LowPowerSchedule::with_options(
            &test,
            organization,
            OperatingMode::LowPowerTest,
            options,
        );
        assert!(schedule.clone().all(|c| !c.is_row_transition_restore));
        assert_eq!(schedule.options().lookahead_columns, 1);
    }

    #[test]
    fn lookahead_width_is_configurable() {
        let organization = org();
        let test = library::mats_plus();
        let options = LpOptions {
            lookahead_columns: 2,
            ..LpOptions::default()
        };
        let schedule = LowPowerSchedule::with_options(
            &test,
            organization,
            OperatingMode::LowPowerTest,
            options,
        );
        let cycle = schedule
            .into_iter()
            .find(|c| c.element == 1 && c.command.address.col(&organization).value() == 1)
            .unwrap();
        match &cycle.command.precharge {
            PrechargePolicy::Columns(cols) => assert_eq!(cols, &vec![1, 2, 3]),
            PrechargePolicy::AllColumns => panic!("unexpected restore"),
        }
    }

    #[test]
    fn very_wide_lookahead_masks_are_not_truncated() {
        // Lookahead widths beyond 255 must keep their full mask length.
        let organization = ArrayOrganization::new(1, 512).unwrap();
        let plan = SchedulePlan::new(
            organization,
            LpOptions {
                lookahead_columns: 300,
                ..LpOptions::default()
            },
        );
        let mask: Vec<u32> = plan.mask_at(AddressDirection::Ascending, 0).collect();
        assert_eq!(mask.len(), 301);
        assert_eq!(mask[0], 0);
        assert_eq!(mask[300], 300);
    }

    #[test]
    fn expected_read_values_follow_the_march_ops() {
        let organization = org();
        let test = library::mats_plus();
        let schedule = LowPowerSchedule::new(&test, organization, OperatingMode::LowPowerTest);
        for cycle in schedule {
            match cycle.command.op {
                MemOperation::Read => assert!(cycle.expected_read.is_some()),
                MemOperation::Write(_) => assert!(cycle.expected_read.is_none()),
            }
        }
    }

    #[test]
    fn schedule_length_matches_test_length() {
        let organization = org();
        for test in library::table1_algorithms() {
            let schedule = LowPowerSchedule::new(&test, organization, OperatingMode::LowPowerTest);
            assert_eq!(
                schedule.len(),
                test.total_operations(u64::from(organization.capacity()))
            );
            assert!(!schedule.is_empty());
            assert_eq!(schedule.mode(), OperatingMode::LowPowerTest);
        }
    }

    #[test]
    fn plans_are_values_equal_across_modes_and_tests() {
        let organization = org();
        let plan = SchedulePlan::new(organization, LpOptions::default());
        assert_eq!(
            SchedulePlan::shared(organization, LpOptions::default()),
            plan
        );

        let functional = LowPowerSchedule::new(
            &library::mats_plus(),
            organization,
            OperatingMode::Functional,
        );
        let low_power = LowPowerSchedule::new(
            &library::march_c_minus(),
            organization,
            OperatingMode::LowPowerTest,
        );
        assert_eq!(functional.plan(), &plan);
        assert_eq!(low_power.plan(), &plan);

        let other = SchedulePlan::new(
            organization,
            LpOptions {
                lookahead_columns: 2,
                ..LpOptions::default()
            },
        );
        assert_ne!(plan, other, "different options, different plan");
    }

    #[test]
    fn plan_arrays_match_the_lazy_iterator() {
        let organization = org();
        let plan = SchedulePlan::new(organization, LpOptions::default());
        assert_eq!(plan.len(), 32);
        assert!(!plan.is_empty());
        assert_eq!(plan.organization(), &organization);
        // Ascending masks: mid-row {c, c+1}, row end {c}.
        for pos in 0..plan.len() {
            let col = plan.col_at(AddressDirection::Ascending, pos);
            let mask: Vec<u32> = plan.mask_at(AddressDirection::Ascending, pos).collect();
            assert_eq!(mask[0], col);
            if plan.row_boundary_at(AddressDirection::Ascending, pos) {
                assert_eq!(mask.len(), 1, "no same-row lookahead past a boundary");
                assert_eq!(col, 7);
            } else {
                assert_eq!(mask, [col, col + 1]);
            }
        }
        // Descending positions mirror the ascending ones.
        for pos in 0..plan.len() {
            assert_eq!(
                plan.address_at(AddressDirection::Descending, pos),
                plan.address_at(AddressDirection::Ascending, plan.len() - 1 - pos)
            );
        }
    }
}
