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
//! # The precomputed schedule plan
//!
//! A full 512×512 March G run is about six million cycles, so the
//! per-cycle data must be cheap to produce. The whole per-cycle command
//! stream is determined by `(organization, options)` alone — the March
//! test only selects which element directions walk it and which operation
//! runs each cycle. [`SchedulePlan`] therefore precomputes, once per
//! organization, the per-position arrays every cycle reads from: the
//! address, its physical column, whether the position sits on a row
//! boundary (the restore-cycle trigger) and the explicit pre-charge mask
//! of the low-power mode, stored as slices into one flat column array
//! (analogous to the march crate's `MarchWalk`/`AddressPlan`). Plans are
//! shared read-only across modes, runs and threads through
//! [`SchedulePlan::shared`], so the five Table 1 algorithms and both
//! operating modes of a PRR comparison all walk the same arrays.
//!
//! [`LowPowerSchedule`] stays a lazy iterator over that plan: commands are
//! produced on demand by index arithmetic, with no divisions, neighbour
//! lookups or allocations beyond the mask `Vec` the public
//! [`CycleCommand`] type requires.

use std::sync::{Arc, Mutex, OnceLock};

use sram_model::address::Address;
use sram_model::config::ArrayOrganization;
use sram_model::operation::{CycleCommand, MemOperation};

use march_test::algorithm::MarchTest;
use march_test::element::AddressDirection;
use march_test::executor::AddressPlan;
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

/// The per-position arrays of one walk direction.
#[derive(Debug)]
struct DirectionSteps {
    /// Address visited at each position.
    addresses: Vec<Address>,
    /// Physical column of each position.
    cols: Vec<u32>,
    /// Whether the next position falls on a different row (or past the
    /// end) — the row-transition restore trigger.
    row_boundary: Vec<bool>,
    /// Start of each position's pre-charge mask in `mask_data`.
    mask_offsets: Vec<u32>,
    /// Length of each position's pre-charge mask (`1 + lookahead`
    /// entries in general, so a full-width `u32` — never truncated).
    mask_lens: Vec<u32>,
    /// Flat storage of all pre-charge masks.
    mask_data: Vec<u32>,
}

impl DirectionSteps {
    fn build(
        plan: &AddressPlan,
        direction: AddressDirection,
        organization: &ArrayOrganization,
        options: LpOptions,
    ) -> Self {
        let len = plan.len();
        let mut addresses = Vec::with_capacity(len);
        let mut cols = Vec::with_capacity(len);
        let mut row_boundary = Vec::with_capacity(len);
        let mut mask_offsets = Vec::with_capacity(len);
        let mut mask_lens = Vec::with_capacity(len);
        let mut mask_data = Vec::with_capacity(len * (1 + options.lookahead_columns as usize));
        let mut scratch: Vec<u32> = Vec::new();

        for pos in 0..len {
            let address = plan.at(direction, pos).expect("position within plan");
            let row = address.row(organization);
            let col = address.col(organization).value();
            let next = plan.at(direction, pos + 1);
            let next_in_same_row = next.map(|a| a.row(organization) == row).unwrap_or(false);

            scratch.clear();
            scratch.push(col);
            for ahead in 1..=options.lookahead_columns as usize {
                if let Some(a) = plan.at(direction, pos + ahead) {
                    if a.row(organization) == row {
                        let c = a.col(organization).value();
                        if !scratch.contains(&c) {
                            scratch.push(c);
                        }
                    }
                }
            }

            addresses.push(address);
            cols.push(col);
            row_boundary.push(!next_in_same_row);
            mask_offsets.push(mask_data.len() as u32);
            mask_lens.push(scratch.len() as u32);
            mask_data.extend_from_slice(&scratch);
        }

        Self {
            addresses,
            cols,
            row_boundary,
            mask_offsets,
            mask_lens,
            mask_data,
        }
    }

    #[inline]
    fn mask(&self, pos: usize) -> &[u32] {
        let offset = self.mask_offsets[pos] as usize;
        let len = self.mask_lens[pos] as usize;
        &self.mask_data[offset..offset + len]
    }
}

/// The precomputed per-cycle command stream of the low-power schedule,
/// independent of any particular March test: per-position addresses,
/// columns, row boundaries and pre-charge masks for both walk directions.
///
/// Built once per `(organization, options)` and shared read-only across
/// operating modes, runs and threads (see [`SchedulePlan::shared`]).
#[derive(Debug)]
pub struct SchedulePlan {
    organization: ArrayOrganization,
    options: LpOptions,
    ascending: DirectionSteps,
    descending: DirectionSteps,
}

type PlanKey = (u32, u32, u32, bool);
type PlanCache = Mutex<Vec<(PlanKey, Arc<SchedulePlan>)>>;

fn plan_cache() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Number of distinct `(organization, options)` plans kept in the shared
/// cache; experiments cycle through a handful of organizations at most.
const PLAN_CACHE_CAPACITY: usize = 8;

impl SchedulePlan {
    /// Precomputes the schedule arrays of `organization` under `options`,
    /// using the paper's word-line-after-word-line order.
    pub fn new(organization: ArrayOrganization, options: LpOptions) -> Self {
        let plan = AddressPlan::new(
            &march_test::address_order::WordLineAfterWordLine,
            &organization,
        );
        let ascending =
            DirectionSteps::build(&plan, AddressDirection::Ascending, &organization, options);
        let descending =
            DirectionSteps::build(&plan, AddressDirection::Descending, &organization, options);
        Self {
            organization,
            options,
            ascending,
            descending,
        }
    }

    /// Returns the shared plan for `(organization, options)`, computing and
    /// caching it on first use. Subsequent calls (from any thread) reuse
    /// the same arrays, so the five Table 1 sessions and the two modes of a
    /// PRR comparison never rebuild the stream.
    pub fn shared(organization: ArrayOrganization, options: LpOptions) -> Arc<Self> {
        let key = (
            organization.rows(),
            organization.cols(),
            options.lookahead_columns,
            options.row_transition_restore,
        );
        let mut cache = plan_cache().lock().expect("schedule plan cache poisoned");
        if let Some((_, plan)) = cache.iter().find(|(k, _)| *k == key) {
            return Arc::clone(plan);
        }
        let plan = Arc::new(Self::new(organization, options));
        if cache.len() == PLAN_CACHE_CAPACITY {
            cache.remove(0);
        }
        cache.push((key, Arc::clone(&plan)));
        plan
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
        self.ascending.addresses.len()
    }

    /// `true` when the plan covers no addresses.
    pub fn is_empty(&self) -> bool {
        self.ascending.addresses.is_empty()
    }

    #[inline]
    fn steps(&self, direction: AddressDirection) -> &DirectionSteps {
        match direction {
            AddressDirection::Ascending | AddressDirection::Either => &self.ascending,
            AddressDirection::Descending => &self.descending,
        }
    }

    /// The address at `position` of a walk in `direction`.
    #[inline]
    pub fn address_at(&self, direction: AddressDirection, position: usize) -> Address {
        self.steps(direction).addresses[position]
    }

    /// The physical column at `position` of a walk in `direction`.
    #[inline]
    pub fn col_at(&self, direction: AddressDirection, position: usize) -> u32 {
        self.steps(direction).cols[position]
    }

    /// Whether `position` is the last address of its row in `direction`.
    #[inline]
    pub fn row_boundary_at(&self, direction: AddressDirection, position: usize) -> bool {
        self.steps(direction).row_boundary[position]
    }

    /// The low-power pre-charge mask at `position` of a walk in
    /// `direction`: the selected column followed by the configured
    /// lookahead of upcoming same-row columns.
    #[inline]
    pub fn mask_at(&self, direction: AddressDirection, position: usize) -> &[u32] {
        self.steps(direction).mask(position)
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
        let mem_op = match op {
            MarchOp::W0 => MemOperation::Write(false),
            MarchOp::W1 => MemOperation::Write(true),
            MarchOp::R0 | MarchOp::R1 => MemOperation::Read,
        };
        let expected_read = op.expected_value();
        let last_in_row = last_op_on_address && self.row_boundary_at(direction, position);

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
                self.mask_at(direction, position).to_vec(),
            ),
            expected_read,
            element,
            is_row_transition_restore: false,
            last_in_row,
        }
    }
}

/// Lazy generator of the cycle-by-cycle schedule of a March test, reading
/// from a shared precomputed [`SchedulePlan`].
#[derive(Debug, Clone)]
pub struct LowPowerSchedule {
    mode: OperatingMode,
    options: LpOptions,
    plan: Arc<SchedulePlan>,
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
        Self::on_plan(test, SchedulePlan::shared(organization, options), mode)
    }

    /// Builds the schedule of `test` over an existing shared plan.
    pub fn on_plan(test: &MarchTest, plan: Arc<SchedulePlan>, mode: OperatingMode) -> Self {
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

    /// The shared plan the schedule walks.
    pub fn plan(&self) -> &Arc<SchedulePlan> {
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
        let mask = plan.mask_at(AddressDirection::Ascending, 0);
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
    fn shared_plans_are_reused_across_modes_and_tests() {
        let organization = org();
        let a = SchedulePlan::shared(organization, LpOptions::default());
        let b = SchedulePlan::shared(organization, LpOptions::default());
        assert!(Arc::ptr_eq(&a, &b), "same key must hit the cache");

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
        assert!(Arc::ptr_eq(functional.plan(), low_power.plan()));

        let other = SchedulePlan::shared(
            organization,
            LpOptions {
                lookahead_columns: 2,
                ..LpOptions::default()
            },
        );
        assert!(
            !Arc::ptr_eq(&a, &other),
            "different options, different plan"
        );
    }

    #[test]
    fn plan_arrays_match_the_lazy_iterator() {
        let organization = org();
        let plan = SchedulePlan::shared(organization, LpOptions::default());
        assert_eq!(plan.len(), 32);
        assert!(!plan.is_empty());
        assert_eq!(plan.organization(), &organization);
        // Ascending masks: mid-row {c, c+1}, row end {c}.
        for pos in 0..plan.len() {
            let col = plan.col_at(AddressDirection::Ascending, pos);
            let mask = plan.mask_at(AddressDirection::Ascending, pos);
            assert_eq!(mask[0], col);
            if plan.row_boundary_at(AddressDirection::Ascending, pos) {
                assert_eq!(mask.len(), 1, "no same-row lookahead past a boundary");
                assert_eq!(col, 7);
            } else {
                assert_eq!(mask, &[col, col + 1]);
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
