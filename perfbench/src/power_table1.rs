//! `power_table1`: the paper's Table 1 on its 512×512 array, then on
//! 1024×1024 with the same technology — the experiment paper reproducers
//! wait for, plus the size where replay throughput drops.
//!
//! Layers worked: `core` (rehearse and replay), `sram` (the rehearsal
//! cycles), `power` (meter, peak tracker, analytic model) and `sched`
//! (five uneven sessions over the worker pool).

use std::hint::black_box;

use lp_precharge::engine::TestSession;
use lp_precharge::mode::OperatingMode;
use lp_precharge::report::{reproduce_table1, reproduce_table1_serial};
use lp_precharge::scheduler::{LpOptions, SchedulePlan};
use march_test::library;
use power_model::analytic::AnalyticPowerModel;
use power_model::calibration::CalibratedParameters;
use power_model::peak::PeakTracker;
use power_model::report::Table1Row;
use sram_model::config::{ArrayOrganization, SramConfig};
use transient::units::Joules;

use crate::harness::{Facts, Workload};
use crate::trace::Tracer;

/// Rows and columns of the two arrays one op reproduces Table 1 on.
pub const SIZES: [u32; 2] = [512, 1024];
/// Repetitions of each probe; the metric is their median.
const PROBE_REPS: usize = 5;
/// Edge of the small array the reference-path spot check runs on.
const SPOT_SIZE: u32 = 64;

/// The Table 1 rows of both arrays, in [`SIZES`] order.
pub type Tables = Vec<Vec<Table1Row>>;

/// The `power_table1` workload.
pub struct PowerTable1 {
    configs: Vec<SramConfig>,
}

fn with_organization(config: &SramConfig, rows: u32, cols: u32) -> SramConfig {
    SramConfig::builder()
        .organization(ArrayOrganization::new(rows, cols).expect("valid organization"))
        .technology(*config.technology())
        .build()
        .expect("the paper's technology is valid")
}

/// Simulated cycles of one Table 1 pass on `config`: five algorithms,
/// both modes.
fn cycles(config: &SramConfig) -> u64 {
    let cells = u64::from(config.organization().capacity());
    library::table1_algorithms()
        .iter()
        .map(|test| 2 * test.total_operations(cells))
        .sum()
}

/// The row fields, floats as raw bits, for a bit-for-bit comparison.
fn row_bits(row: &Table1Row) -> (&str, [usize; 4], [u64; 3]) {
    (
        row.algorithm.as_str(),
        [row.elements, row.operations, row.reads, row.writes],
        [
            row.prr_simulated_percent.to_bits(),
            row.prr_analytic_percent.to_bits(),
            row.prr_paper_percent.to_bits(),
        ],
    )
}

fn table_bits(tables: &Tables) -> Vec<(&str, [usize; 4], [u64; 3])> {
    tables.iter().flatten().map(row_bits).collect()
}

/// The largest gap, in percentage points, between a simulated PRR and
/// the paper's value.
pub fn prr_err_pp(rows: &[Table1Row]) -> f64 {
    rows.iter()
        .map(|row| (row.prr_simulated_percent - row.prr_paper_percent).abs())
        .fold(0.0, f64::max)
}

impl PowerTable1 {
    /// The paper's array and its 1024×1024 sibling, with their schedule
    /// plans already in the shared cache (as after any first use).
    pub fn setup() -> Self {
        let paper = SramConfig::paper_default();
        let configs: Vec<SramConfig> = SIZES
            .iter()
            .map(|&size| with_organization(&paper, size, size))
            .collect();
        for config in &configs {
            SchedulePlan::shared(*config.organization(), LpOptions::default());
        }
        Self { configs }
    }

    fn cycles_per_op(&self) -> u64 {
        self.configs.iter().map(cycles).sum()
    }

    /// Times the layers of one op from outside: serial sessions on the
    /// full arrays and on 2-row arrays (rehearsal only), uncached plan
    /// builds, the fully simulated reference path, the peak tracker over
    /// a replay-length stream and the analytic model.
    pub fn probes(&self, tracer: &Tracer, facts: &mut Facts) -> Result<(), String> {
        let tests = library::table1_algorithms();
        for config in &self.configs {
            let size = config.organization().rows();
            let full = TestSession::new(*config);
            let rehearsal = TestSession::new(with_organization(config, 2, size));
            let run_all = |session: &TestSession, scope: Option<crate::trace::Scope<'_>>| {
                for test in &tests {
                    for mode in OperatingMode::both() {
                        let outcome = match scope {
                            Some(scope) => scope.span("core.session", |_| session.run(test, mode)),
                            None => session.run(test, mode),
                        };
                        black_box(outcome.map_err(|e| e.to_string())?);
                    }
                }
                Ok::<(), String>(())
            };
            // Warm the 2-row array's cached plan, as the full arrays' are.
            run_all(&rehearsal, None)?;
            for _ in 0..PROBE_REPS {
                tracer.span(&format!("probe.core.sessions.{size}"), |s| {
                    run_all(&full, Some(s))
                })?;
                tracer.span(&format!("probe.core.rehearse.{size}"), |s| {
                    run_all(&rehearsal, Some(s))
                })?;
                tracer.span(&format!("probe.core.plan_build.{size}"), |_| {
                    black_box(SchedulePlan::new(
                        *config.organization(),
                        LpOptions::default(),
                    ));
                });
            }
            facts.insert(format!("core.cycles.{size}"), cycles(config) as f64);
        }

        let spot = TestSession::new(with_organization(&self.configs[0], SPOT_SIZE, SPOT_SIZE));
        let march_c = library::march_c_minus();
        for _ in 0..PROBE_REPS {
            tracer
                .span("probe.sram.simulate", |_| {
                    spot.run_fully_simulated(&march_c, OperatingMode::LowPowerTest, false)
                })
                .map_err(|e| e.to_string())?;
        }
        facts.insert(
            "sram.cycles".to_string(),
            march_c.total_operations(u64::from(SPOT_SIZE * SPOT_SIZE)) as f64,
        );

        // One replayed March C- session on the paper's array feeds the
        // tracker once per cycle; the stream repeats one row's profile,
        // as replay does.
        let paper = &self.configs[0];
        let row_cycles = paper.organization().cols() as usize * 2;
        let stream: Vec<Joules> = (0..march_c
            .total_operations(u64::from(paper.organization().capacity())))
            .map(|cycle| {
                let position = (cycle as usize % row_cycles) as u64;
                Joules(1e-12 * (1.0 + (position.wrapping_mul(2_654_435_761) % 1000) as f64 / 1e3))
            })
            .collect();
        let clock = paper.technology().clock_period;
        for _ in 0..PROBE_REPS {
            tracer.span("probe.power.peak", |_| {
                let mut tracker = PeakTracker::new(clock);
                for &total in &stream {
                    tracker.record_total(total);
                }
                black_box(tracker.peak_power());
            });
        }
        facts.insert("power.stream_cycles".to_string(), stream.len() as f64);

        for _ in 0..PROBE_REPS {
            tracer.span("probe.power.analytic", |_| {
                for test in &tests {
                    let model = AnalyticPowerModel::new(CalibratedParameters::derive(
                        paper.technology(),
                        paper.organization(),
                    ));
                    black_box(model.power_reduction_ratio(test, paper.organization()));
                }
            });
        }
        Ok(())
    }

    /// Reference-path spot check: the row-replay kernel reproduces the
    /// full cycle-by-cycle simulation of March C- at 64×64 in both modes.
    pub fn spot_check() -> Result<(), String> {
        let session = TestSession::new(with_organization(
            &SramConfig::paper_default(),
            SPOT_SIZE,
            SPOT_SIZE,
        ));
        let test = library::march_c_minus();
        for mode in OperatingMode::both() {
            let replayed = session.run(&test, mode).map_err(|e| e.to_string())?;
            let simulated = session
                .run_fully_simulated(&test, mode, false)
                .map_err(|e| e.to_string())?;
            if replayed != simulated {
                return Err(format!(
                    "replay diverged from full simulation in {mode} mode"
                ));
            }
        }
        Ok(())
    }
}

impl Workload for PowerTable1 {
    type Output = Tables;

    const NAME: &'static str = "power_table1";
    const RATE: &'static str = "cycles_per_s";

    fn op(&self, tracer: Option<&Tracer>) -> Result<Tables, String> {
        let table = |config: &SramConfig| reproduce_table1(config).map_err(|e| e.to_string());
        match tracer {
            None => self.configs.iter().map(table).collect(),
            Some(tracer) => tracer.op("op.power_table1", |op| {
                self.configs
                    .iter()
                    .map(|config| {
                        let size = config.organization().rows();
                        op.span(&format!("core.table1.{size}"), |_| table(config))
                    })
                    .collect()
            }),
        }
    }

    fn serial(&self) -> Result<Tables, String> {
        self.configs
            .iter()
            .map(|config| reproduce_table1_serial(config).map_err(|e| e.to_string()))
            .collect()
    }

    fn check(&self, output: &Tables, reference: &Tables) -> Result<(), String> {
        if table_bits(output) == table_bits(reference) {
            Ok(())
        } else {
            Err("Table 1 rows differ from the serial reference".to_string())
        }
    }

    fn work(&self, _output: &Tables) -> f64 {
        self.cycles_per_op() as f64
    }

    fn per_op(&self) -> String {
        format!("{} simulated cycles", self.cycles_per_op())
    }

    fn describe(&self, tables: &Tables) -> String {
        let mut hash = march_test::rng::Fnv1a::new();
        for row in tables.iter().flatten() {
            for bits in row_bits(row).2 {
                hash.write_u64(bits);
            }
        }
        format!(
            "prr_fingerprint={:#018x} prr_err_pp={}",
            hash.finish(),
            prr_err_pp(&tables[0])
        )
    }
}
