//! Degree-of-freedom experiment: fixing the address order does not change
//! fault coverage.
//!
//! The paper's technique requires the "word line after word line" address
//! order. This example simulates the standard fault list under three
//! different address orders for every Table 1 algorithm and shows that the
//! set of detected faults is identical — the experimental form of March
//! degree of freedom #1.
//!
//! ```text
//! cargo run --release --example fault_coverage_dof
//! ```

use sram_test_power::march_test::address_order::{
    AddressOrder, ColumnMajor, WordLineAfterWordLine,
};
use sram_test_power::march_test::coverage::{evaluate_coverage_interned, SweepOptions};
use sram_test_power::march_test::dof::{verify_order_independence, DegreeOfFreedom};
use sram_test_power::march_test::faults::static_fault_list;
use sram_test_power::march_test::library;
use sram_test_power::sram_model::config::ArrayOrganization;
use sram_test_power::sram_model::error::SramError;

fn main() -> Result<(), SramError> {
    println!("The six degrees of freedom of March tests:");
    for (i, dof) in DegreeOfFreedom::all().iter().enumerate() {
        println!("  {}. {}", i + 1, dof.statement());
    }
    println!();

    let organization = ArrayOrganization::new(8, 8)?;
    let faults = static_fault_list(&organization);
    println!(
        "fault list: {} static fault instances on an {}x{} array",
        faults.len(),
        organization.rows(),
        organization.cols()
    );
    println!();

    let orders: Vec<&dyn AddressOrder> = vec![&WordLineAfterWordLine, &ColumnMajor];
    println!(
        "{:<10} {:>22} {:>14} {:>18}",
        "algorithm", "coverage (row-major)", "coverage (col)", "order independent"
    );
    // Each order's sweep shares one precomputed walk across the whole
    // fault list and runs early-exit simulations (SweepOptions::fast) —
    // the throughput kernel the `fault_sim_bench` binary measures.
    for test in library::table1_algorithms() {
        let report = verify_order_independence(&test, &orders, &organization, &faults);
        println!(
            "{:<10} {:>21.1}% {:>13.1}% {:>18}",
            test.name(),
            report.reports[0].coverage() * 100.0,
            report.reports[1].coverage() * 100.0,
            if report.coverage_is_order_independent() {
                "yes"
            } else {
                "NO"
            }
        );
    }

    println!();
    println!("per-kind detail for March SS under the paper's address order:");
    let report = evaluate_coverage_interned(
        &library::march_ss(),
        &WordLineAfterWordLine,
        &organization,
        &faults,
        SweepOptions::fast(),
    );
    for (kind, (detected, total)) in report.by_kind() {
        println!("  {kind:<5} {detected}/{total}");
    }
    Ok(())
}
