//! The organization parsers shared by the benchmark binaries.
//!
//! Both binaries scan their command lines with the campaign binaries'
//! strict scanner ([`campaign::cli::Args`]): an unknown flag, a missing
//! value, a stray token or an array size the benchmark cannot run is a
//! [`UsageError`] (exit code `2`) before anything is measured or written.
//! I/O failures exit with code `3`; `bench_check` keeps `1` for the
//! regression gate itself.

use campaign::cli::UsageError;
use sram_model::config::ArrayOrganization;

/// Cells the standard fault list needs
/// ([`march_test::faults::standard_fault_list`]): the least a fault-sim
/// benchmark size may have.
pub const FAULT_LIST_MIN_CELLS: u64 = 4;

/// Checks that `rows` × `cols` is a valid array organization
/// ([`ArrayOrganization::new`]) of at least `min_cells` cells,
/// attributing a failure to `flag`.
pub fn check_size(
    rows: u32,
    cols: u32,
    min_cells: u64,
    flag: &str,
) -> Result<(u32, u32), UsageError> {
    ArrayOrganization::new(rows, cols).map_err(|error| UsageError::new(flag, error.to_string()))?;
    let cells = u64::from(rows) * u64::from(cols);
    if cells < min_cells {
        return Err(UsageError::new(
            flag,
            format!("{rows}x{cols} has {cells} cells, fewer than the {min_cells} needed"),
        ));
    }
    Ok((rows, cols))
}

/// Parses a comma-separated organization list like `64x64,128x128`,
/// checking each size with [`check_size`] and attributing failures to
/// `flag`.
pub fn parse_size_list(
    spec: &str,
    min_cells: u64,
    flag: &str,
) -> Result<Vec<(u32, u32)>, UsageError> {
    let sizes: Vec<(u32, u32)> = spec
        .split(',')
        .map(|entry| {
            let entry = entry.trim();
            let (rows, cols) = entry
                .split_once('x')
                .ok_or_else(|| UsageError::new(flag, format!("'{entry}' must look like 64x64")))?;
            let rows = rows.parse().map_err(|_| {
                UsageError::new(flag, format!("rows of '{entry}' must be an integer"))
            })?;
            let cols = cols.parse().map_err(|_| {
                UsageError::new(flag, format!("cols of '{entry}' must be an integer"))
            })?;
            check_size(rows, cols, min_cells, flag)
        })
        .collect::<Result<_, UsageError>>()?;
    if sizes.is_empty() {
        return Err(UsageError::new(flag, "empty organization list"));
    }
    Ok(sizes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_size_lists() {
        assert_eq!(
            parse_size_list("64x64, 128x256", 1, "--sizes"),
            Ok(vec![(64, 64), (128, 256)])
        );
        assert_eq!(parse_size_list("1x1", 1, "--sizes"), Ok(vec![(1, 1)]));
        assert_eq!(
            parse_size_list("2x2,1x4", FAULT_LIST_MIN_CELLS, "--organization"),
            Ok(vec![(2, 2), (1, 4)])
        );
    }

    #[test]
    fn rejects_sizes_no_benchmark_can_run() {
        for (spec, min_cells, fragment) in [
            ("0x64", 1, "must be non-zero"),
            ("64x0", 1, "must be non-zero"),
            ("64x65537", 1, "exceeds the supported maximum"),
            (
                "1x2",
                FAULT_LIST_MIN_CELLS,
                "2 cells, fewer than the 4 needed",
            ),
            ("64x64,3x1", FAULT_LIST_MIN_CELLS, "3 cells"),
        ] {
            let error = parse_size_list(spec, min_cells, "--sizes").unwrap_err();
            assert_eq!(error.flag, "--sizes", "spec {spec:?}");
            assert!(
                error.reason.contains(fragment),
                "spec {spec:?}: {}",
                error.reason
            );
        }
        assert!(check_size(0, 64, 1, "--rows").is_err());
        assert_eq!(check_size(2, 2, FAULT_LIST_MIN_CELLS, "--rows"), Ok((2, 2)));
    }

    #[test]
    fn rejects_each_malformed_size_shape_with_the_flag_named() {
        for (spec, fragment) in [
            ("64-64", "must look like 64x64"),
            ("ax64", "rows"),
            ("64xb", "cols"),
            ("", "must look like 64x64"),
        ] {
            let error = parse_size_list(spec, 1, "--organization").unwrap_err();
            assert_eq!(error.flag, "--organization", "spec {spec:?}");
            assert!(
                error.reason.contains(fragment),
                "spec {spec:?}: {}",
                error.reason
            );
        }
    }
}
