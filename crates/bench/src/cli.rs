//! The organization-list parser shared by the benchmark binaries.
//!
//! Both binaries scan their command lines with the campaign binaries'
//! strict scanner ([`campaign::cli::Args`]): an unknown flag, a missing
//! value or a stray token is a [`UsageError`] (exit code `2`) before
//! anything is measured or written. I/O failures exit with code `3`;
//! `bench_check` keeps `1` for the regression gate itself.

use campaign::cli::UsageError;

/// Parses a comma-separated organization list like `64x64,128x128`,
/// attributing failures to `flag`.
pub fn parse_size_list(spec: &str, flag: &str) -> Result<Vec<(u32, u32)>, UsageError> {
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
            Ok((rows, cols))
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
            parse_size_list("64x64, 128x256", "--sizes"),
            Ok(vec![(64, 64), (128, 256)])
        );
    }

    #[test]
    fn rejects_each_malformed_size_shape_with_the_flag_named() {
        for (spec, fragment) in [
            ("64-64", "must look like 64x64"),
            ("ax64", "rows"),
            ("64xb", "cols"),
            ("", "must look like 64x64"),
        ] {
            let error = parse_size_list(spec, "--organization").unwrap_err();
            assert_eq!(error.flag, "--organization", "spec {spec:?}");
            assert!(
                error.reason.contains(fragment),
                "spec {spec:?}: {}",
                error.reason
            );
        }
    }
}
