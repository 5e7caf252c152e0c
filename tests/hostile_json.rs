//! Hostile JSON must come back as an error, never abort the process.
//!
//! The `dg-sweep` parser is a recursive descent; without its nesting
//! bound a `POST /sweep` body of 200 KB of `[` overflowed the stack and
//! killed `dg-serve` (a stack overflow is an abort, which no panic
//! handler sees). If the bound regresses, this test binary crashes.

use dynspread::dynagraph::sweep::{SweepError, SweepReport, SweepSpec};

#[test]
fn deep_nesting_is_a_parse_error() {
    let brackets = "[".repeat(200_000);
    assert!(matches!(
        SweepReport::from_json(&brackets),
        Err(SweepError::Parse(_))
    ));
    assert!(matches!(
        SweepSpec::from_json(&brackets),
        Err(SweepError::Parse(_))
    ));
    let objects = "{\"axes\": ".repeat(200_000);
    assert!(matches!(
        SweepSpec::from_json(&objects),
        Err(SweepError::Parse(_))
    ));
}
