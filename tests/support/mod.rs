//! Shared helpers for integration tests. Not a test crate itself:
//! each `tests/*.rs` crate that needs these declares `mod support;`
//! and compiles its own copy.

pub mod chaos;
pub mod deployment;
pub mod net;
