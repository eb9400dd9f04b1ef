//! One module per paper table/figure — see DESIGN.md §5 for the experiment
//! index. Every experiment consumes [`crate::runner::ExpOptions`] and
//! returns printable [`crate::report::Table`]s.

pub mod breakdown;
pub mod observe;
pub mod profile;
pub mod shared_sessions;
pub mod singlethread;
pub mod speedups;
pub mod tables;
