//! One module per paper table/figure — see DESIGN.md §5 for the experiment
//! index. Every experiment consumes [`crate::runner::ExpOptions`] and
//! returns printable [`crate::report::Table`]s.

pub mod breakdown;
pub mod observe;
pub mod singlethread;
pub mod speedups;
pub mod tables;

#[cfg(test)]
mod tests {
    use super::{breakdown, singlethread};
    use crate::runner::ExpOptions;
    use std::time::Duration;

    /// Tables built from `para_cfg` runs say they are modelled; the
    /// sequential (`seq_cfg`) sweep, which is measured, does not.
    #[test]
    fn only_para_cfg_tables_carry_the_modelled_note() {
        let opts = ExpOptions {
            threads: 4,
            queries_per_cell: 1,
            stream_cap: 20,
            timeout: Duration::from_secs(5),
            qsizes: vec![4],
            ..ExpOptions::default()
        };
        let modelled = breakdown::fig10(&opts).render();
        assert!(
            modelled.contains("MODELLED: 4 virtual workers on one real thread"),
            "{modelled}"
        );
        let measured = singlethread::run_sweep(&opts).table3(&opts).render();
        assert!(!measured.contains("MODELLED"), "{measured}");
    }
}
