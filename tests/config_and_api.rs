//! API-surface contracts: builder-produced configurations are always
//! valid, the [`CsmError::ConfigInvalid`] taxonomy names the offending
//! field, and [`ParaCosm::run_stream`] with an observer is a drop-in
//! replacement for [`ParaCosm::process_stream`].

#![deny(deprecated)]

use paracosm::algos::testing;
use paracosm::prelude::*;
use proptest::prelude::*;
use std::time::Duration;

/// Arbitrary chains of the public builder methods, starting from either
/// preset constructor. Zero encodes "this builder not called".
fn builder_config() -> impl Strategy<Value = ParaCosmConfig> {
    (
        0usize..9,    // 0 -> sequential(), n -> parallel(n)
        0u64..5_000,  // 0 -> no time limit, ms otherwise
        any::<u64>(), // parity -> collecting()
        0usize..512,  // 0 -> default batch size
        0usize..33,   // 0 -> default slow_k
        0usize..9,    // 0 -> keep preset threads
    )
        .prop_map(|(par, limit, collect, batch, slow_k, threads)| {
            let mut c = match par {
                0 => ParaCosmConfig::sequential(),
                n => ParaCosmConfig::parallel(n),
            };
            if limit > 0 {
                c = c.with_time_limit(Duration::from_millis(limit));
            }
            if collect % 2 == 0 {
                c = c.collecting();
            }
            if batch > 0 {
                c = c.with_batch_size(batch);
            }
            if slow_k > 0 {
                c = c.with_slow_k(slow_k);
            }
            if threads > 0 {
                c = c.with_threads(threads);
            }
            c
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// No chain of builder calls can produce a config that `validate`
    /// rejects: the builders are the blessed path, so they must uphold
    /// the invariants the engine constructors enforce.
    #[test]
    fn builder_configs_always_validate(cfg in builder_config()) {
        prop_assert!(cfg.validate().is_ok(), "builder produced invalid config: {cfg:?}");
        // validated() is the consuming form of the same check.
        prop_assert!(cfg.clone().validated().is_ok());
    }

    /// Every invalid field the taxonomy documents is caught by name when
    /// written directly (bypassing the builders).
    #[test]
    fn raw_zero_fields_are_named_in_errors(which in 0usize..4) {
        let mut cfg = ParaCosmConfig::sequential();
        let field = match which {
            0 => { cfg.num_threads = 0; "num_threads" }
            1 => { cfg.batch_size = 0; "batch_size" }
            2 => { cfg.time_limit = Some(Duration::ZERO); "time_limit" }
            _ => { cfg.seed_task_factor = 0; "seed_task_factor" }
        };
        match cfg.validate() {
            Err(CsmError::ConfigInvalid { field: f, reason }) => {
                prop_assert_eq!(f, field);
                prop_assert!(!reason.is_empty());
            }
            other => prop_assert!(false, "expected ConfigInvalid for {}, got {:?}", field, other),
        }
    }
}

/// `run_stream` with a counting observer, `run_stream` with a
/// [`NoopObserver`], and `process_stream` all produce identical outcomes
/// and identical final statistics over the same workload.
#[test]
fn run_stream_is_a_drop_in_for_the_deprecated_wrapper() {
    for seed in [5u64, 19, 101] {
        let (g, stream) = testing::random_workload(seed, 20, 2, 1, 30, 40, 0.3);
        let Some(q) = testing::random_walk_query(&g, seed ^ 0x5EED, 3) else {
            continue;
        };
        let mk = || {
            ParaCosm::new(
                g.clone(),
                q.clone(),
                AlgoKind::Symbi.build(&g, &q),
                ParaCosmConfig::sequential(),
            )
        };

        let mut plain = mk();
        let a = plain.process_stream(&stream).unwrap();

        let mut observed = mk();
        let mut seen = 0u64;
        struct Count<'a>(&'a mut u64);
        impl StreamObserver for Count<'_> {
            fn on_update(&mut self, _: &UpdateObservation) {
                *self.0 += 1;
            }
        }
        let b = observed.run_stream(&stream, &mut Count(&mut seen)).unwrap();

        let mut unobserved = mk();
        let c = unobserved.run_stream(&stream, &mut NoopObserver).unwrap();

        assert_eq!((a.positives, a.negatives), (b.positives, b.negatives));
        assert_eq!((a.positives, a.negatives), (c.positives, c.negatives));
        assert_eq!(seen, stream.len() as u64, "observer fires once per update");
        assert_eq!(plain.stats().positives, observed.stats().positives);
        assert_eq!(plain.stats().negatives, unobserved.stats().negatives);
        assert!(plain.stats().classifier.is_consistent());
    }
}
