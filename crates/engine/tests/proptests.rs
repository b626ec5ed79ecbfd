//! Randomized end-to-end properties of the virtual-time engine:
//! exactly-once across arbitrary failure instants and victims, and
//! bit-level determinism. Expensive, so few cases — every case is a full
//! engine run.

use checkmate_core::{FaultPlan, KillEvent, ProtocolKind};
use checkmate_dataflow::WorkerId;
use checkmate_engine::config::{EngineConfig, FailureSpec};
use checkmate_engine::engine::Engine;
use checkmate_engine::report::Outcome;
use checkmate_engine::testkit::counting_pipeline;
use checkmate_sim::{MILLIS, SECONDS};
use proptest::prelude::*;

fn bounded(protocol: ProtocolKind, seed: u64, failure: Option<FailureSpec>) -> EngineConfig {
    EngineConfig {
        parallelism: 3,
        protocol,
        total_rate: 1_200.0,
        checkpoint_interval: SECONDS,
        duration: 120 * SECONDS,
        warmup: SECONDS,
        input_limit: Some(1_000),
        seed,
        failure,
        ..EngineConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Exactly-once holds for every protocol at *any* failure instant and
    /// victim: the failure run's final sink digest equals the clean run's.
    #[test]
    fn exactly_once_at_any_failure_point(
        proto_i in 0usize..4,
        at_ms in 200u64..3_000,
        victim in 0u32..3,
        seed in any::<u64>(),
    ) {
        let protocol = [
            ProtocolKind::Coordinated,
            ProtocolKind::Uncoordinated,
            ProtocolKind::CommunicationInduced,
            ProtocolKind::CommunicationInducedBcs,
        ][proto_i];
        let clean = Engine::new(
            &counting_pipeline(3),
            bounded(protocol, seed, None),
        ).run();
        let failed = Engine::new(
            &counting_pipeline(3),
            bounded(protocol, seed, Some(FailureSpec {
                at: at_ms * MILLIS,
                worker: WorkerId(victim),
            })),
        ).run();
        prop_assert_eq!(clean.outcome, Outcome::Drained);
        prop_assert_eq!(
            failed.outcome.clone(),
            Outcome::Drained,
            "failure run stalled: {}",
            failed.summary()
        );
        prop_assert_eq!(
            failed.sink_digest,
            clean.sink_digest,
            "exactly-once violated for {} (failure at {}ms on w{}): {}",
            protocol,
            at_ms,
            victim,
            failed.summary()
        );
    }

    /// Full-run determinism: any seed reproduces itself event-for-event.
    #[test]
    fn engine_runs_are_deterministic_for_any_seed(seed in any::<u64>()) {
        let a = Engine::new(&counting_pipeline(3), bounded(ProtocolKind::Uncoordinated, seed, None)).run();
        let b = Engine::new(&counting_pipeline(3), bounded(ProtocolKind::Uncoordinated, seed, None)).run();
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.sink_digest, b.sink_digest);
        prop_assert_eq!(a.end_time, b.end_time);
        prop_assert_eq!(a.checkpoints_total, b.checkpoints_total);
    }

    /// Repeated kills at arbitrary instants and victims: exactly-once
    /// still holds, and the global recovery line never moves backwards
    /// (each computed line's minimum checkpoint index is ≥ its
    /// predecessor's).
    #[test]
    fn repeated_kills_keep_lines_monotone_and_exactly_once(
        proto_i in 0usize..4,
        first_ms in 500u64..2_000,
        gap_ms in 100u64..2_500,
        v1 in 0u32..3,
        v2 in 0u32..3,
        seed in any::<u64>(),
    ) {
        let protocol = [
            ProtocolKind::Coordinated,
            ProtocolKind::Uncoordinated,
            ProtocolKind::CommunicationInduced,
            ProtocolKind::CommunicationInducedBcs,
        ][proto_i];
        let mut kills = vec![
            KillEvent { at_ns: first_ms * MILLIS, worker: v1 },
            KillEvent { at_ns: (first_ms + gap_ms) * MILLIS, worker: v2 },
        ];
        kills.sort_by_key(|k| (k.at_ns, k.worker));
        let storm = FaultPlan { kills, ..FaultPlan::default() };
        let clean = Engine::new(
            &counting_pipeline(3),
            bounded(protocol, seed, None),
        ).run();
        let stormy = Engine::new(
            &counting_pipeline(3),
            EngineConfig {
                storm: Some(storm),
                ..bounded(protocol, seed, None)
            },
        ).run();
        prop_assert_eq!(clean.outcome, Outcome::Drained);
        prop_assert_eq!(
            stormy.outcome.clone(),
            Outcome::Drained,
            "storm run stalled: {}",
            stormy.summary()
        );
        prop_assert_eq!(
            stormy.sink_digest,
            clean.sink_digest,
            "exactly-once violated for {} (kills {}ms/w{} + {}ms/w{}): {}",
            protocol, first_ms, v1, first_ms + gap_ms, v2,
            stormy.summary()
        );
        prop_assert!(
            stormy.recovery_line_mins.windows(2).all(|w| w[0] <= w[1]),
            "recovery line moved backwards for {}: {:?}",
            protocol,
            stormy.recovery_line_mins
        );
    }
}
