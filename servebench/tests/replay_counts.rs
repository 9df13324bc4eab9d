//! Two traced replays at one seed give identical exact counts. This is
//! its own test binary because the fingerprint and clock-read counters
//! are process-global.

use joinopt_benchmark::replay::{replay, Replay};
use joinopt_benchmark::report::EXACT;
use joinopt_benchmark::runner::sample_positions;
use joinopt_benchmark::workload::{build, NAMES};

fn count(r: &Replay, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .unwrap()
}

#[test]
fn replays_repeat_their_exact_counts() {
    for name in NAMES {
        let mut s = build(name, 2006, 0.1).unwrap();
        // A shorter warm-up keeps the debug build quick.
        s.warmup.truncate(1_000);
        let positions = sample_positions(s.timed.len(), 20, 2006);
        let (a, b) = (replay(&s, &positions), replay(&s, &positions));
        assert!(a.failures.is_empty(), "{name}: {:?}", a.failures);
        for metric in EXACT {
            assert_eq!(
                count(&a, metric).to_bits(),
                count(&b, metric).to_bits(),
                "{name} {metric}"
            );
        }
        assert_eq!(count(&a, "gateway.clock_reads_per_req"), 2.0, "{name}");
        assert_eq!(count(&a, "fingerprint.per_req"), 1.0, "{name}");
        assert!(count(&a, "telemetry.allocs_per_req") > 0.0, "{name}");
    }
}
