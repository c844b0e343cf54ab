//! Integration test for the counting global allocator. Lives in its
//! own test binary because `#[global_allocator]` is per-binary: unit
//! tests in the library run under the default allocator and only this
//! binary exercises the counting path. The allocator's counters are
//! process-global, so everything runs inside one `#[test]` — the test
//! harness would otherwise interleave tracked windows.

use obs::alloc::{self, CountingAlloc};
use obs::{Collector, Counter};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

fn churn(bytes: usize) -> Vec<u8> {
    // with_capacity guarantees one allocation of exactly `bytes`
    // (modulo allocator rounding, which the counters don't see: they
    // count requested layout sizes)
    let mut v = Vec::with_capacity(bytes);
    v.push(1u8);
    v
}

#[test]
fn counting_attribution_and_collector_integration() {
    // -- raw counting ------------------------------------------------
    assert!(!alloc::tracking());
    alloc::start_tracking();
    assert!(alloc::tracking());
    assert!(alloc::installed(), "global allocator wrapper not active");

    let keep = churn(1 << 20); // 1 MiB held across the snapshot
    let stats = alloc::snapshot();
    assert!(stats.bytes_allocated >= 1 << 20, "{stats:?}");
    assert!(stats.allocs >= 1, "{stats:?}");
    assert!(stats.live_bytes >= 1 << 20, "{stats:?}");
    assert!(stats.peak_live_bytes >= stats.live_bytes, "{stats:?}");
    drop(keep);
    let after = alloc::snapshot();
    assert!(after.frees > stats.frees, "{after:?}");
    assert!(after.live_bytes < stats.live_bytes, "{after:?}");
    // peak never decreases within a window
    assert!(after.peak_live_bytes >= stats.peak_live_bytes);

    // -- phase attribution -------------------------------------------
    alloc::start_tracking(); // reset
    alloc::set_phase(alloc::phase_slot("prematch"));
    let in_prematch = churn(1 << 18);
    alloc::set_phase(alloc::phase_slot("selection"));
    let in_selection = churn(1 << 16);
    alloc::set_phase(alloc::OTHER_SLOT);
    let stats = alloc::stop_tracking();
    assert!(!alloc::tracking());
    let phase = |name: &str| stats.phases.iter().find(|p| p.name == name).unwrap();
    assert!(phase("prematch").alloc_bytes >= 1 << 18, "{stats:?}");
    assert!(phase("prematch").allocs >= 1, "{stats:?}");
    assert!(phase("selection").alloc_bytes >= 1 << 16, "{stats:?}");
    // prematch saw the larger block, and neither phase exceeds the total
    assert!(phase("prematch").alloc_bytes <= stats.bytes_allocated);
    let phase_sum: u64 = stats.phases.iter().map(|p| p.alloc_bytes).sum();
    assert_eq!(phase_sum, stats.bytes_allocated, "{stats:?}");
    assert!(phase("prematch").peak_live_bytes <= stats.peak_live_bytes);
    drop(in_prematch);
    drop(in_selection);

    // -- collector integration: spans drive the phase slot -----------
    let obs = Collector::enabled().with_memory();
    assert!(obs.memory_enabled());
    let held;
    {
        let _prematch = obs.span("prematch");
        held = churn(1 << 19);
        {
            // unrecognised inner span: innermost *recognised* span wins,
            // so this still attributes to prematch
            let _inner = obs.span("scoring_detail");
            let _tmp = churn(1 << 15);
        }
        obs.add(Counter::PrematchPairsScored, 10);
    }
    {
        let _evolution = obs.span("evolution");
        let _tmp = churn(1 << 14);
    }
    drop(held);
    let trace = obs.finish();
    assert!(!alloc::tracking(), "finish() must stop tracking");
    let mem = trace.memory.as_ref().expect("trace carries memory stats");
    assert!(mem.bytes_allocated >= (1 << 19) + (1 << 15) + (1 << 14));
    assert!(mem.peak_live_bytes >= 1 << 19);
    let phase_bytes = |name: &str| {
        mem.phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.alloc_bytes)
    };
    assert!(
        phase_bytes("prematch") >= (1 << 19) + (1 << 15),
        "inner unrecognised span must attribute to prematch: {mem:?}"
    );
    assert!(phase_bytes("evolution") >= 1 << 14, "{mem:?}");
    // the assembled trace passes its own memory invariants
    trace.validate_basic().unwrap();

    // -- a worker publishes its residue before it exits --------------
    alloc::start_tracking();
    let start = alloc::live_bytes();
    // under both flush thresholds, so the worker's free of it stays in
    // the worker's batch until `flush_thread` publishes it
    let handed_over = churn(64 << 10);
    assert!(alloc::snapshot().live_bytes >= start + (64 << 10));
    std::thread::scope(|scope| {
        scope.spawn(move || {
            drop(handed_over);
            alloc::flush_thread();
        });
    });
    // back to the start, up to the thread machinery's own few hundred
    // bytes; without the flush the 64 KiB free would be missing
    let end = alloc::stop_tracking().live_bytes;
    assert!(
        end.abs_diff(start) < 4 << 10,
        "the worker's free was lost at thread exit: live {start} -> {end}"
    );

    // -- disabled path stays dark ------------------------------------
    let off = Collector::disabled().with_memory();
    assert!(!off.memory_enabled());
    assert!(!alloc::tracking());
    let _x = churn(1 << 10);
    assert_eq!(alloc::live_bytes(), 0);
    assert!(off.finish().memory.is_none());
}
