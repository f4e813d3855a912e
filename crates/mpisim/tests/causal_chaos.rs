//! Causal-stamp proptests under chaos: whatever a crash-free fault
//! schedule does to the wire (delay, jitter, duplication, reordering),
//! the Lamport clocks and `(sender, send idx)` provenance recorded in
//! the trace must still describe a consistent happens-before order:
//!
//! * per rank, recorded message-event clocks are strictly increasing in
//!   program order;
//! * along every sequenced `(src, dst, tag)` channel, messages are
//!   consumed in send order — send indices and matched send clocks are
//!   strictly increasing in consumption order;
//! * every consumed `(sender, idx)` pair is consumed exactly once
//!   (duplicate deliveries are masked before they are accounted).

use proptest::prelude::*;
use pselinv_chaos::{FaultPlan, FaultSpec};
use pselinv_mpisim::collectives::{tree_bcast, tree_reduce};
use pselinv_mpisim::{try_run_traced, RankCtx, RunOptions};
use pselinv_trace::{EventKind, Trace};
use pselinv_trees::{TreeBuilder, TreeScheme};
use std::collections::BTreeMap;
use std::time::Duration;

fn chaos_opts(plan: FaultPlan) -> RunOptions {
    RunOptions {
        watchdog: Some(Duration::from_secs(30)),
        poll: Duration::from_millis(5),
        faults: Some(plan),
        telemetry: None,
        ..RunOptions::default()
    }
}

/// Raw happens-before checks straight off the trace (no profile crate
/// involved — this guards the stamps themselves, not the analysis).
fn assert_causal_stamps(trace: &Trace) {
    // Gather every send, keyed by (sender, idx).
    let mut sends: BTreeMap<(usize, u64), (u64, usize, u64)> = BTreeMap::new();
    for r in &trace.ranks {
        for e in &r.events {
            if let EventKind::MsgSend { tag, clock, idx, peer, .. } = e.kind {
                let prev = sends.insert((r.rank, idx), (clock, peer, tag));
                assert!(prev.is_none(), "rank {} reused send idx {idx}", r.rank);
            }
        }
    }

    let mut consumed: BTreeMap<(usize, u64), usize> = BTreeMap::new();
    for r in &trace.ranks {
        let mut last_clock: Option<u64> = None;
        // Consumption order per sequenced channel (src, tag).
        let mut chan_last: BTreeMap<(usize, u64), (u64, u64)> = BTreeMap::new();
        for e in &r.events {
            match e.kind {
                EventKind::MsgSend { clock, .. } | EventKind::MsgRecv { clock, .. } => {
                    if let Some(prev) = last_clock {
                        assert!(clock > prev, "rank {}: clock {clock} not after {prev}", r.rank);
                    }
                    last_clock = Some(clock);
                }
                _ => {}
            }
            if let EventKind::MsgRecv { peer, tag, clock, idx, .. } = e.kind {
                let (send_clock, send_peer, send_tag) = *sends
                    .get(&(peer, idx))
                    .unwrap_or_else(|| panic!("recv of unknown send ({peer}, {idx})"));
                assert_eq!(send_peer, r.rank, "send ({peer}, {idx}) addressed elsewhere");
                assert_eq!(send_tag, tag, "send ({peer}, {idx}) tag mismatch");
                assert!(clock > send_clock, "recv clock {clock} not after send clock {send_clock}");
                if let Some(prev) = consumed.insert((peer, idx), r.rank) {
                    panic!("send ({peer}, {idx}) consumed twice (ranks {prev} and {})", r.rank);
                }
                // FIFO per sequenced channel: later consumption on the same
                // (src, tag) channel means a later send.
                if let Some((pidx, pclock)) = chan_last.insert((peer, tag), (idx, send_clock)) {
                    assert!(
                        idx > pidx && send_clock > pclock,
                        "channel ({peer}, tag {tag}): send idx {idx} (clk {send_clock}) \
                         consumed after idx {pidx} (clk {pclock})"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn lamport_stamps_survive_crash_free_chaos(
        seed in 0u64..1_000_000,
        scheme_i in 0usize..4,
        nranks in 4usize..9,
        delay in 0u64..60,
        jitter in 0u64..60,
        dup in 0u16..600,
        reorder in 0u16..600,
        payload_len in 1usize..17,
    ) {
        let scheme = [
            TreeScheme::Flat,
            TreeScheme::Binary,
            TreeScheme::ShiftedBinary,
            TreeScheme::RandomPerm,
        ][scheme_i];
        let receivers: Vec<usize> = (1..nranks).collect();
        let tree = TreeBuilder::new(scheme, 0x5e11).build(0, &receivers, seed);
        let tree = &tree;
        let payload: Vec<f64> = (0..payload_len).map(|i| seed as f64 + i as f64 * 0.5).collect();
        let payload = &payload;

        let plan = FaultPlan::new(seed ^ 0x00c1_0c4e).with_default(FaultSpec {
            delay_us: delay,
            jitter_us: jitter,
            duplicate_permille: dup,
            reorder_permille: reorder,
            ..FaultSpec::default()
        });
        let (_, _, trace) = try_run_traced(nranks, "causal-chaos", &chaos_opts(plan), move |ctx: &mut RankCtx| {
            let me = ctx.rank();
            let b = tree_bcast(ctx, tree, 11, (me == 0).then(|| payload.clone()));
            let contrib: Vec<f64> = (0..payload_len).map(|i| (me * 31 + i) as f64).collect();
            let r = tree_reduce(ctx, tree, 12, contrib);
            (b, r)
        }).expect("a crash-free plan must complete");

        assert_causal_stamps(&trace);
    }
}
