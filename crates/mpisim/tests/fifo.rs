//! Property test for MPI non-overtaking semantics: messages with the same
//! `(source, tag)` must be delivered in send order, no matter how the
//! receiver interleaves blocking receives, tag probes and `wait_any` over
//! every tag it is still owed.
//!
//! A LIFO stash (`Vec::pop`) or tag matches spliced with `swap_remove`
//! break this property. The deterministic regressions live in
//! `runtime.rs`; this test explores the interleaving space.

use proptest::prelude::*;
use pselinv_mpisim::{run, wait_any, RecvRequest};
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn per_source_tag_delivery_is_fifo(
        n_msgs in 4usize..24,
        n_tags in 1u64..4,
        ops in proptest::collection::vec(0usize..3, 16..48),
    ) {
        let ops = &ops;
        let (results, _) = run(2, move |ctx| {
            if ctx.rank() == 0 {
                for i in 0..n_msgs {
                    // Payload carries the per-tag sequence number.
                    let tag = i as u64 % n_tags;
                    ctx.send(1, tag, vec![i as f64]);
                }
                Ok(())
            } else {
                // Messages still owed per tag, so no receive blocks forever.
                let mut left: Vec<usize> = (0..n_tags)
                    .map(|t| (0..n_msgs).filter(|&i| i as u64 % n_tags == t).count())
                    .collect();
                // seq numbers observed so far, per tag
                let mut seen: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
                let mut got = 0usize;
                let mut op_i = 0usize;
                while got < n_msgs {
                    let op = ops[op_i % ops.len()];
                    op_i += 1;
                    // First owed tag from a rotating start.
                    let tag = (0..n_tags)
                        .map(|d| (op_i as u64 + d) % n_tags)
                        .find(|&t| left[t as usize] > 0)
                        .unwrap();
                    let delivered = match op {
                        0 => Some((tag, ctx.recv(0, tag))),
                        // Tag-targeted probe; may pull a message out of the
                        // middle of the stash.
                        1 => ctx.try_match(0, tag).map(|d| (tag, d)),
                        _ => {
                            let mut reqs: Vec<RecvRequest> = (0..n_tags)
                                .filter(|&t| left[t as usize] > 0)
                                .map(|t| RecvRequest::post(0, t))
                                .collect();
                            let i = wait_any(ctx, &mut reqs);
                            let r = reqs.swap_remove(i);
                            Some((r.tag, r.take().expect("wait_any returns a completed request")))
                        }
                    };
                    if let Some((tag, d)) = delivered {
                        left[tag as usize] -= 1;
                        seen.entry(tag).or_default().push(d[0] as u64);
                        got += 1;
                    }
                }
                // Within each (src=0, tag) stream, sequence numbers must be
                // strictly increasing: non-overtaking delivery.
                for (tag, seqs) in &seen {
                    for w in seqs.windows(2) {
                        if w[0] >= w[1] {
                            return Err(format!(
                                "tag {tag}: got seq {} before {}, order {seqs:?}",
                                w[0], w[1]
                            ));
                        }
                    }
                }
                Ok(())
            }
        });
        for r in results {
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
    }
}
