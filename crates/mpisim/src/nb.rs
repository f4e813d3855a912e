//! Nonblocking tree-collective state machines — the one implementation of
//! the tree protocol.
//!
//! Each machine posts its rank's sequenced tree edges as [`RecvRequest`]s
//! and advances on whatever arrives first, so a progress engine (PSelInv's
//! phase-2 loop) can keep many collectives of many supernodes in flight at
//! once and drain them in arrival order. The blocking collectives in
//! [`crate::collectives`] are these machines polled to completion.
//!
//! Determinism: a reduction consumes its children's contributions in
//! *arrival* order but parks each in a per-child slot; the slots are summed
//! in the tree's fixed child order, so the floating-point result does not
//! depend on message timing.
//!
//! Each machine names its first still-pending `(src, tag)` edge
//! ([`TreeBcastNb::pending_edge`], [`TreeReduceNb::pending_edge`]) for the
//! caller's [`RankCtx::park`], so a stalled rank reports an exact wait-for
//! edge to the watchdog.

use crate::payload::Payload;
use crate::requests::RecvRequest;
use crate::runtime::RankCtx;
use pselinv_trees::CollectiveTree;

/// A nonblocking tree broadcast on one rank (≈ the rank-local slice of an
/// `MPI_Ibcast` routed along a [`CollectiveTree`]).
///
/// The root completes (and forwards to its children) at [`TreeBcastNb::start`];
/// every other participant posts a sequenced receive from its parent and
/// forwards downstream the moment [`TreeBcastNb::poll`] matches it.
#[derive(Debug)]
pub struct TreeBcastNb {
    tag: u64,
    /// Pending receive from the parent (`None` once matched, or for the
    /// root / non-participants).
    req: Option<RecvRequest>,
    /// The broadcast payload once it is available on this rank.
    payload: Option<Payload>,
}

impl TreeBcastNb {
    /// Starts the broadcast on this rank. The root must pass `Some(data)`
    /// (packed once, with the copy accounted exactly like the blocking
    /// broadcast) and is immediately done; other participants post their
    /// parent receive; non-participants are immediately done with no
    /// payload.
    pub fn start<P: crate::payload::IntoPayload>(
        ctx: &mut RankCtx,
        tree: &CollectiveTree,
        tag: u64,
        data: Option<P>,
    ) -> Self {
        let me = ctx.rank();
        if me == tree.root() {
            let (payload, copied) =
                data.expect("root must provide the broadcast payload").into_payload();
            ctx.account_copy(copied);
            for child in tree.children_of(me) {
                ctx.send_seq(child, tag, payload.clone());
            }
            Self { tag, req: None, payload: Some(payload) }
        } else if let Some(parent) = tree.parent_of(me) {
            Self { tag, req: Some(RecvRequest::post(parent, tag)), payload: None }
        } else {
            Self { tag, req: None, payload: None }
        }
    }

    /// `true` once this rank's part of the broadcast is finished.
    pub fn is_done(&self) -> bool {
        self.req.is_none()
    }

    /// The `(parent, tag)` edge this rank still awaits, if any.
    pub fn pending_edge(&self) -> Option<(usize, u64)> {
        self.req.as_ref().map(|r| (r.src, r.tag))
    }

    /// Non-blocking progress. On the arrival of the parent's message the
    /// payload is forwarded to this rank's children (sequenced, zero-copy
    /// `Arc` clones). Returns [`TreeBcastNb::is_done`].
    pub fn poll(&mut self, ctx: &mut RankCtx, tree: &CollectiveTree) -> bool {
        let Some(req) = &mut self.req else { return true };
        if !req.test(ctx) {
            return false;
        }
        let payload =
            self.req.take().and_then(RecvRequest::take).expect("completed request has a payload");
        for child in tree.children_of(ctx.rank()) {
            ctx.send_seq(child, self.tag, payload.clone());
        }
        self.payload = Some(payload);
        true
    }

    /// The broadcast payload, once available (`None` while pending and on
    /// non-participants).
    pub fn payload(&self) -> Option<&Payload> {
        self.payload.as_ref()
    }

    /// Consumes the machine, returning the payload if it ever arrived.
    pub fn into_payload(self) -> Option<Payload> {
        self.payload
    }
}

/// A nonblocking tree reduction (element-wise sum) on one rank.
///
/// Contributions are matched in arrival order but parked in per-child
/// slots; once every slot is filled they are summed in the tree's fixed
/// child order on top of the local contribution, then forwarded to the
/// parent (or kept as the result at the root).
#[derive(Debug)]
pub struct TreeReduceNb {
    tag: u64,
    /// Pending receives, parallel to `slots` (fixed child order).
    reqs: Vec<Option<RecvRequest>>,
    /// Arrived contributions, parallel to `reqs`.
    slots: Vec<Option<Payload>>,
    /// This rank's own contribution until the final sum consumes it.
    local: Option<Vec<f64>>,
    /// `Some` at the root once complete.
    result: Option<Vec<f64>>,
    done: bool,
}

impl TreeReduceNb {
    /// Starts the reduction on this rank with its local contribution,
    /// posting one sequenced receive per child. A leaf that is not the
    /// root forwards immediately and is done.
    pub fn start(ctx: &mut RankCtx, tree: &CollectiveTree, tag: u64, local: Vec<f64>) -> Self {
        let children = tree.children_of(ctx.rank());
        let reqs: Vec<Option<RecvRequest>> =
            children.iter().map(|&c| Some(RecvRequest::post(c, tag))).collect();
        let slots = vec![None; children.len()];
        let mut nb = Self { tag, reqs, slots, local: Some(local), result: None, done: false };
        nb.try_finish(ctx, tree);
        nb
    }

    /// `true` once this rank's part of the reduction is finished.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The first `(child, tag)` edge, in the tree's fixed child order, whose
    /// contribution has not arrived yet.
    pub fn pending_edge(&self) -> Option<(usize, u64)> {
        self.reqs.iter().flatten().next().map(|r| (r.src, r.tag))
    }

    /// Non-blocking progress: matches any child contributions that have
    /// arrived; when the last slot fills, sums and forwards. Returns
    /// [`TreeReduceNb::is_done`].
    pub fn poll(&mut self, ctx: &mut RankCtx, tree: &CollectiveTree) -> bool {
        if self.done {
            return true;
        }
        for (req, slot) in self.reqs.iter_mut().zip(self.slots.iter_mut()) {
            let Some(r) = req else { continue };
            if r.test(ctx) {
                *slot = req.take().and_then(RecvRequest::take);
            }
        }
        self.try_finish(ctx, tree);
        self.done
    }

    /// If every child slot is filled, performs the fixed-order sum and
    /// forwards/stores the total.
    fn try_finish(&mut self, ctx: &mut RankCtx, tree: &CollectiveTree) {
        if self.done || self.slots.iter().any(Option::is_none) {
            return;
        }
        let mut acc = self.local.take().expect("local contribution consumed once");
        for slot in &self.slots {
            let contrib = slot.as_ref().expect("all slots filled");
            assert_eq!(contrib.len(), acc.len(), "reduction contributions must have equal length");
            for (a, c) in acc.iter_mut().zip(contrib.iter()) {
                *a += c;
            }
        }
        self.slots.clear();
        if ctx.rank() == tree.root() {
            self.result = Some(acc);
        } else {
            let parent = tree
                .parent_of(ctx.rank())
                .unwrap_or_else(|| panic!("rank {} is not a participant", ctx.rank()));
            ctx.send_seq(parent, self.tag, acc);
        }
        self.done = true;
    }

    /// Consumes the machine, returning the reduced total at the root
    /// (`None` elsewhere).
    pub fn into_result(self) -> Option<Vec<f64>> {
        self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run;
    use pselinv_trees::{TreeBuilder, TreeScheme};

    fn schemes() -> Vec<TreeScheme> {
        vec![
            TreeScheme::Flat,
            TreeScheme::Binary,
            TreeScheme::ShiftedBinary,
            TreeScheme::RandomPerm,
        ]
    }

    #[test]
    fn nb_bcast_delivers_the_root_payload_with_tree_volumes() {
        let root_payload = vec![1.5, -2.0, 7.0];
        for scheme in schemes() {
            let receivers: Vec<usize> = (1..9).collect();
            let tree = TreeBuilder::new(scheme, 11).build(0, &receivers, 5);
            let tree = &tree;
            let root_payload = &root_payload;
            let (results, vols) = run(9, move |ctx| {
                let data = (ctx.rank() == 0).then(|| root_payload.clone());
                let mut nb = TreeBcastNb::start(ctx, tree, 3, data);
                loop {
                    let since = ctx.arrivals();
                    if nb.poll(ctx, tree) {
                        break;
                    }
                    ctx.park(since, nb.pending_edge().into());
                }
                nb.into_payload().expect("participant gets the payload").to_vec()
            });
            for (r, got) in results.iter().enumerate() {
                assert_eq!(got, root_payload, "{scheme} rank {r}");
            }
            let bytes = (root_payload.len() * 8) as u64;
            let mut sent = vec![0u64; 9];
            pselinv_trees::bcast_sent_volume(tree, bytes, &mut sent);
            for (r, v) in vols.iter().enumerate() {
                assert_eq!(v.sent, sent[r], "{scheme} rank {r} sent");
                let received = if r == 0 { 0 } else { bytes };
                assert_eq!(v.received, received, "{scheme} rank {r} received");
            }
        }
    }

    /// The reduction's reference: each rank's local contribution plus its
    /// children's subtree totals, folded in the tree's fixed child order.
    fn subtree_total(
        tree: &CollectiveTree,
        rank: usize,
        contrib: &dyn Fn(usize) -> Vec<f64>,
    ) -> Vec<f64> {
        let mut acc = contrib(rank);
        for child in tree.children_of(rank) {
            for (a, c) in acc.iter_mut().zip(subtree_total(tree, child, contrib)) {
                *a += c;
            }
        }
        acc
    }

    #[test]
    fn nb_reduce_is_bit_identical_to_fixed_order_fold() {
        // Contributions chosen so summation order matters in floating
        // point: mixing huge and tiny magnitudes.
        let contrib = |r: usize| -> Vec<f64> {
            (0..4).map(|i| (r as f64 + 1.0).powi(18 - i) * 1e-6).collect()
        };
        for scheme in schemes() {
            let receivers: Vec<usize> = (1..10).collect();
            let tree = TreeBuilder::new(scheme, 3).build(0, &receivers, 9);
            let tree = &tree;
            let (nbr, nbv) = run(10, move |ctx| {
                let mut nb = TreeReduceNb::start(ctx, tree, 4, contrib(ctx.rank()));
                loop {
                    let since = ctx.arrivals();
                    if nb.poll(ctx, tree) {
                        break;
                    }
                    ctx.park(since, nb.pending_edge().into());
                }
                nb.into_result()
            });
            let got: Vec<u64> =
                nbr[0].as_ref().expect("root result").iter().map(|x| x.to_bits()).collect();
            let want: Vec<u64> =
                subtree_total(tree, 0, &contrib).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "{scheme}: arrival-order consumption changed the bits");
            for r in 1..10 {
                assert!(nbr[r].is_none());
            }
            let mut received = vec![0u64; 10];
            pselinv_trees::reduce_received_volume(tree, 4 * 8, &mut received);
            for (r, v) in nbv.iter().enumerate() {
                assert_eq!(v.received, received[r], "{scheme} rank {r} received");
                let sent = if r == 0 { 0 } else { 4 * 8 };
                assert_eq!(v.sent, sent, "{scheme} rank {r} sent");
            }
        }
    }

    #[test]
    fn many_overlapping_nb_collectives_complete() {
        // Eight broadcasts and eight reductions of one tree family, all in
        // flight at once on every rank, drained by one progress loop.
        let receivers: Vec<usize> = (1..8).collect();
        let builder = TreeBuilder::new(TreeScheme::ShiftedBinary, 17);
        let trees: Vec<_> = (0..8u64).map(|k| builder.build(0, &receivers, k)).collect();
        let trees = &trees;
        let (results, _) = run(8, move |ctx| {
            let me = ctx.rank();
            let mut bcasts: Vec<TreeBcastNb> = trees
                .iter()
                .enumerate()
                .map(|(k, t)| {
                    let data = (me == 0).then(|| Payload::from(vec![k as f64; 3]));
                    TreeBcastNb::start(ctx, t, 100 + k as u64, data)
                })
                .collect();
            let mut reduces: Vec<TreeReduceNb> = trees
                .iter()
                .enumerate()
                .map(|(k, t)| {
                    TreeReduceNb::start(ctx, t, 200 + k as u64, vec![(me * (k + 1)) as f64])
                })
                .collect();
            loop {
                let since = ctx.arrivals();
                let mut all = true;
                for (k, b) in bcasts.iter_mut().enumerate() {
                    all &= b.poll(ctx, &trees[k]);
                }
                for (k, r) in reduces.iter_mut().enumerate() {
                    all &= r.poll(ctx, &trees[k]);
                }
                if all {
                    break;
                }
                let edge = bcasts
                    .iter()
                    .find_map(TreeBcastNb::pending_edge)
                    .or_else(|| reduces.iter().find_map(TreeReduceNb::pending_edge));
                ctx.park(since, edge.into());
            }
            let bsum: f64 = bcasts.iter().map(|b| b.payload().unwrap()[0]).sum();
            let rsum: f64 = reduces.into_iter().filter_map(|r| r.into_result()).map(|v| v[0]).sum();
            (bsum, rsum)
        });
        let bcast_expect: f64 = (0..8).map(|k| k as f64).sum();
        for (r, (bsum, _)) in results.iter().enumerate() {
            assert_eq!(*bsum, bcast_expect, "rank {r}");
        }
        // Σ over k of Σ over ranks of rank*(k+1)
        let ranks_sum: f64 = (0..8).sum::<usize>() as f64;
        let reduce_expect: f64 = (1..=8).map(|k| ranks_sum * k as f64).sum();
        assert_eq!(results[0].1, reduce_expect);
    }
}
