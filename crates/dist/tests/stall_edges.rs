//! A stalled rank must end the run in a watchdog diagnostic that names the
//! exact `(src, tag)` edge every blocked rank awaits — at window 1 and at
//! wider windows alike — so the wait-for graph points at the culprit.

use pselinv_chaos::{FaultPlan, FaultSpec};
use pselinv_dist::{try_distributed_selinv, DistOptions};
use pselinv_mpisim::{Grid2D, RunError, RunOptions};
use pselinv_order::{analyze, AnalyzeOptions};
use pselinv_sparse::gen;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn stalled_rank_leaves_exact_wait_for_edges_at_every_window() {
    let w = gen::grid_laplacian_2d(7, 7);
    let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
    let f = pselinv_factor::factorize(&w.matrix, sf).unwrap();
    let plan = FaultPlan::new(3)
        .with_rank(1, FaultSpec { stall_after_ops: Some(5), ..FaultSpec::default() });
    let run_opts = RunOptions {
        watchdog: Some(Duration::from_millis(800)),
        poll: Duration::from_millis(10),
        faults: Some(plan),
        ..RunOptions::default()
    };
    for window in [1, 4] {
        let opts = DistOptions { threads: 1, lookahead: window, ..Default::default() };
        let err = try_distributed_selinv(&f, Grid2D::new(2, 2), &opts, &run_opts)
            .expect_err("rank 1 stalls, so the run cannot finish");
        let RunError::Stalled(diag) = err else {
            panic!("window {window}: expected a stall diagnostic, got: {err}");
        };
        assert!(!diag.blocked.is_empty(), "window {window}: no blocked rank in:\n{diag}");
        for (rank, on) in &diag.blocked {
            assert!(
                on.src.is_some() && on.tag.is_some(),
                "window {window}: rank {rank} blocked on {on}, not an exact edge, in:\n{diag}"
            );
        }
        let text = diag.to_string();
        assert!(!text.contains("recv(any)"), "window {window}:\n{text}");
    }
}
