//! A thread-based asynchronous message-passing runtime.
//!
//! MPI is unavailable in this reproduction, so every "rank" is an OS thread
//! with a lock-free mailbox. The API mirrors the subset of MPI semantics
//! PSelInv relies on:
//!
//! * buffered non-blocking sends ([`RankCtx::send`] ≈ `MPI_Isend` with the
//!   buffer handed off — the call never blocks);
//! * blocking tagged receives with out-of-order matching
//!   ([`RankCtx::recv`] ≈ `MPI_Recv` on `(source, tag)`) and their
//!   non-blocking test ([`RankCtx::try_match`] ≈ `MPI_Iprobe` + receive);
//! * a progress-loop park ([`RankCtx::park`]) that blocks until a new
//!   message arrives, reporting what the rank awaits to the watchdog;
//! * per-rank send/receive byte counters, the measurement behind the
//!   paper's communication-volume tables.
//!
//! Every receive goes through one matcher and one blocking point. The
//! matcher scans the out-of-order stash first and pulls the inbox one
//! message at a time only when nothing there matches, stopping at the
//! first hit; it also owns sequence order, duplicate suppression and
//! receive accounting. The only blocking inbox read stashes one new
//! arrival for the next match.
//!
//! [`collectives`] layers the paper's tree-routed restricted collectives on
//! top of these point-to-point primitives, and [`grid`] provides the 2-D
//! block-cyclic process grid of PSelInv.

pub mod collectives;
pub mod grid;
pub mod nb;
pub mod payload;
pub mod reliable;
pub mod requests;
pub mod runtime;
pub mod telemetry;

pub use grid::Grid2D;
pub use nb::{TreeBcastNb, TreeReduceNb};
pub use payload::{IntoPayload, Payload};
pub use reliable::{Recovery, RecoveryConfig, ReliableConfig};
pub use requests::{tree_barrier, wait_any, RecvRequest, BARRIER_DOWN_LANE, BARRIER_UP_LANE};
pub use runtime::{
    run, run_traced, try_run, try_run_recover, try_run_traced, BlockedOn, Message, RankCtx,
    RankVolume, RecoverOutcome, RecoveryReport, RecvTimeout, RunError, RunOptions, StallDiagnostic,
    ACK_LANE, JOIN_LANE, LANE_MASK, NO_SEQ, REPAIR_LANE,
};
pub use telemetry::{Telemetry, TelemetrySample};
