//! Golden oracle for the phase-2 engine.
//!
//! The table below was recorded from the strictly one-supernode-at-a-time
//! schedule (window 1, one thread, no faults): per configuration, a 64-bit
//! FNV-1a digest of every panel's `f64` bits and one of the per-rank
//! `RankVolume`s. Every window and thread count must reproduce both
//! digests exactly — the engine reorders communication, never arithmetic,
//! and never changes which messages travel which edges.

use pselinv_dist::{try_distributed_selinv, DistOptions};
use pselinv_factor::LdlFactor;
use pselinv_mpisim::{Grid2D, RankVolume, RunOptions};
use pselinv_order::{analyze, AnalyzeOptions};
use pselinv_selinv::SelectedInverse;
use pselinv_sparse::gen;
use pselinv_trees::TreeScheme;
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Every panel's diagonal block, then its below-diagonal rows, column-major.
fn panels_digest(inv: &SelectedInverse) -> u64 {
    let mut h = FNV_OFFSET;
    for p in &inv.panels {
        for x in p.diag.data().iter().chain(p.below.data()) {
            fnv(&mut h, x.to_bits());
        }
    }
    h
}

fn volumes_digest(vols: &[RankVolume]) -> u64 {
    let mut h = FNV_OFFSET;
    for v in vols {
        for w in [v.sent, v.received, v.msgs_sent, v.msgs_received, v.copied, v.retransmitted] {
            fnv(&mut h, w);
        }
    }
    h
}

fn factor(w: gen::Workload) -> LdlFactor {
    let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
    pselinv_factor::factorize(&w.matrix, sf).unwrap()
}

const SCHEMES: [TreeScheme; 5] = [
    TreeScheme::Flat,
    TreeScheme::Binary,
    TreeScheme::ShiftedBinary,
    TreeScheme::RandomPerm,
    TreeScheme::Hybrid { flat_threshold: 3 },
];

/// `(matrix, (pr, pc), scheme index, panels digest, volumes digest)`.
/// Matrices: 0 = 7×7 2-D Laplacian, 1 = 9×8 2-D Laplacian, 2 = 4×4×3 3-D
/// Laplacian, 3 = `dg_hamiltonian(3, 2, 1, 8, 2)`; schemes index
/// [`SCHEMES`]; tree seed 7.
type Golden = (usize, (usize, usize), usize, u64, u64);

#[rustfmt::skip]
const GOLDEN: [Golden; 100] = [
    (0, (1, 1), 0, 0xac9623edfe8ff693, 0x3f329e4703630502),
    (0, (1, 1), 1, 0xac9623edfe8ff693, 0x3f329e4703630502),
    (0, (1, 1), 2, 0xac9623edfe8ff693, 0x3f329e4703630502),
    (0, (1, 1), 3, 0xac9623edfe8ff693, 0x3f329e4703630502),
    (0, (1, 1), 4, 0xac9623edfe8ff693, 0x3f329e4703630502),
    (0, (2, 2), 0, 0xe2615c4c9729417a, 0x6fdad44847688b4b),
    (0, (2, 2), 1, 0xe2615c4c9729417a, 0x6fdad44847688b4b),
    (0, (2, 2), 2, 0xe2615c4c9729417a, 0x6fdad44847688b4b),
    (0, (2, 2), 3, 0xe2615c4c9729417a, 0x6fdad44847688b4b),
    (0, (2, 2), 4, 0xe2615c4c9729417a, 0x6fdad44847688b4b),
    (0, (2, 3), 0, 0xac9623edfe8ff693, 0xe5b9e0f7a246adf0),
    (0, (2, 3), 1, 0xac9623edfe8ff693, 0xe5b9e0f7a246adf0),
    (0, (2, 3), 2, 0xac9623edfe8ff693, 0xe5b9e0f7a246adf0),
    (0, (2, 3), 3, 0xac9623edfe8ff693, 0xe5b9e0f7a246adf0),
    (0, (2, 3), 4, 0xac9623edfe8ff693, 0xe5b9e0f7a246adf0),
    (0, (3, 2), 0, 0xe2615c4c9729417a, 0xf19cc4c63eacdef8),
    (0, (3, 2), 1, 0xe2615c4c9729417a, 0xf19cc4c63eacdef8),
    (0, (3, 2), 2, 0xe2615c4c9729417a, 0xf19cc4c63eacdef8),
    (0, (3, 2), 3, 0xe2615c4c9729417a, 0xf19cc4c63eacdef8),
    (0, (3, 2), 4, 0xe2615c4c9729417a, 0xf19cc4c63eacdef8),
    (0, (3, 3), 0, 0xac9623edfe8ff693, 0xcded5e5dd87d39a6),
    (0, (3, 3), 1, 0xac9623edfe8ff693, 0xcded5e5dd87d39a6),
    (0, (3, 3), 2, 0xac9623edfe8ff693, 0xcded5e5dd87d39a6),
    (0, (3, 3), 3, 0xac9623edfe8ff693, 0xcded5e5dd87d39a6),
    (0, (3, 3), 4, 0xac9623edfe8ff693, 0xcded5e5dd87d39a6),
    (1, (1, 1), 0, 0x6fc74eea632beaea, 0xc8700ded9d890519),
    (1, (1, 1), 1, 0x6fc74eea632beaea, 0xc8700ded9d890519),
    (1, (1, 1), 2, 0x6fc74eea632beaea, 0xc8700ded9d890519),
    (1, (1, 1), 3, 0x6fc74eea632beaea, 0xc8700ded9d890519),
    (1, (1, 1), 4, 0x6fc74eea632beaea, 0xc8700ded9d890519),
    (1, (2, 2), 0, 0x3e0e564719b04b7c, 0x33556715fd534729),
    (1, (2, 2), 1, 0x3e0e564719b04b7c, 0x33556715fd534729),
    (1, (2, 2), 2, 0x3e0e564719b04b7c, 0x33556715fd534729),
    (1, (2, 2), 3, 0x3e0e564719b04b7c, 0x33556715fd534729),
    (1, (2, 2), 4, 0x3e0e564719b04b7c, 0x33556715fd534729),
    (1, (2, 3), 0, 0x61b0b9e35b2d7e0c, 0xb8beb57df5b81203),
    (1, (2, 3), 1, 0x61b0b9e35b2d7e0c, 0xb8beb57df5b81203),
    (1, (2, 3), 2, 0x61b0b9e35b2d7e0c, 0xb8beb57df5b81203),
    (1, (2, 3), 3, 0x61b0b9e35b2d7e0c, 0xb8beb57df5b81203),
    (1, (2, 3), 4, 0x61b0b9e35b2d7e0c, 0xb8beb57df5b81203),
    (1, (3, 2), 0, 0x3e0e564719b04b7c, 0xed84c931d1a9bf15),
    (1, (3, 2), 1, 0x3e0e564719b04b7c, 0xed84c931d1a9bf15),
    (1, (3, 2), 2, 0x3e0e564719b04b7c, 0xed84c931d1a9bf15),
    (1, (3, 2), 3, 0x3e0e564719b04b7c, 0xed84c931d1a9bf15),
    (1, (3, 2), 4, 0x3e0e564719b04b7c, 0xed84c931d1a9bf15),
    (1, (3, 3), 0, 0x61b0b9e35b2d7e0c, 0x5b7d9c7dc0d6688e),
    (1, (3, 3), 1, 0x61b0b9e35b2d7e0c, 0x5b7d9c7dc0d6688e),
    (1, (3, 3), 2, 0x61b0b9e35b2d7e0c, 0x5b7d9c7dc0d6688e),
    (1, (3, 3), 3, 0x61b0b9e35b2d7e0c, 0x5b7d9c7dc0d6688e),
    (1, (3, 3), 4, 0x61b0b9e35b2d7e0c, 0x5b7d9c7dc0d6688e),
    (2, (1, 1), 0, 0xe36bc795d783a388, 0xeb49866dd547909c),
    (2, (1, 1), 1, 0xe36bc795d783a388, 0xeb49866dd547909c),
    (2, (1, 1), 2, 0xe36bc795d783a388, 0xeb49866dd547909c),
    (2, (1, 1), 3, 0xe36bc795d783a388, 0xeb49866dd547909c),
    (2, (1, 1), 4, 0xe36bc795d783a388, 0xeb49866dd547909c),
    (2, (2, 2), 0, 0x40e4e141058d47a8, 0x8129b79f99b9f80d),
    (2, (2, 2), 1, 0x40e4e141058d47a8, 0x8129b79f99b9f80d),
    (2, (2, 2), 2, 0x40e4e141058d47a8, 0x8129b79f99b9f80d),
    (2, (2, 2), 3, 0x40e4e141058d47a8, 0x8129b79f99b9f80d),
    (2, (2, 2), 4, 0x40e4e141058d47a8, 0x8129b79f99b9f80d),
    (2, (2, 3), 0, 0x04b746d43010948b, 0x17ae4a813f2fc1b2),
    (2, (2, 3), 1, 0x04b746d43010948b, 0x17ae4a813f2fc1b2),
    (2, (2, 3), 2, 0x04b746d43010948b, 0x17ae4a813f2fc1b2),
    (2, (2, 3), 3, 0x04b746d43010948b, 0x17ae4a813f2fc1b2),
    (2, (2, 3), 4, 0x04b746d43010948b, 0x17ae4a813f2fc1b2),
    (2, (3, 2), 0, 0x40e4e141058d47a8, 0xf3ee4dfe4a655527),
    (2, (3, 2), 1, 0x40e4e141058d47a8, 0xf3ee4dfe4a655527),
    (2, (3, 2), 2, 0x40e4e141058d47a8, 0xf3ee4dfe4a655527),
    (2, (3, 2), 3, 0x40e4e141058d47a8, 0xf3ee4dfe4a655527),
    (2, (3, 2), 4, 0x40e4e141058d47a8, 0xf3ee4dfe4a655527),
    (2, (3, 3), 0, 0x04b746d43010948b, 0x876646b9cf5a4d2b),
    (2, (3, 3), 1, 0x04b746d43010948b, 0x876646b9cf5a4d2b),
    (2, (3, 3), 2, 0x04b746d43010948b, 0x876646b9cf5a4d2b),
    (2, (3, 3), 3, 0x04b746d43010948b, 0x876646b9cf5a4d2b),
    (2, (3, 3), 4, 0x04b746d43010948b, 0x876646b9cf5a4d2b),
    (3, (1, 1), 0, 0x5fb50398cfabe73f, 0xa09d945a1cd8d6e5),
    (3, (1, 1), 1, 0x5fb50398cfabe73f, 0xa09d945a1cd8d6e5),
    (3, (1, 1), 2, 0x5fb50398cfabe73f, 0xa09d945a1cd8d6e5),
    (3, (1, 1), 3, 0x5fb50398cfabe73f, 0xa09d945a1cd8d6e5),
    (3, (1, 1), 4, 0x5fb50398cfabe73f, 0xa09d945a1cd8d6e5),
    (3, (2, 2), 0, 0x5fb50398cfabe73f, 0xab0c262759a1d225),
    (3, (2, 2), 1, 0x5fb50398cfabe73f, 0xab0c262759a1d225),
    (3, (2, 2), 2, 0x5fb50398cfabe73f, 0xab0c262759a1d225),
    (3, (2, 2), 3, 0x5fb50398cfabe73f, 0xab0c262759a1d225),
    (3, (2, 2), 4, 0x5fb50398cfabe73f, 0xab0c262759a1d225),
    (3, (2, 3), 0, 0x5fb50398cfabe73f, 0x66e368127e9e89a5),
    (3, (2, 3), 1, 0x5fb50398cfabe73f, 0x66e368127e9e89a5),
    (3, (2, 3), 2, 0x5fb50398cfabe73f, 0x66e368127e9e89a5),
    (3, (2, 3), 3, 0x5fb50398cfabe73f, 0x66e368127e9e89a5),
    (3, (2, 3), 4, 0x5fb50398cfabe73f, 0x66e368127e9e89a5),
    (3, (3, 2), 0, 0x5fb50398cfabe73f, 0x66e368127e9e89a5),
    (3, (3, 2), 1, 0x5fb50398cfabe73f, 0x66e368127e9e89a5),
    (3, (3, 2), 2, 0x5fb50398cfabe73f, 0x66e368127e9e89a5),
    (3, (3, 2), 3, 0x5fb50398cfabe73f, 0x66e368127e9e89a5),
    (3, (3, 2), 4, 0x5fb50398cfabe73f, 0x66e368127e9e89a5),
    (3, (3, 3), 0, 0x5fb50398cfabe73f, 0xe120542310fbb4e5),
    (3, (3, 3), 1, 0x5fb50398cfabe73f, 0xe120542310fbb4e5),
    (3, (3, 3), 2, 0x5fb50398cfabe73f, 0xe120542310fbb4e5),
    (3, (3, 3), 3, 0x5fb50398cfabe73f, 0xe120542310fbb4e5),
    (3, (3, 3), 4, 0x5fb50398cfabe73f, 0xe120542310fbb4e5),
];

#[test]
fn every_window_and_thread_count_reproduces_the_golden_digests() {
    let mats = [
        factor(gen::grid_laplacian_2d(7, 7)),
        factor(gen::grid_laplacian_2d(9, 8)),
        factor(gen::grid_laplacian_3d(4, 4, 3)),
        factor(gen::dg_hamiltonian(3, 2, 1, 8, 2)),
    ];
    for &(m, (pr, pc), si, panels, volumes) in &GOLDEN {
        for window in [1, 2, 4, usize::MAX] {
            for threads in [1, 2] {
                let opts = DistOptions {
                    scheme: SCHEMES[si],
                    seed: 7,
                    threads,
                    lookahead: window,
                    ..Default::default()
                };
                let what = format!(
                    "matrix {m} grid {pr}x{pc} {} window {window} threads {threads}",
                    SCHEMES[si]
                );
                let (inv, vols) = try_distributed_selinv(
                    &mats[m],
                    Grid2D::new(pr, pc),
                    &opts,
                    &RunOptions::default(),
                )
                .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(panels_digest(&inv), panels, "{what}: panels");
                assert_eq!(volumes_digest(&vols), volumes, "{what}: volumes");
            }
        }
    }
}
