//! SGD memory-trace generation.

use buckwild_prng::{split_seed, Prng, Xorshift128};

/// Address-space region an access belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Region {
    /// The streaming, read-only example data (core-private addresses).
    Dataset,
    /// The model vector: shared in the shared-model backend, core-private
    /// replicas in the sharded-delta backend.
    Model,
    /// The SPSC delta rings of the sharded backend: the only lines with
    /// more than one core touching them (one writer, one reader each).
    Ring,
}

/// One line-granular memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Access {
    /// Cache-line index (address / line size).
    pub line: u64,
    /// Write (the AXPY store) vs read.
    pub write: bool,
    /// Which region the line belongs to.
    pub region: Region,
}

/// Line-index base of the shared model region.
const MODEL_BASE_LINE: u64 = 1 << 34;
/// Replica spacing in the sharded backend: each core's private model
/// copy lives `MODEL_CORE_STRIDE` lines past the previous one.
const MODEL_CORE_STRIDE: u64 = 1 << 30;
/// Line-index base of core 0's dataset region; cores are spaced far apart.
const DATA_BASE_LINE: u64 = 1 << 36;
const DATA_CORE_STRIDE: u64 = 1 << 30;
/// Line-index base of the sharded backend's delta rings.
const RING_BASE_LINE: u64 = 1 << 38;
/// Ring spacing per directed core pair (producer, consumer).
const RING_PAIR_STRIDE: u64 = 1 << 14;

/// The memory-access pattern of Buckwild! SGD (paper §2, Figure 1).
///
/// Each iteration performs:
/// 1. a **dot product**: stream-read the example, sweep-read the model;
/// 2. an **AXPY**: re-read the example (now cached) and read-modify-write
///    the model.
///
/// Dense workloads sweep the whole model; sparse workloads gather/scatter
/// `nnz` random coordinates. Example data streams from a fresh,
/// core-private address range every iteration — dataset numbers "are
/// reused only infrequently \[and\] typically stored in DRAM" (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SgdWorkload {
    /// Model length in elements (`n`).
    pub model_elems: usize,
    /// Bytes per model element (the `M` precision).
    pub model_elem_bytes: u64,
    /// Bytes per dataset number as streamed (value + index for sparse).
    pub data_elem_bytes: u64,
    /// Iterations each core executes.
    pub iterations_per_core: usize,
    /// `Some(nnz)` for sparse problems; `None` sweeps densely.
    pub sparse_nnz: Option<usize>,
    /// `Some(k)`: the shard-per-core backend — core-private model
    /// replicas exchanging 8-bit delta packets over SPSC rings every `k`
    /// iterations. `None`: the shared-model (Hogwild!) layout.
    pub sharded_delta_every: Option<usize>,
    /// Trace seed (sparse index sampling).
    pub seed: u64,
}

impl SgdWorkload {
    /// A dense workload: `n`-element model at `elem_bytes` per value for
    /// both dataset and model (e.g. 1 for D8M8, 4 for D32fM32f).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn dense(n: usize, elem_bytes: u64, iterations_per_core: usize) -> Self {
        assert!(n > 0 && elem_bytes > 0 && iterations_per_core > 0);
        SgdWorkload {
            model_elems: n,
            model_elem_bytes: elem_bytes,
            data_elem_bytes: elem_bytes,
            iterations_per_core,
            sparse_nnz: None,
            sharded_delta_every: None,
            seed: 0,
        }
    }

    /// A sparse workload touching `nnz` random model coordinates per
    /// iteration; the dataset stream carries `value_bytes + index_bytes`
    /// per nonzero.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or `nnz > n`.
    #[must_use]
    pub fn sparse(
        n: usize,
        nnz: usize,
        value_bytes: u64,
        index_bytes: u64,
        iterations_per_core: usize,
    ) -> Self {
        assert!(n > 0 && nnz > 0 && iterations_per_core > 0);
        assert!(nnz <= n, "nnz must not exceed the model size");
        assert!(value_bytes > 0 && index_bytes > 0);
        SgdWorkload {
            model_elems: n,
            model_elem_bytes: value_bytes,
            data_elem_bytes: value_bytes + index_bytes,
            iterations_per_core,
            sparse_nnz: Some(nnz),
            sharded_delta_every: None,
            seed: 0,
        }
    }

    /// Switches the workload to the shard-per-core layout: every core
    /// owns a private model replica (no shared model lines) and, every
    /// `delta_every` iterations, pays for the explicit delta exchange —
    /// one diff/quantize read sweep and one apply/re-snapshot write sweep
    /// of its own replica, plus an 8-bit packet (one `i8` per coordinate
    /// + a 4-byte scale) pushed to and popped from each peer's SPSC ring.
    ///
    /// # Panics
    ///
    /// Panics if `delta_every == 0`.
    #[must_use]
    pub fn sharded(mut self, delta_every: usize) -> Self {
        assert!(delta_every > 0, "delta exchange period must be positive");
        self.sharded_delta_every = Some(delta_every);
        self
    }

    /// Packet lines per directed peer for one delta exchange.
    fn packet_lines(&self, line_bytes: u64) -> u64 {
        (self.model_elems as u64 + 4).div_ceil(line_bytes).max(1)
    }

    /// Dataset numbers processed per iteration (the GNPS numerator unit).
    #[must_use]
    pub fn numbers_per_iteration(&self) -> usize {
        self.sparse_nnz.unwrap_or(self.model_elems)
    }

    /// Model lines spanned by the full model.
    #[must_use]
    pub fn model_lines(&self, line_bytes: u64) -> u64 {
        (self.model_elems as u64 * self.model_elem_bytes).div_ceil(line_bytes)
    }

    /// Generates the access sequence of one iteration for `core`
    /// (of `cores` total — the sharded exchange fans out to every peer).
    pub(crate) fn iteration_accesses(
        &self,
        core: usize,
        cores: usize,
        iteration: usize,
        line_bytes: u64,
    ) -> Vec<Access> {
        let mut out = Vec::new();
        let data_bytes_per_iter = self.numbers_per_iteration() as u64 * self.data_elem_bytes;
        let data_lines = data_bytes_per_iter.div_ceil(line_bytes).max(1);
        let data_start =
            DATA_BASE_LINE + core as u64 * DATA_CORE_STRIDE + iteration as u64 * data_lines;
        // Sharded replicas are core-private; the shared model is one range.
        let model_base = match self.sharded_delta_every {
            Some(_) => MODEL_BASE_LINE + core as u64 * MODEL_CORE_STRIDE,
            None => MODEL_BASE_LINE,
        };

        // Dot: stream the example...
        for j in 0..data_lines {
            out.push(Access {
                line: data_start + j,
                write: false,
                region: Region::Dataset,
            });
        }
        match self.sparse_nnz {
            None => {
                let model_lines = self.model_lines(line_bytes);
                // Cores are not phase-locked in real Hogwild! execution:
                // rotate each core's sweep so concurrent cores touch
                // different parts of the shared model at any instant.
                let phase = core as u64 * model_lines / (core as u64 + 7).max(8);
                let rotated = |j: u64| model_base + (j + phase) % model_lines;
                // ...sweep-read the model (dot),
                for j in 0..model_lines {
                    out.push(Access {
                        line: rotated(j),
                        write: false,
                        region: Region::Model,
                    });
                }
                // re-read the example (AXPY input; hits cache for small
                // examples) and read-modify-write the model.
                for j in 0..data_lines {
                    out.push(Access {
                        line: data_start + j,
                        write: false,
                        region: Region::Dataset,
                    });
                }
                for j in 0..model_lines {
                    out.push(Access {
                        line: rotated(j),
                        write: true,
                        region: Region::Model,
                    });
                }
            }
            Some(nnz) => {
                let mut rng = Xorshift128::seed_from(split_seed(
                    self.seed,
                    (core * 1_000_003 + iteration) as u64,
                ));
                let model_lines = self.model_lines(line_bytes).max(1);
                let touched: Vec<u64> = (0..nnz)
                    .map(|_| model_base + rng.next_below(model_lines as u32) as u64)
                    .collect();
                for &line in &touched {
                    out.push(Access {
                        line,
                        write: false,
                        region: Region::Model,
                    });
                }
                for j in 0..data_lines {
                    out.push(Access {
                        line: data_start + j,
                        write: false,
                        region: Region::Dataset,
                    });
                }
                for &line in &touched {
                    out.push(Access {
                        line,
                        write: true,
                        region: Region::Model,
                    });
                }
            }
        }
        if let Some(every) = self.sharded_delta_every {
            if cores > 1 && (iteration + 1).is_multiple_of(every) {
                self.push_exchange_accesses(&mut out, core, cores, model_base, line_bytes);
            }
        }
        out
    }

    /// The delta-exchange traffic of the sharded backend: diff/quantize
    /// sweep-reads the private replica, the quantized packet is written
    /// into each peer's inbound ring and every peer's packet is read back
    /// out, then apply + re-snapshot read-modify-writes the replica. Ring
    /// lines are the only lines shared between cores, and each directed
    /// (producer, consumer) pair has its own disjoint range — exactly the
    /// SPSC layout of the real engine.
    fn push_exchange_accesses(
        &self,
        out: &mut Vec<Access>,
        core: usize,
        cores: usize,
        model_base: u64,
        line_bytes: u64,
    ) {
        let model_lines = self.model_lines(line_bytes).max(1);
        let packet_lines = self.packet_lines(line_bytes);
        let ring = |producer: usize, consumer: usize| {
            RING_BASE_LINE + (producer * cores + consumer) as u64 * RING_PAIR_STRIDE
        };
        // Diff + quantize: read the whole private replica.
        for j in 0..model_lines {
            out.push(Access {
                line: model_base + j,
                write: false,
                region: Region::Model,
            });
        }
        for peer in 0..cores {
            if peer == core {
                continue;
            }
            // Publish our packet into the (core -> peer) ring...
            for j in 0..packet_lines {
                out.push(Access {
                    line: ring(core, peer) + j,
                    write: true,
                    region: Region::Ring,
                });
            }
            // ...and drain the (peer -> core) ring.
            for j in 0..packet_lines {
                out.push(Access {
                    line: ring(peer, core) + j,
                    write: false,
                    region: Region::Ring,
                });
            }
        }
        // Apply drained deltas + re-snapshot: write the replica back.
        for j in 0..model_lines {
            out.push(Access {
                line: model_base + j,
                write: true,
                region: Region::Model,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_access_counts() {
        let w = SgdWorkload::dense(1024, 1, 3); // 1KB model = 16 lines
        let accesses = w.iteration_accesses(0, 4, 0, 64);
        // 16 data + 16 model reads + 16 data + 16 model writes.
        assert_eq!(accesses.len(), 64);
        assert_eq!(accesses.iter().filter(|a| a.write).count(), 16);
        assert_eq!(w.numbers_per_iteration(), 1024);
    }

    #[test]
    fn dataset_addresses_are_core_private_and_streaming() {
        let w = SgdWorkload::dense(64, 1, 2);
        let a0 = w.iteration_accesses(0, 2, 0, 64);
        let a1 = w.iteration_accesses(1, 2, 0, 64);
        let b0 = w.iteration_accesses(0, 2, 1, 64);
        let data = |v: &[Access]| -> Vec<u64> {
            v.iter()
                .filter(|a| a.region == Region::Dataset)
                .map(|a| a.line)
                .collect()
        };
        // Different cores, disjoint dataset lines.
        assert!(data(&a0).iter().all(|l| !data(&a1).contains(l)));
        // Same core, new iteration: fresh lines.
        assert!(data(&a0).iter().all(|l| !data(&b0).contains(l)));
    }

    #[test]
    fn model_addresses_are_shared_across_cores() {
        let w = SgdWorkload::dense(256, 2, 1);
        let model = |core| -> Vec<u64> {
            let mut lines: Vec<u64> = w
                .iteration_accesses(core, 4, 0, 64)
                .iter()
                .filter(|a| a.region == Region::Model)
                .map(|a| a.line)
                .collect();
            lines.sort_unstable();
            lines
        };
        // Sweeps are phase-rotated per core, but cover the same shared
        // set of model lines.
        assert_eq!(model(0), model(3));
    }

    #[test]
    fn sparse_touches_nnz_model_lines() {
        let w = SgdWorkload::sparse(1 << 16, 32, 1, 1, 1);
        let accesses = w.iteration_accesses(0, 1, 0, 64);
        let model_reads = accesses
            .iter()
            .filter(|a| a.region == Region::Model && !a.write)
            .count();
        let model_writes = accesses
            .iter()
            .filter(|a| a.region == Region::Model && a.write)
            .count();
        assert_eq!(model_reads, 32);
        assert_eq!(model_writes, 32);
        assert_eq!(w.numbers_per_iteration(), 32);
        // Dataset stream: 32 * 2 bytes = 1 line, read once for the dot and
        // once more for the AXPY.
        assert_eq!(
            accesses
                .iter()
                .filter(|a| a.region == Region::Dataset)
                .count(),
            2
        );
    }

    #[test]
    fn model_lines_rounds_up() {
        let w = SgdWorkload::dense(65, 1, 1);
        assert_eq!(w.model_lines(64), 2);
        let w2 = SgdWorkload::dense(64, 1, 1);
        assert_eq!(w2.model_lines(64), 1);
    }

    #[test]
    #[should_panic(expected = "nnz must not exceed")]
    fn sparse_validates_nnz() {
        let _ = SgdWorkload::sparse(16, 32, 1, 1, 1);
    }

    #[test]
    fn sharded_model_lines_are_core_private() {
        let w = SgdWorkload::dense(256, 1, 4).sharded(2);
        let model = |core| -> Vec<u64> {
            let mut lines: Vec<u64> = w
                .iteration_accesses(core, 4, 0, 64)
                .iter()
                .filter(|a| a.region == Region::Model)
                .map(|a| a.line)
                .collect();
            lines.sort_unstable();
            lines.dedup();
            lines
        };
        // Replicas occupy disjoint line ranges: no sharing, no coherence.
        assert!(model(0).iter().all(|l| !model(1).contains(l)));
        assert!(model(1).iter().all(|l| !model(3).contains(l)));
    }

    #[test]
    fn sharded_exchange_appears_only_on_period_boundaries() {
        let w = SgdWorkload::dense(256, 1, 8).sharded(4);
        let rings = |iteration| {
            w.iteration_accesses(0, 2, iteration, 64)
                .iter()
                .filter(|a| a.region == Region::Ring)
                .count()
        };
        assert_eq!(rings(0), 0);
        assert_eq!(rings(2), 0);
        // Iteration 3 completes the 4th step: exchange fires. The packet
        // (256 i8 + 4-byte scale) spans 5 lines, written to 1 peer and
        // read from 1 peer.
        assert_eq!(rings(3), 10);
        assert_eq!(rings(7), 10);
        // A single core has no peers and never touches ring lines.
        assert_eq!(
            w.iteration_accesses(0, 1, 3, 64)
                .iter()
                .filter(|a| a.region == Region::Ring)
                .count(),
            0
        );
    }

    #[test]
    fn sharded_ring_lines_are_shared_only_by_their_pair() {
        let w = SgdWorkload::dense(64, 1, 2).sharded(1);
        let rings = |core: usize, write: bool| -> Vec<u64> {
            let mut lines: Vec<u64> = w
                .iteration_accesses(core, 3, 0, 64)
                .iter()
                .filter(|a| a.region == Region::Ring && a.write == write)
                .map(|a| a.line)
                .collect();
            lines.sort_unstable();
            lines
        };
        for producer in 0..3usize {
            for consumer in 0..3usize {
                if producer == consumer {
                    continue;
                }
                // Every line the producer writes toward some peer is read
                // by exactly that peer and nobody else.
                let written = rings(producer, true);
                let read_back = rings(consumer, false);
                assert!(written.iter().any(|l| read_back.contains(l)));
                let other = (0..3).find(|c| *c != producer && *c != consumer).unwrap();
                let outgoing: Vec<u64> = written
                    .iter()
                    .copied()
                    .filter(|l| read_back.contains(l))
                    .collect();
                assert!(outgoing.iter().all(|l| !rings(other, false).contains(l)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn sharded_validates_period() {
        let _ = SgdWorkload::dense(16, 1, 1).sharded(0);
    }
}
